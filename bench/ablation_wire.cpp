// Ablation: wire-format costs — delta coding and the security envelope.
//
// The paper's protocol signs every message (~100-bit signatures on ~700-bit
// updates) and notes updates can be delta-coded (§II-A). This bench
// quantifies both: per-message byte budgets, the measured effect of delta
// coding on a live session, and how much of the total traffic the security
// envelope (headers + signatures) consumes — the price of cheat resistance
// that plain Quake-style networking does not pay.

#include <cstdio>

#include "bench_common.hpp"
#include "core/messages.hpp"
#include "core/session.hpp"
#include "crypto/sig.hpp"
#include "net/network.hpp"

using namespace watchmen;

int main() {
  bench::print_header("Ablation", "Wire format: delta coding & signature overhead");

  // Per-message anatomy.
  const crypto::KeyRegistry keys(42, 2);
  game::AvatarState s;
  s.pos = {1024.125, 512.5, 96};
  s.vel = {320, -100, 12};
  s.yaw = 1.5;
  s.pitch = -0.2;
  s.health = 92;
  s.armor = 50;
  s.ammo = 77;
  s.frags = 3;
  game::AvatarState next = s;
  next.pos += next.vel * 0.05;
  next.yaw += 0.02;

  core::MsgHeader h;
  h.origin = 0;
  h.subject = 0;
  h.frame = 1000;
  const auto key_body = core::encode_state_body(s);
  const auto delta_body =
      core::encode_state_body_delta_anchored(s, h.frame - 1, 1, next);
  const auto key_wire = core::seal(h, key_body, keys.key_pair(0));
  const auto delta_wire = core::seal(h, delta_body, keys.key_pair(0));

  // Varint header + blob length.
  const std::size_t header =
      key_wire.size() - key_body.size() - crypto::kSignatureBytes;
  std::printf("state update anatomy (bytes):\n");
  std::printf("  %-22s %8s %8s %8s %8s %8s\n", "", "payload", "header", "sig",
              "UDP/IP", "total");
  std::printf("  %-22s %8zu %8zu %8zu %8d %8zu\n", "keyframe",
              key_body.size() - 1, header, crypto::kSignatureBytes, 28,
              key_wire.size() + 28);
  std::printf("  %-22s %8zu %8zu %8zu %8d %8zu\n", "delta (anchored)",
              delta_body.size() - 2, header, crypto::kSignatureBytes, 28,
              delta_wire.size() + 28);
  const double envelope =
      static_cast<double>(header + crypto::kSignatureBytes + 28);
  std::printf("  security+transport envelope: %.0f B fixed per message "
              "(paper: ~100-bit signature on ~700-bit updates)\n\n",
              envelope);

  // Live effect on a 24-player session.
  const game::GameMap map = game::make_longest_yard();
  const game::GameTrace trace = bench::standard_trace(24, 1200, 42);
  auto run = [&](bool delta) {
    core::SessionOptions opts;
    opts.net = core::NetProfile::kKing;
    opts.loss_rate = 0.01;
    opts.watchmen.delta_updates = delta;
    core::WatchmenSession session(trace, map, opts);
    session.run();
    return std::make_pair(
        static_cast<double>(session.network().stats().bits_sent) / 1000.0 / 60.0 / 24.0,
        session.merged_update_ages().count());
  };
  const auto [full_kbps, full_updates] = run(false);
  const auto [delta_kbps, delta_updates] = run(true);
  std::printf("measured per-player upload, 24 players, 60 s:\n");
  std::printf("  full updates : %7.1f kbps (%zu usable updates received)\n",
              full_kbps, full_updates);
  std::printf("  delta-coded  : %7.1f kbps (%zu usable; %.1f%% saved)\n",
              delta_kbps, delta_updates,
              100.0 * (1.0 - delta_kbps / full_kbps));
  std::printf("\n-> delta coding shrinks state payloads by more than half, but "
              "the signed envelope dominates the wire and the proxy's acks "
              "cost bytes too, capping end-to-end savings at a few percent — "
              "a real cost of per-message authentication that unsecured "
              "Quake-style delta networking does not pay.\n");
  return 0;
}
