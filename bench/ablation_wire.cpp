// Ablation: wire-format costs — the security envelope of a state update.
//
// The paper's protocol signs every message (~100-bit signatures on ~700-bit
// updates) and sends IS members a full state update every frame (§II). This
// bench prices one such update byte by byte and shows how much of it the
// security envelope (header + signature) and the transport consume — the
// price of cheat resistance that plain Quake-style networking does not pay.
// Delta-coding the payload was tried and retired: it saved about 1 % of
// upload at 24 players, since the fixed envelope dominates (EXPERIMENTS.md).

#include <cstdio>

#include "bench_common.hpp"
#include "core/messages.hpp"
#include "crypto/sig.hpp"

using namespace watchmen;

int main() {
  bench::print_header("Ablation", "Wire format: signature overhead");

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

  core::MsgHeader h;
  h.origin = 0;
  h.subject = 0;
  h.frame = 1000;
  const auto body = core::encode_state_body(s);
  const auto wire = core::seal(h, body, keys.key_pair(0));

  // Varint header; the body runs to the signature, unprefixed.
  const std::size_t header = wire.size() - body.size() - crypto::kSignatureBytes;
  const std::size_t total = wire.size() + 28;
  std::printf("state update anatomy (bytes):\n");
  std::printf("  %-22s %8s %8s %8s %8s %8s\n", "", "payload", "header", "sig",
              "UDP/IP", "total");
  std::printf("  %-22s %8zu %8zu %8zu %8d %8zu\n", "full state",
              body.size(), header, crypto::kSignatureBytes, 28, total);
  const double envelope =
      static_cast<double>(header + crypto::kSignatureBytes + 28);
  std::printf("  security+transport envelope: %.0f B fixed per message, "
              "%.0f%% of the datagram (paper: ~100-bit signature on ~700-bit "
              "updates)\n",
              envelope, 100.0 * envelope / static_cast<double>(total));
  std::printf("\n-> the signed envelope dominates the wire, so shrinking the "
              "payload further (delta coding) saves little end to end — a "
              "real cost of per-message authentication that unsecured "
              "Quake-style networking does not pay.\n");
  return 0;
}
