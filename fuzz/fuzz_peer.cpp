// Fuzz target: WatchmenPeer's receive path — a message a player seals with
// its own, real key, carrying an arbitrary body. The signature holds, so
// every check behind it (proxy and witness verification, subscription
// routing, handoff, churn and rejoin handling) sees the bytes; a player
// controls them entirely.
//
// Input layout:
//   byte 0   message type (mod the number of types)
//   byte 1   sender: the origin whose key seals the message (mod n)
//   byte 2   receiver (mod n + 1; n names the sender's current proxy)
//   byte 3   subject (low 6 bits, mod n); bit 6 switches the hardened wire
//            on (reliable control); bit 7 relays the message through the
//            sender's proxy (the forwarded leg) instead of sending it
//            directly (the direct leg)
//   rest     message body
//
// Each input runs in a fresh 4-player session: a few frames of honest
// traffic, the delivery, a few frames more.
//
// Invariant checked: nothing escapes run_frames (an escaping exception
// terminates the harness).

#include <cstdint>
#include <span>

#include "core/session.hpp"
#include "game/map.hpp"
#include "game/trace.hpp"

using namespace watchmen;
using namespace watchmen::core;

namespace {

constexpr std::size_t kPlayers = 4;

const game::GameMap& arena() {
  static const game::GameMap map = game::make_test_arena();
  return map;
}

const game::GameTrace& trace() {
  static const game::GameTrace t = [] {
    game::SessionConfig cfg;
    cfg.n_players = kPlayers;
    cfg.n_humans = kPlayers;
    cfg.n_frames = 24;
    cfg.seed = 5;
    return game::record_session(arena(), cfg);
  }();
  return t;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 4) return 0;
  const std::span<const std::uint8_t> in(data, size);

  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  opts.compute_threads = 1;
  const bool hardened = (in[3] & 0x40) != 0;
  opts.watchmen.hardened = hardened;
  WatchmenSession session(trace(), arena(), opts);
  session.run_frames(12);

  const Frame f = session.current_frame();
  const PlayerId sender = in[1] % kPlayers;
  const PlayerId proxy = session.peer(0).schedule().proxy_at(sender, f);
  const PlayerId receiver =
      in[2] % (kPlayers + 1) == kPlayers ? proxy : in[2] % (kPlayers + 1);

  MsgHeader h;
  h.type = static_cast<MsgType>(in[0] % kNumMsgTypes);
  h.origin = sender;
  h.subject = (in[3] & 0x3f) % kPlayers;
  h.frame = f;
  h.seq = 1u << 24;  // past every seq the honest warm-up used
  const auto wire =
      seal(h, in.subspan(4), session.keys().key_pair(sender));
  const bool forwarded = (in[3] & 0x80) != 0;
  session.network().send(forwarded ? proxy : sender, receiver, wire);
  session.run_frames(6);
  return 0;
}
