// Seed-corpus generator: writes one well-formed input per wire format into
// fuzz/corpus/<harness>/, so the fuzzers start from valid encodings instead
// of having to discover the framing by chance. Deterministic — re-running
// reproduces the committed corpus bit-for-bit.
//
//   ./gen_corpus <corpus-root>

#include <climits>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/handoff.hpp"
#include "core/messages.hpp"
#include "game/map.hpp"
#include "game/trace.hpp"
#include "interest/delta.hpp"
#include "obs/recorder.hpp"
#include "util/bytes.hpp"

using namespace watchmen;

namespace {

void put(const std::filesystem::path& dir, const std::string& name,
         const std::vector<std::uint8_t>& bytes) {
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::printf("%s/%s: %zu bytes\n", dir.c_str(), name.c_str(), bytes.size());
}

game::AvatarState sample_state() {
  game::AvatarState s;
  s.pos = {123.5, -40.25, 8.0};
  s.vel = {2.0, -1.5, 0.0};
  s.yaw = 1.25;
  s.pitch = -0.2;
  s.health = 75;
  s.armor = 30;
  s.weapon = game::WeaponKind::kRailgun;
  s.ammo = 12;
  s.frags = 3;
  return s;
}

interest::Guidance sample_guidance() {
  interest::Guidance g;
  g.frame = 900;
  g.pos = {64.0, 32.0, 8.0};
  g.vel = {1.0, 0.0, 0.0};
  g.yaw = 0.5;
  g.pitch = 0.0;
  g.health = 100;
  g.weapon = game::WeaponKind::kShotgun;
  g.waypoints = {{70.0, 32.0, 8.0}, {80.0, 40.0, 8.0}};
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path root = argc > 1 ? argv[1] : "fuzz/corpus";

  // --- fuzz_bytes: varint streams and mixed primitive payloads.
  {
    ByteWriter w;
    for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 20,
                            1ull << 40, ~0ull}) {
      w.varint(v);
    }
    put(root / "fuzz_bytes", "varints", w.take());
    ByteWriter w2;
    w2.u8(7);
    w2.u32(0xdeadbeef);
    w2.f64(3.14159);
    w2.str("watchmen");
    put(root / "fuzz_bytes", "primitives", w2.take());
  }

  // --- fuzz_messages: one sealed envelope per message type.
  {
    const crypto::KeyPair key = crypto::KeyPair::generate(7);
    const auto dir = root / "fuzz_messages";
    const auto sealed = [&](core::MsgType t, std::vector<std::uint8_t> body) {
      core::MsgHeader h;
      h.type = t;
      h.origin = 3;
      h.subject = 5;
      h.frame = 1200;
      h.seq = 42;
      return core::seal(h, body, key);
    };
    put(dir, "state_update",
        sealed(core::MsgType::kStateUpdate, core::encode_state_body(sample_state())));
    put(dir, "position",
        sealed(core::MsgType::kPositionUpdate,
               core::encode_position_body({10.0, 20.0, 30.0})));
    put(dir, "guidance",
        sealed(core::MsgType::kGuidance, core::encode_guidance_body(sample_guidance())));
    put(dir, "subscribe",
        sealed(core::MsgType::kSubscribe,
               core::encode_subscribe_body(interest::SetKind::kInterest)));
    core::KillClaim kc;
    kc.victim = 9;
    kc.weapon = game::WeaponKind::kRocketLauncher;
    kc.distance = 320.0;
    kc.victim_pos = {50.0, 60.0, 8.0};
    put(dir, "kill_claim", sealed(core::MsgType::kKillClaim, core::encode_kill_body(kc)));
    put(dir, "churn", sealed(core::MsgType::kChurnNotice, core::encode_churn_body(17)));
    core::AckBody ack;
    ack.acked_origin = 3;
    ack.acked_seq = 41;
    ack.acked_type = core::MsgType::kHandoff;
    put(dir, "ack", sealed(core::MsgType::kAck, core::encode_ack_body(ack)));
    put(dir, "rejoin",
        sealed(core::MsgType::kRejoinNotice, core::encode_rejoin_body(18)));
    put(dir, "heartbeat", sealed(core::MsgType::kHeartbeat, {}));
    put(dir, "subscriber_list",
        sealed(core::MsgType::kSubscriberList,
               core::encode_subscriber_list_body({1, 2, 5, 8, 13})));
    put(dir, "subscriber_diff",
        sealed(core::MsgType::kSubscriberList,
               core::encode_subscriber_list_diff_body({1, 2, 5, 8, 13},
                                                      {1, 2, 7, 8, 13, 21})));
  }

  // --- fuzz_peer: [type, sender, receiver, subject | flags] + body, one
  // well-formed body per typed message, over both legs (receiver 4 names the
  // sender's proxy; subject bit 7 relays through it, bit 6 hardens the wire).
  {
    const auto dir = root / "fuzz_peer";
    const auto input = [](core::MsgType t, std::uint8_t sender,
                          std::uint8_t receiver, std::uint8_t subject,
                          const std::vector<std::uint8_t>& body) {
      ByteWriter w;
      w.u8(static_cast<std::uint8_t>(t));
      w.u8(sender);
      w.u8(receiver);
      w.u8(subject);
      w.bytes(body);
      return w.take();
    };
    core::KillClaim kc;
    kc.victim = 2;
    kc.weapon = game::WeaponKind::kRocketLauncher;
    kc.distance = 320.0;
    kc.victim_pos = {50.0, 60.0, 8.0};
    put(dir, "state_direct",
        input(core::MsgType::kStateUpdate, 1, 4, 1,
              core::encode_state_body(sample_state())));
    put(dir, "guidance_direct",
        input(core::MsgType::kGuidance, 1, 4, 1,
              core::encode_guidance_body(sample_guidance())));
    put(dir, "position_forwarded",
        input(core::MsgType::kPositionUpdate, 1, 2, 0x81,
              core::encode_position_body({10.0, 20.0, 30.0})));
    put(dir, "kill_claim_direct",
        input(core::MsgType::kKillClaim, 1, 4, 2, core::encode_kill_body(kc)));
    put(dir, "kill_claim_forwarded",
        input(core::MsgType::kKillClaim, 1, 3, 0x82, core::encode_kill_body(kc)));
    put(dir, "subscribe_hardened",
        input(core::MsgType::kSubscribe, 1, 4, 0x43,
              core::encode_subscribe_body(interest::SetKind::kInterest)));
  }

  // --- fuzz_batch: MsgType::kBatch containers — empty, a pair of sealed
  // envelopes (the common per-link coalescing case), and a singleton.
  {
    const crypto::KeyPair key = crypto::KeyPair::generate(7);
    const auto dir = root / "fuzz_batch";
    const auto sealed = [&](core::MsgType t, std::vector<std::uint8_t> body) {
      core::MsgHeader h;
      h.type = t;
      h.origin = 3;
      h.subject = 5;
      h.frame = 1200;
      h.seq = 42;
      return core::seal(h, body, key);
    };
    put(dir, "empty", core::encode_batch({}));
    put(dir, "pair",
        core::encode_batch(
            {sealed(core::MsgType::kStateUpdate,
                    core::encode_state_body(sample_state())),
             sealed(core::MsgType::kPositionUpdate,
                    core::encode_position_body({10.0, 20.0, 30.0}))}));
    put(dir, "single",
        core::encode_batch({sealed(
            core::MsgType::kGuidance,
            core::encode_guidance_body(sample_guidance()))}));
  }

  // --- fuzz_handoff: with and without predecessor summary.
  {
    core::PlayerSummary s;
    s.player = 4;
    s.round = 12;
    s.has_state = true;
    s.last_state = sample_state();
    s.last_state_frame = 1190;
    s.updates_received = 57;
    s.suspicious_events = 1;
    s.has_guidance = true;
    s.guidance = sample_guidance();
    s.subscriptions = {{1, {interest::SetKind::kInterest, 1300}},
                       {6, {interest::SetKind::kVision, 1280}}};
    core::HandoffPayload h;
    h.summary = s;
    put(root / "fuzz_handoff", "single", core::encode_handoff_body(h));
    h.predecessor = s;
    h.predecessor->round = 11;
    put(root / "fuzz_handoff", "with_predecessor", core::encode_handoff_body(h));
    // A colluding predecessor's table: ids past a 256-player session and
    // expiry frames at both ends of the range.
    core::HandoffPayload hostile;
    hostile.summary.player = 4;
    hostile.summary.subscriptions = {
        {0xFFFFFFFFu, {interest::SetKind::kInterest, INT64_MAX}},
        {256, {interest::SetKind::kVision, INT64_MIN}},
        {3, {interest::SetKind::kInterest, INT64_MIN}},
        {255, {interest::SetKind::kVision, INT64_MAX}}};
    put(root / "fuzz_handoff", "hostile_ids",
        core::encode_handoff_body(hostile));
  }

  // --- fuzz_delta: a full state.
  put(root / "fuzz_delta", "full", interest::encode_full(sample_state()));

  // --- fuzz_trace: a tiny recorded session (3 players, 4 frames).
  {
    const game::GameMap map = game::make_test_arena();
    game::SessionConfig cfg;
    cfg.n_players = 3;
    cfg.n_humans = 3;
    cfg.n_frames = 4;
    cfg.seed = 99;
    put(root / "fuzz_trace", "tiny_session",
        game::record_session(map, cfg).serialize());
  }

  // --- fuzz_record: a tiny flight recording exercising every RosterCheat
  // (RosterCheat::kSpeedHack .. RosterCheat::kTimeCheat) and every
  // RecEventKind — scripted churn (RecEventKind::kDisconnect,
  // RecEventKind::kReconnect) plus recorded RecEventKind::kCheckpoint /
  // RecEventKind::kEnd digests from a real record_run.
  {
    const game::GameMap map = game::make_test_arena();
    game::SessionConfig cfg;
    cfg.n_players = 3;
    cfg.n_humans = 3;
    cfg.n_frames = 6;
    cfg.seed = 99;

    obs::Recording rec;
    rec.options.net = core::NetProfile::kFixed;
    rec.options.fixed_latency_ms = 10.0;
    rec.options.faults.latency_spikes.push_back({time_of(Frame{2}),
                                                 time_of(Frame{4}), 5.0});
    rec.trace = game::record_session(map, cfg);
    rec.checkpoint_period = 2;
    rec.cheats = {
        {obs::RosterCheat::kSpeedHack, 0, {1, 0.5, 4.0}},
        {obs::RosterCheat::kGuidanceLie, 1, {2, 0.5, 2.0}},
        {obs::RosterCheat::kFakeKill, 2, {3, 0.5}},
        {obs::RosterCheat::kSuppressCorrect, 0, {2, 1}},
        {obs::RosterCheat::kFastRate, 1, {1, 0, 6}},
        {obs::RosterCheat::kEscape, 2, {5}},
        {obs::RosterCheat::kTimeCheat, 0, {1, 0, 6}},
    };
    rec.events.push_back(
        {obs::RecEventKind::kDisconnect, Frame{2}, PlayerId{2}, {}});
    rec.events.push_back(
        {obs::RecEventKind::kReconnect, Frame{4}, PlayerId{2}, {}});
    obs::record_run(rec);
    put(root / "fuzz_record", "tiny_recording", rec.serialize());
  }

  // --- fuzz_crypto: operands at the Mersenne edges, and a two-block message
  // the size of a sealed state update.
  {
    ByteWriter w;
    for (std::uint64_t v : {(1ull << 61) - 1, ~0ull, (1ull << 61) - 2}) w.u64(v);
    put(root / "fuzz_crypto", "mersenne_edges", w.take());
    std::vector<std::uint8_t> update(128);
    for (std::size_t i = 0; i < update.size(); ++i) {
      update[i] = static_cast<std::uint8_t>(i * 131 + 1);
    }
    put(root / "fuzz_crypto", "two_blocks", update);
  }

  return 0;
}
