// Fuzz-derived malformed-message regression tests: every core::messages
// body type (plus the sealed envelope, handoff summaries and trace files) is
// fed truncated, overlong and bit-flipped encodings. The decoders must
// reject with DecodeError (or nullopt at the envelope layer) — never crash,
// abort, or accept a tampered signature. This pins down in unit tests what
// the fuzz/ harnesses check statistically.

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <span>
#include <vector>

#include "core/handoff.hpp"
#include "core/messages.hpp"
#include "game/trace.hpp"
#include "interest/subscription.hpp"
#include "util/bytes.hpp"

namespace watchmen {
namespace {

using core::KillClaim;
using core::MsgHeader;
using core::MsgType;

game::AvatarState sample_state() {
  game::AvatarState s;
  s.pos = {123.5, -40.25, 8.0};
  s.vel = {2.0, -1.5, 0.25};
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

KillClaim sample_kill() {
  KillClaim k;
  k.victim = 9;
  k.weapon = game::WeaponKind::kRocketLauncher;
  k.distance = 320.0;
  k.victim_pos = {50.0, 60.0, 8.0};
  return k;
}

core::HandoffPayload sample_handoff() {
  core::PlayerSummary s;
  s.player = 4;
  s.round = 12;
  s.has_state = true;
  s.last_state = sample_state();
  s.last_state_frame = 1190;
  s.updates_received = 57;
  s.has_guidance = true;
  s.guidance = sample_guidance();
  s.subscriptions = {{1, {interest::SetKind::kInterest, 1300}},
                     {6, {interest::SetKind::kVision, 1280}}};
  core::HandoffPayload h;
  h.summary = s;
  h.predecessor = s;
  h.predecessor->round = 11;
  return h;
}

/// Asserts that every strict prefix of `bytes` makes `decode` throw
/// DecodeError — a truncated message must never decode to a value.
template <typename Decode>
void expect_all_prefixes_throw(const std::vector<std::uint8_t>& bytes,
                               Decode decode) {
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::span<const std::uint8_t> prefix(bytes.data(), len);
    EXPECT_THROW(decode(prefix), DecodeError) << "prefix length " << len;
  }
}

/// Asserts that flipping any single bit never escapes as anything but
/// DecodeError (decoding to some value is fine; crashing is not).
template <typename Decode>
void expect_bitflips_contained(const std::vector<std::uint8_t>& bytes,
                               Decode decode) {
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[i] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        decode(mutated);
      } catch (const DecodeError&) {
        // The defined rejection path.
      }
    }
  }
}

template <typename Decode>
void expect_hardened(const std::vector<std::uint8_t>& bytes, Decode decode) {
  decode(bytes);  // the untampered encoding must decode
  expect_all_prefixes_throw(bytes, decode);
  expect_bitflips_contained(bytes, decode);
}

TEST(DecodeHardening, StateBodyKeyframe) {
  expect_hardened(core::encode_state_body(sample_state()),
                  [](auto b) { return core::decode_state_body(b); });
}

TEST(DecodeHardening, PositionBody) {
  expect_hardened(core::encode_position_body({10.0, 20.0, 30.0}),
                  [](auto b) { return core::decode_position_body(b); });
}

TEST(DecodeHardening, GuidanceBody) {
  expect_hardened(core::encode_guidance_body(sample_guidance()),
                  [](auto b) { return core::decode_guidance_body(b); });
}

TEST(DecodeHardening, SubscribeBody) {
  expect_hardened(core::encode_subscribe_body(interest::SetKind::kInterest),
                  [](auto b) { return core::decode_subscribe_body(b); });
}

TEST(DecodeHardening, KillBody) {
  expect_hardened(core::encode_kill_body(sample_kill()),
                  [](auto b) { return core::decode_kill_body(b); });
}

TEST(DecodeHardening, ChurnBody) {
  expect_hardened(core::encode_churn_body(17),
                  [](auto b) { return core::decode_churn_body(b); });
}

TEST(DecodeHardening, SubscriberListBody) {
  expect_hardened(core::encode_subscriber_list_body({1, 2, 5, 8, 13}),
                  [](auto b) { return core::decode_subscriber_list_body(b, {}); });
}

TEST(DecodeHardening, HandoffBody) {
  expect_hardened(core::encode_handoff_body(sample_handoff()),
                  [](auto b) { return core::decode_handoff_body(b); });
}

// A colluding predecessor controls every byte of a handoff, including the
// subscriber ids and expiry frames it asks the successor to install. An id
// outside the session must be dropped (the dense table neither grows nor
// lists it), whatever its expiry.
TEST(DecodeHardening, HandoffHostileSubscriberIds) {
  for (const Frame expires : {INT64_MIN, INT64_MAX}) {
    core::HandoffPayload h;
    h.summary.player = 4;
    h.summary.subscriptions = {
        {0xFFFFFFFFu, {interest::SetKind::kInterest, expires}},
        {256, {interest::SetKind::kVision, expires}},
        {7, {interest::SetKind::kInterest, expires}}};
    const core::HandoffPayload got =
        core::decode_handoff_body(core::encode_handoff_body(h));
    ASSERT_EQ(got.summary.subscriptions.size(), 3u);
    EXPECT_EQ(got.summary.subscriptions[0].first, 0xFFFFFFFFu);
    EXPECT_EQ(got.summary.subscriptions[0].second.expires, expires);

    interest::SubscriptionTable tab(256, 40);
    tab.install(got.summary.subscriptions);
    EXPECT_EQ(tab.capacity(), 256u);  // sized at construction, never grown
    EXPECT_EQ(tab.size(), 1u);
    EXPECT_EQ(tab.level_of(0xFFFFFFFFu, 0), interest::SetKind::kOther);
    for (const Frame now : {Frame{0}, INT64_MIN, INT64_MAX}) {
      for (const auto kind : {interest::SetKind::kInterest,
                              interest::SetKind::kVision}) {
        for (const PlayerId who : tab.subscribers(kind, now)) {
          EXPECT_LT(who, 256u);
        }
      }
      for (const auto& [who, sub] : tab.snapshot(now)) EXPECT_LT(who, 256u);
    }
    // The in-range entry keeps the hostile expiry: it is the predecessor's
    // word, bounded by the table, not by time.
    EXPECT_EQ(tab.snapshot(INT64_MIN).size(), 1u);
    EXPECT_EQ(tab.snapshot(INT64_MAX).size(), expires == INT64_MAX ? 1u : 0u);

    // The decoder's maximum of hostile entries changes nothing either.
    core::HandoffPayload flood;
    flood.summary.subscriptions.assign(
        4096, {0xFFFFFFFFu, {interest::SetKind::kInterest, expires}});
    tab.install(core::decode_handoff_body(core::encode_handoff_body(flood))
                    .summary.subscriptions);
    EXPECT_EQ(tab.capacity(), 256u);
    EXPECT_EQ(tab.size(), 1u);
  }
}

TEST(DecodeHardening, TraceFile) {
  const game::GameMap map = game::make_test_arena();
  game::SessionConfig cfg;
  cfg.n_players = 2;
  cfg.n_humans = 2;
  cfg.n_frames = 2;
  cfg.seed = 5;
  const auto bytes = game::record_session(map, cfg).serialize();
  // Full prefix sweep over a trace is O(bytes^2) reads; keep the trace tiny.
  expect_hardened(bytes,
                  [](auto b) { return game::GameTrace::deserialize(b); });
}

// ------------------------------------------------------- trailing bytes
//
// A body ends where the signature starts, so a validly signed body with one
// byte past its last field must be refused, not read as if it ended early.

/// Seals `body` plus one trailing byte, opens it with a valid signature and
/// expects `decode` to refuse the opened body (the exact body decodes).
template <typename Decode>
void expect_trailing_byte_rejected(MsgType type,
                                   std::vector<std::uint8_t> body,
                                   Decode decode) {
  decode(body);
  const crypto::KeyRegistry keys(42, 4);
  MsgHeader h;
  h.type = type;
  h.origin = 1;
  h.subject = 2;
  h.frame = 77;
  h.seq = 3;
  body.push_back(0);
  const auto msg = core::open(core::seal(h, body, keys.key_pair(1)), keys);
  ASSERT_TRUE(msg.has_value());
  EXPECT_THROW(decode(msg->body), DecodeError);
}

TEST(DecodeHardening, StateBodyTrailingByteRejected) {
  expect_trailing_byte_rejected(
      MsgType::kStateUpdate, core::encode_state_body(sample_state()),
      [](auto b) { return core::decode_state_body(b); });
}

TEST(DecodeHardening, GuidanceBodyTrailingByteRejected) {
  expect_trailing_byte_rejected(
      MsgType::kGuidance, core::encode_guidance_body(sample_guidance()),
      [](auto b) { return core::decode_guidance_body(b); });
}

TEST(DecodeHardening, PositionBodyTrailingByteRejected) {
  expect_trailing_byte_rejected(
      MsgType::kPositionUpdate, core::encode_position_body({10.0, 20.0, 30.0}),
      [](auto b) { return core::decode_position_body(b); });
}

TEST(DecodeHardening, KillBodyTrailingByteRejected) {
  expect_trailing_byte_rejected(
      MsgType::kKillClaim, core::encode_kill_body(sample_kill()),
      [](auto b) { return core::decode_kill_body(b); });
}

TEST(DecodeHardening, SubscribeBodyTrailingByteRejected) {
  expect_trailing_byte_rejected(
      MsgType::kSubscribe,
      core::encode_subscribe_body(interest::SetKind::kVision),
      [](auto b) { return core::decode_subscribe_body(b); });
}

TEST(DecodeHardening, AckBodyTrailingByteRejected) {
  core::AckBody a;
  a.acked_origin = 3;
  a.acked_seq = 41;
  a.acked_type = MsgType::kHandoff;
  expect_trailing_byte_rejected(
      MsgType::kAck, core::encode_ack_body(a),
      [](auto b) { return core::decode_ack_body(b); });
}

TEST(DecodeHardening, ChurnBodyTrailingByteRejected) {
  expect_trailing_byte_rejected(
      MsgType::kChurnNotice, core::encode_churn_body(17),
      [](auto b) { return core::decode_churn_body(b); });
}

TEST(DecodeHardening, RejoinBodyTrailingByteRejected) {
  expect_trailing_byte_rejected(
      MsgType::kRejoinNotice, core::encode_rejoin_body(18),
      [](auto b) { return core::decode_rejoin_body(b); });
}

TEST(DecodeHardening, HandoffBodyTrailingByteRejected) {
  expect_trailing_byte_rejected(
      MsgType::kHandoff, core::encode_handoff_body(sample_handoff()),
      [](auto b) { return core::decode_handoff_body(b); });
}

// ------------------------------------------------------- envelope layer

TEST(DecodeHardening, SealedEnvelopeTruncationYieldsNullopt) {
  const crypto::KeyRegistry keys(42, 4);
  MsgHeader h;
  h.type = MsgType::kKillClaim;
  h.origin = 1;
  h.subject = 2;
  h.frame = 77;
  h.seq = 3;
  const std::vector<std::uint8_t> body = {1, 2, 3, 4, 5};
  const auto wire = core::seal(h, body, keys.key_pair(1));

  ASSERT_TRUE(core::open(wire, keys).has_value());
  const std::size_t min_len = wire.size() - body.size();  // header + sig
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::span<const std::uint8_t> prefix(wire.data(), len);
    EXPECT_FALSE(core::open(prefix, keys).has_value()) << "prefix " << len;
    // The signature, not a length prefix, ends the body: a cut that leaves
    // the header and 16 more bytes parses, to a shorter body under the
    // wrong signature bytes, which only the verifying open() refuses.
    const auto parsed = core::open_unverified(prefix);
    ASSERT_EQ(parsed.has_value(), len >= min_len) << "prefix " << len;
    if (parsed) {
      EXPECT_EQ(parsed->body.size(), len - min_len);
    }
  }
}

TEST(DecodeHardening, SealedEnvelopeAnyBitflipRejected) {
  // The signature covers header and body, so EVERY single-bit flip anywhere
  // in the wire image must be rejected by the verifying open().
  const crypto::KeyRegistry keys(42, 4);
  MsgHeader h;
  h.type = MsgType::kStateUpdate;
  h.origin = 0;
  h.subject = 3;
  h.frame = 1200;
  h.seq = 9;
  const auto body = core::encode_state_body(sample_state());
  const auto wire = core::seal(h, body, keys.key_pair(0));

  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = wire;
      mutated[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(core::open(mutated, keys).has_value())
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(DecodeHardening, OutOfRangeEnumsRejected) {
  // Decoders must refuse to materialize enumerators outside the closed sets.
  {
    ByteWriter w;
    w.u8(200);  // not a SetKind
    EXPECT_THROW(core::decode_subscribe_body(w.data()), DecodeError);
  }
  {
    KillClaim k;
    k.victim = 1;
    auto bytes = core::encode_kill_body(k);
    bytes[4] = 17;  // weapon byte past kNumWeapons
    EXPECT_THROW(core::decode_kill_body(bytes), DecodeError);
  }
  {
    MsgHeader h;
    h.type = MsgType::kChurnNotice;
    h.origin = 0;
    const crypto::KeyRegistry keys(1, 1);
    auto wire = core::seal(h, core::encode_churn_body(4), keys.key_pair(0));
    wire[0] = 250;  // header type byte past kNumMsgTypes
    EXPECT_FALSE(core::open_unverified(wire).has_value());
  }
}

TEST(DecodeHardening, RetiredEncodingsRejected) {
  // The seed wire's header is gone from the encoder; its bytes must be
  // refused by the parser, never half-parsed.
  // Fixed-width 21-byte header: type byte without the 0x80 tag, validly
  // signed, so only the header layout can reject it.
  const crypto::KeyRegistry keys(42, 4);
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kStateUpdate));
  w.u32(1);     // origin
  w.u32(1);     // subject
  w.i64(1200);  // frame
  w.u32(9);     // seq
  w.bytes(core::encode_state_body(sample_state()));
  const auto sig = crypto::sign(keys.key_pair(1), w.data()).encode();
  w.bytes(sig);
  EXPECT_FALSE(core::open_unverified(w.data()).has_value());
  EXPECT_FALSE(core::open(w.data(), keys).has_value());
}

TEST(DecodeHardening, TraceEventPlayerIdsValidated) {
  const game::GameMap map = game::make_test_arena();
  game::SessionConfig cfg;
  cfg.n_players = 2;
  cfg.n_humans = 2;
  cfg.n_frames = 3;
  cfg.seed = 11;
  game::GameTrace t = game::record_session(map, cfg);
  // Splice a hit event with an out-of-roster shooter into the first frame:
  // before validation this became an out-of-bounds write in TraceReplayer.
  game::HitEvent evil;
  evil.shooter = 7;  // roster only has players 0 and 1
  evil.target = 0;
  evil.weapon = game::WeaponKind::kMachineGun;
  t.frames[0].events.hits.push_back(evil);
  const auto bytes = t.serialize();
  EXPECT_THROW(game::GameTrace::deserialize(bytes), DecodeError);
}

}  // namespace
}  // namespace watchmen
