// Robustness: every decode path must reject malformed and adversarial
// bytes without crashing — malformed input is an *expected* condition in a
// P2P protocol where any peer can send anything.

#include <gtest/gtest.h>

#include "core/handoff.hpp"
#include "core/messages.hpp"
#include "game/trace.hpp"
#include "interest/delta.hpp"
#include "util/rng.hpp"

namespace watchmen {
namespace {

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

class FuzzDecode : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzDecode, OpenRejectsGarbageWires) {
  const crypto::KeyRegistry keys(1, 8);
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const auto bytes = random_bytes(rng, 256);
    // Must never throw and (overwhelmingly) never verify.
    const auto parsed = core::open(bytes, keys);
    if (parsed) {
      FAIL() << "random bytes passed signature verification";
    }
  }
}

TEST_P(FuzzDecode, OpenUnverifiedNeverThrows)
{
  Rng rng(GetParam() ^ 0x1111);
  for (int i = 0; i < 2000; ++i) {
    const auto bytes = random_bytes(rng, 256);
    EXPECT_NO_THROW({ auto r = core::open_unverified(bytes); (void)r; });
  }
}

TEST_P(FuzzDecode, TruncatedRealWiresRejected) {
  // Every prefix of a genuine signed message must be cleanly rejected.
  const crypto::KeyRegistry keys(1, 4);
  core::MsgHeader h;
  h.type = core::MsgType::kStateUpdate;
  h.origin = 1;
  h.subject = 1;
  h.frame = 77;
  game::AvatarState s;
  s.pos = {100, 200, 0};
  const auto wire = core::seal(h, core::encode_state_body(s), keys.key_pair(1));
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(core::open(std::span(wire).first(cut), keys).has_value())
        << "prefix length " << cut;
  }
  EXPECT_TRUE(core::open(wire, keys).has_value());
}

TEST_P(FuzzDecode, BitflippedRealWiresRejected) {
  const crypto::KeyRegistry keys(1, 4);
  Rng rng(GetParam() ^ 0x2222);
  core::MsgHeader h;
  h.type = core::MsgType::kGuidance;
  h.origin = 2;
  h.subject = 2;
  game::AvatarState s;
  const auto body =
      core::encode_guidance_body(interest::make_guidance(s, 10, 2));
  const auto wire = core::seal(h, body, keys.key_pair(2));
  for (int i = 0; i < 500; ++i) {
    auto flipped = wire;
    flipped[rng.below(flipped.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    EXPECT_FALSE(core::open(flipped, keys).has_value());
  }
}

TEST_P(FuzzDecode, BodyDecodersThrowCleanly) {
  // Body decoders run only after signature verification, so in production
  // their input is authentic — but defense in depth: garbage must raise
  // DecodeError (or construct harmlessly), never crash.
  Rng rng(GetParam() ^ 0x3333);
  for (int i = 0; i < 2000; ++i) {
    const auto bytes = random_bytes(rng, 128);
    try {
      (void)core::decode_guidance_body(bytes);
    } catch (const DecodeError&) {
    }
    try {
      (void)core::decode_state_body(bytes);
    } catch (const DecodeError&) {
    }
    try {
      (void)core::decode_kill_body(bytes);
    } catch (const DecodeError&) {
    }
    try {
      (void)core::decode_churn_body(bytes);
    } catch (const DecodeError&) {
    }
    try {
      (void)core::decode_handoff_body(bytes);
    } catch (const DecodeError&) {
    }
    try {
      (void)interest::decode_full(bytes);
    } catch (const DecodeError&) {
    }
  }
}

TEST_P(FuzzDecode, TraceDeserializeRejectsGarbage) {
  Rng rng(GetParam() ^ 0x4444);
  for (int i = 0; i < 200; ++i) {
    const auto bytes = random_bytes(rng, 512);
    try {
      (void)game::GameTrace::deserialize(bytes);
    } catch (const DecodeError&) {
      // The only acceptable failure mode: corrupted length prefixes must be
      // bounded before allocation, never produce std::bad_alloc.
    }
  }
}

TEST_P(FuzzDecode, CorruptedTraceBytesRejected) {
  // Flip bytes inside a real trace: must throw, not misparse silently into
  // out-of-range player ids (which downstream code indexes with).
  const game::GameMap map = game::make_test_arena();
  game::SessionConfig cfg;
  cfg.n_players = 4;
  cfg.n_frames = 20;
  auto bytes = game::record_session(map, cfg).serialize();
  Rng rng(GetParam() ^ 0x5555);
  for (int i = 0; i < 100; ++i) {
    auto corrupt = bytes;
    corrupt[rng.below(corrupt.size())] ^= 0xff;
    try {
      const auto t = game::GameTrace::deserialize(corrupt);
      // Parsed despite corruption: structure must still be self-consistent.
      for (const auto& f : t.frames) {
        EXPECT_EQ(f.avatars.size(), t.n_players);
      }
    } catch (const DecodeError&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecode, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace watchmen
