// Property-based tests: invariants that must hold across randomized inputs
// and parameter sweeps, spanning modules.

#include <gtest/gtest.h>

#include <cmath>

#include "core/proxy_schedule.hpp"
#include "core/messages.hpp"
#include "game/map.hpp"
#include "game/physics.hpp"
#include "game/trace.hpp"
#include "interest/delta.hpp"
#include "interest/sets.hpp"
#include "util/rng.hpp"

namespace watchmen {
namespace {

// ------------------------------------------------------------- physics

class PhysicsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PhysicsProperty, MovementAlwaysWithinLegalBounds) {
  // Whatever inputs a player feeds the engine, the resulting per-frame
  // motion must satisfy the verifier's legality bound — otherwise honest
  // play would trip the position check.
  const game::GameMap map = game::make_longest_yard();
  Rng rng(GetParam());
  game::AvatarState a;
  a.pos = {1024, 1024, 96};

  for (int step = 0; step < 400; ++step) {
    const Vec3 before = a.pos;
    game::PlayerInput in;
    const double ang = rng.uniform(0.0, 6.283);
    in.wish_dir = {std::cos(ang), std::sin(ang), 0};
    in.yaw = rng.uniform(-3.14, 3.14);
    in.pitch = rng.uniform(-1.4, 1.4);
    in.jump = rng.chance(0.2);
    game::step_movement(a, in, map);

    EXPECT_TRUE(game::legal_move(before, a.pos, 1))
        << "step " << step << ": " << before << " -> " << a.pos;
    EXPECT_TRUE(map.in_bounds(a.pos));
    EXPECT_GE(a.pos.z, map.ground_height(a.pos.x, a.pos.y) - 1e-6);
  }
}

TEST_P(PhysicsProperty, AngularSpeedAlwaysClamped) {
  const game::GameMap map = game::make_test_arena();
  Rng rng(GetParam() ^ 0xfeed);
  game::AvatarState a;
  a.pos = {500, 200, 0};
  const double max_turn = game::kDefaultPhysics.max_angular_speed *
                          game::kDefaultPhysics.dt + 1e-9;
  for (int step = 0; step < 200; ++step) {
    const double before = a.yaw;
    game::PlayerInput in;
    in.yaw = rng.uniform(-3.14, 3.14);
    game::step_movement(a, in, map);
    EXPECT_LE(std::fabs(wrap_angle(a.yaw - before)), max_turn);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhysicsProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------------------------- schedule

struct ScheduleParam {
  std::size_t n;
  Frame renewal;
};

class ScheduleProperty : public ::testing::TestWithParam<ScheduleParam> {};

TEST_P(ScheduleProperty, InvariantsHoldAcrossShapes) {
  const auto [n, renewal] = GetParam();
  core::ProxySchedule sched(97, n, renewal);

  // Remove a third of the pool; invariants must still hold.
  for (PlayerId p = 0; p < n / 3; ++p) sched.remove_from_pool(p);

  for (std::int64_t r = 0; r < 60; ++r) {
    for (PlayerId p = 0; p < n; ++p) {
      const PlayerId proxy = sched.proxy_of(p, r);
      EXPECT_NE(proxy, p) << "self-proxy";
      EXPECT_LT(proxy, n);
      EXPECT_TRUE(sched.in_pool(proxy)) << "removed node serving";
    }
  }
  // Frame <-> round mapping is consistent.
  for (Frame f : {Frame{0}, renewal - 1, renewal, 7 * renewal + 3}) {
    EXPECT_EQ(sched.round_of(f), f / renewal);
    EXPECT_LE(sched.round_start(sched.round_of(f)), f);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ScheduleProperty,
                         ::testing::Values(ScheduleParam{4, 10},
                                           ScheduleParam{8, 40},
                                           ScheduleParam{16, 40},
                                           ScheduleParam{48, 40},
                                           ScheduleParam{48, 200},
                                           ScheduleParam{128, 40}));

// ------------------------------------------------------------- delta codec

class DeltaProperty : public ::testing::TestWithParam<std::uint64_t> {};

namespace {
game::AvatarState random_state(Rng& rng) {
  game::AvatarState s;
  s.pos = {rng.uniform(0, 2048), rng.uniform(0, 2048), rng.uniform(0, 512)};
  s.vel = {rng.uniform(-320, 320), rng.uniform(-320, 320), rng.uniform(-1000, 270)};
  s.yaw = rng.uniform(-3.14, 3.14);
  s.pitch = rng.uniform(-1.4, 1.4);
  s.health = static_cast<std::int32_t>(rng.between(-10, 200));
  s.armor = static_cast<std::int32_t>(rng.between(0, 200));
  s.weapon = static_cast<game::WeaponKind>(rng.below(3));
  s.ammo = static_cast<std::int32_t>(rng.between(0, 200));
  s.alive = rng.chance(0.9);
  s.has_quad = rng.chance(0.1);
  s.frags = static_cast<std::int32_t>(rng.between(-5, 60));
  return s;
}

void expect_states_equal(const game::AvatarState& a, const game::AvatarState& b) {
  EXPECT_NEAR(a.pos.x, b.pos.x, 0.13);
  EXPECT_NEAR(a.pos.y, b.pos.y, 0.13);
  EXPECT_NEAR(a.pos.z, b.pos.z, 0.13);
  EXPECT_NEAR(a.vel.x, b.vel.x, 0.13);
  EXPECT_NEAR(a.yaw, b.yaw, 1e-3);
  EXPECT_NEAR(a.pitch, b.pitch, 1e-3);
  EXPECT_EQ(a.health, b.health);
  EXPECT_EQ(a.armor, b.armor);
  EXPECT_EQ(a.weapon, b.weapon);
  EXPECT_EQ(a.ammo, b.ammo);
  EXPECT_EQ(a.alive, b.alive);
  EXPECT_EQ(a.has_quad, b.has_quad);
  EXPECT_EQ(a.frags, b.frags);
}
}  // namespace

TEST_P(DeltaProperty, RandomStatesRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const auto cur = random_state(rng);
    expect_states_equal(cur, interest::decode_full(interest::encode_full(cur)));
  }
}

TEST_P(DeltaProperty, WireBodiesRoundTripThroughFraming) {
  Rng rng(GetParam() ^ 0xabcdef);
  for (int i = 0; i < 100; ++i) {
    const auto s = random_state(rng);
    expect_states_equal(s, core::decode_state_body(core::encode_state_body(s)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaProperty, ::testing::Values(11, 22, 33, 44));

// ------------------------------------------------------------- interest

class InterestProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InterestProperty, SetPartitionInvariants) {
  // For any observer in a real game frame: IS and VS are disjoint, never
  // contain the observer or the dead, and IS <= K.
  const std::size_t n = GetParam();
  const game::GameMap map = game::make_longest_yard();
  game::SessionConfig cfg;
  cfg.n_players = n;
  cfg.n_frames = 200;
  cfg.seed = 7;
  const game::GameTrace trace = game::record_session(map, cfg);
  const interest::InterestConfig icfg;

  for (std::size_t fi = 50; fi < 200; fi += 50) {
    const auto& avatars = trace.frames[fi].avatars;
    for (PlayerId p = 0; p < n; ++p) {
      const auto sets = interest::compute_sets(p, avatars, map,
                                               static_cast<Frame>(fi), nullptr,
                                               icfg);
      EXPECT_LE(sets.interest.size(), icfg.is_size);
      for (PlayerId q : sets.interest) {
        EXPECT_NE(q, p);
        EXPECT_TRUE(avatars[q].alive);
        EXPECT_FALSE(sets.in_vision(q)) << "IS member also in VS";
      }
      for (PlayerId q : sets.vision) {
        EXPECT_NE(q, p);
        EXPECT_TRUE(avatars[q].alive);
      }
    }
  }
}

TEST_P(InterestProperty, HysteresisNeverShrinksRetention) {
  // Retention with hysteresis must be at least as sticky as without.
  const std::size_t n = GetParam();
  const game::GameMap map = game::make_longest_yard();
  game::SessionConfig cfg;
  cfg.n_players = n;
  cfg.n_frames = 150;
  cfg.seed = 3;
  const game::GameTrace trace = game::record_session(map, cfg);

  auto retention = [&](double hysteresis) {
    interest::InterestConfig icfg;
    icfg.is_hysteresis = hysteresis;
    std::vector<interest::PlayerSets> prev(n);
    double kept = 0, total = 0;
    for (std::size_t fi = 0; fi < trace.num_frames(); ++fi) {
      for (PlayerId p = 0; p < n; ++p) {
        const auto sets = interest::compute_sets(
            p, trace.frames[fi].avatars, map, static_cast<Frame>(fi), nullptr,
            icfg, &prev[p]);
        for (PlayerId q : sets.interest) {
          if (fi > 0) {
            ++total;
            kept += prev[p].in_interest(q);
          }
        }
        prev[p] = sets;
      }
    }
    return total > 0 ? kept / total : 0.0;
  };
  EXPECT_GE(retention(2.0) + 0.02, retention(1.0));
}

INSTANTIATE_TEST_SUITE_P(PlayerCounts, InterestProperty,
                         ::testing::Values(8, 16, 32));

// ------------------------------------------------------------- vision sweep

struct VisionParam {
  double radius;
  double half_angle;
};

class VisionSweep : public ::testing::TestWithParam<VisionParam> {};

TEST_P(VisionSweep, BiggerConesContainSmaller) {
  // Monotonicity: any point inside a cone is inside every larger cone.
  const auto [radius, half_angle] = GetParam();
  interest::VisionConfig small;
  small.radius = radius;
  small.half_angle = half_angle;
  interest::VisionConfig big = small;
  big.radius *= 1.5;
  big.half_angle = std::min(3.1, big.half_angle * 1.5);

  Rng rng(static_cast<std::uint64_t>(radius * 7 + half_angle * 1000));
  game::AvatarState me;
  me.pos = {1000, 1000, 0};
  for (int i = 0; i < 500; ++i) {
    me.yaw = rng.uniform(-3.14, 3.14);
    const Vec3 target{rng.uniform(0, 2048), rng.uniform(0, 2048),
                      rng.uniform(0, 300)};
    if (interest::in_vision_cone(me, target, small)) {
      EXPECT_TRUE(interest::in_vision_cone(me, target, big));
      EXPECT_DOUBLE_EQ(interest::cone_deviation(me, target, small), 0.0);
    }
    // Zero deviation and cone membership coincide (both directions). Note
    // the deviation *magnitude* is not monotone in cone size — the angular
    // excess is scaled by the cone-sized arm — so only the zero set is a
    // sound invariant.
    EXPECT_EQ(interest::cone_deviation(me, target, small) == 0.0,
              interest::in_vision_cone(me, target, small));
    EXPECT_EQ(interest::cone_deviation(me, target, big) == 0.0,
              interest::in_vision_cone(me, target, big));
  }
}

INSTANTIATE_TEST_SUITE_P(Cones, VisionSweep,
                         ::testing::Values(VisionParam{800, 0.6},
                                           VisionParam{1600, 1.0},
                                           VisionParam{2200, 1.3}));

// ------------------------------------------------------------- crypto

class SignatureProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SignatureProperty, GroupArithmeticProperties) {
  // Fermat holds for random bases; mod_mul agrees with __int128 reference.
  Rng rng(GetParam() * 977);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = 1 + rng.below(crypto::kGroupP - 1);
    const std::uint64_t b = 1 + rng.below(crypto::kGroupP - 1);
    EXPECT_EQ(crypto::mod_pow(a, crypto::kGroupQ, crypto::kGroupP), 1u);
    const auto expect = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(a) * b % crypto::kGroupP);
    EXPECT_EQ(crypto::mod_mul(a, b, crypto::kGroupP), expect);
    // (a^x)^y == a^(x*y mod q)
    const std::uint64_t x = rng.below(1 << 20);
    const std::uint64_t y = rng.below(1 << 20);
    EXPECT_EQ(crypto::mod_pow(crypto::mod_pow(a, x, crypto::kGroupP), y,
                              crypto::kGroupP),
              crypto::mod_pow(a, x * y % crypto::kGroupQ, crypto::kGroupP));
  }
}

TEST_P(SignatureProperty, RandomMessagesSignAndVerify) {
  Rng rng(GetParam());
  const auto kp = crypto::KeyPair::generate(GetParam() * 31 + 7);
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> msg(rng.between(0, 200));
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
    const auto sig = crypto::sign(kp, msg);
    EXPECT_TRUE(crypto::verify(kp.public_key(), msg, sig));
    if (!msg.empty()) {
      auto tampered = msg;
      tampered[rng.below(tampered.size())] ^= static_cast<std::uint8_t>(
          1 + rng.below(255));
      EXPECT_FALSE(crypto::verify(kp.public_key(), tampered, sig));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignatureProperty,
                         ::testing::Values(101, 202, 303));

// ------------------------------------------------------------- map

class MapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapProperty, VisibilityIsSymmetric) {
  const game::GameMap map = game::make_longest_yard();
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const Vec3 a{rng.uniform(0, 2048), rng.uniform(0, 2048), rng.uniform(0, 300)};
    const Vec3 b{rng.uniform(0, 2048), rng.uniform(0, 2048), rng.uniform(0, 300)};
    EXPECT_EQ(map.visible(a, b), map.visible(b, a));
  }
}

TEST_P(MapProperty, GroundHeightConsistentWithOccluders) {
  const game::GameMap map = game::make_longest_yard();
  Rng rng(GetParam() ^ 0x9e37);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0, 2048);
    const double y = rng.uniform(0, 2048);
    const double h = map.ground_height(x, y);
    EXPECT_GE(h, 0.0);
    // Standing just above the ground must not be inside any occluder.
    const Vec3 above{x, y, h + 0.5};
    for (const auto& box : map.occluders()) {
      EXPECT_FALSE(box.contains(above))
          << "ground puts avatar inside occluder at (" << x << "," << y << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapProperty, ::testing::Values(5, 6, 7));

}  // namespace
}  // namespace watchmen
