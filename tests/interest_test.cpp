// Tests for src/interest: vision cone, attention, set partitioning,
// dead reckoning, subscriptions, delta coding.

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <map>

#include "game/map.hpp"
#include "game/trace.hpp"
#include "interest/attention.hpp"
#include "interest/deadreckoning.hpp"
#include "interest/delta.hpp"
#include "interest/sets.hpp"
#include "interest/subscription.hpp"
#include "interest/vision.hpp"
#include "util/rng.hpp"

namespace watchmen::interest {
namespace {

using game::AvatarState;
using game::GameMap;

AvatarState at(double x, double y, double yaw = 0.0) {
  AvatarState a;
  a.pos = {x, y, 0};
  a.yaw = yaw;
  return a;
}

// ---------------------------------------------------------------- Vision

TEST(Vision, InsideConeAhead) {
  const VisionConfig cfg;
  const AvatarState me = at(0, 0, 0.0);  // facing +x
  EXPECT_TRUE(in_vision_cone(me, {500, 0, 56}, cfg));
  EXPECT_TRUE(in_vision_cone(me, {500, 400, 56}, cfg));  // ~39° off-axis
}

TEST(Vision, BehindIsOutside) {
  const VisionConfig cfg;
  const AvatarState me = at(0, 0, 0.0);
  EXPECT_FALSE(in_vision_cone(me, {-500, 0, 56}, cfg));
}

TEST(Vision, BeyondRadiusIsOutside) {
  const VisionConfig cfg;
  const AvatarState me = at(0, 0, 0.0);
  EXPECT_FALSE(in_vision_cone(me, {cfg.radius + 100, 0, 56}, cfg));
}

TEST(Vision, AngleBoundary) {
  // Default cone is ±75° (±60° FOV plus rapid-spin slack, paper §III-A).
  const VisionConfig cfg;
  const AvatarState me = at(0, 0, 0.0);
  const double r = 500.0;
  // Slightly inside.
  EXPECT_TRUE(in_vision_cone(
      me, {r * std::cos(cfg.half_angle - 0.05), r * std::sin(cfg.half_angle - 0.05), 56}, cfg));
  // Slightly outside.
  EXPECT_FALSE(in_vision_cone(
      me, {r * std::cos(cfg.half_angle + 0.05), r * std::sin(cfg.half_angle + 0.05), 56}, cfg));
}

TEST(Vision, OcclusionRemovesFromVisionSet) {
  const GameMap map = game::make_test_arena();
  const VisionConfig cfg;
  AvatarState me = at(100, 500, 0.0);   // facing +x, pillar ahead
  AvatarState other = at(900, 500, 0.0);
  EXPECT_TRUE(in_vision_cone(me, other.eye(), cfg));
  EXPECT_FALSE(in_vision_set(me, other, map, cfg));  // wall in between

  AvatarState visible_one = at(900, 100, 0.0);
  me.yaw = std::atan2(100.0 - 500.0, 900.0 - 100.0);
  EXPECT_TRUE(in_vision_set(me, visible_one, map, cfg));
}

TEST(Vision, DeadTargetNotInVisionSet) {
  const GameMap map = game::make_test_arena();
  AvatarState me = at(100, 100, 0.0);
  AvatarState dead = at(400, 100, 0.0);
  dead.alive = false;
  EXPECT_FALSE(in_vision_set(me, dead, map, VisionConfig{}));
}

TEST(Vision, ConeDeviationZeroInside) {
  const VisionConfig cfg;
  const AvatarState me = at(0, 0, 0.0);
  EXPECT_DOUBLE_EQ(cone_deviation(me, {300, 0, 56}, cfg), 0.0);
}

TEST(Vision, ConeDeviationGrowsWithDistance) {
  const VisionConfig cfg;
  const AvatarState me = at(0, 0, 0.0);
  const double d1 = cone_deviation(me, {-200, 0, 56}, cfg);
  const double d2 = cone_deviation(me, {-800, 0, 56}, cfg);
  EXPECT_GT(d1, 0.0);
  EXPECT_GT(d2, d1);
}

// ---------------------------------------------------------------- Attention

TEST(Attention, CloserGetsMore) {
  const VisionConfig v;
  const AvatarState me = at(0, 0, 0.0);
  const double near = attention_score(me, at(100, 0), 0, -10000, v);
  const double far = attention_score(me, at(1000, 0), 0, -10000, v);
  EXPECT_GT(near, far);
}

TEST(Attention, AimedAtGetsMore) {
  const VisionConfig v;
  const AvatarState me = at(0, 0, 0.0);  // facing +x
  const double ahead = attention_score(me, at(500, 0), 0, -10000, v);
  const double offside = attention_score(me, at(0, 500), 0, -10000, v);
  EXPECT_GT(ahead, offside);
}

TEST(Attention, RecentInteractionBoosts) {
  const VisionConfig v;
  const AvatarState me = at(0, 0, 0.0);
  const double fresh = attention_score(me, at(500, 0), 100, 99, v);
  const double stale = attention_score(me, at(500, 0), 100, -10000, v);
  EXPECT_GT(fresh, stale);
}

TEST(Attention, RecencyDecays) {
  const VisionConfig v;
  const AvatarState me = at(0, 0, 0.0);
  const double recent = attention_score(me, at(500, 0), 100, 95, v);
  const double older = attention_score(me, at(500, 0), 100, 5, v);
  EXPECT_GT(recent, older);
}

// ---------------------------------------------------------------- Sets

TEST(Sets, TopKByAttentionFormsInterestSet) {
  const GameMap map("open", {0, 0, 0}, {4000, 4000, 200});
  InterestConfig cfg;
  cfg.is_size = 2;

  std::vector<AvatarState> avatars;
  avatars.push_back(at(0, 0, 0.0));      // self, facing +x
  avatars.push_back(at(100, 0));         // closest -> IS
  avatars.push_back(at(200, 0));         // second -> IS
  avatars.push_back(at(400, 100));       // visible -> VS
  avatars.push_back(at(-500, 0));        // behind -> other

  const PlayerSets sets = compute_sets(0, avatars, map, 0, nullptr, cfg);
  ASSERT_EQ(sets.interest.size(), 2u);
  EXPECT_EQ(sets.interest[0], 1u);
  EXPECT_EQ(sets.interest[1], 2u);
  EXPECT_EQ(sets.vision, std::vector<PlayerId>{3});
  EXPECT_EQ(sets.classify(4), SetKind::kOther);
  EXPECT_EQ(sets.classify(1), SetKind::kInterest);
  EXPECT_EQ(sets.classify(3), SetKind::kVision);
}

TEST(Sets, InterestRemovedFromVision) {
  // Paper: "Avatars in a player's interest set are automatically removed
  // from its vision set."
  const GameMap map("open", {0, 0, 0}, {4000, 4000, 200});
  InterestConfig cfg;
  cfg.is_size = 5;
  std::vector<AvatarState> avatars{at(0, 0, 0.0), at(100, 0), at(200, 0)};
  const PlayerSets sets = compute_sets(0, avatars, map, 0, nullptr, cfg);
  EXPECT_EQ(sets.interest.size(), 2u);
  EXPECT_TRUE(sets.vision.empty());
  for (PlayerId p : sets.interest) EXPECT_FALSE(sets.in_vision(p));
}

TEST(Sets, DeadObserverHasEmptySets) {
  const GameMap map("open", {0, 0, 0}, {4000, 4000, 200});
  std::vector<AvatarState> avatars{at(0, 0), at(100, 0)};
  avatars[0].alive = false;
  const PlayerSets sets = compute_sets(0, avatars, map, 0, nullptr, InterestConfig{});
  EXPECT_TRUE(sets.interest.empty());
  EXPECT_TRUE(sets.vision.empty());
}

TEST(Sets, ISNeverExceedsConfiguredSize) {
  const GameMap map("open", {0, 0, 0}, {4000, 4000, 200});
  InterestConfig cfg;  // default is_size = 5
  std::vector<AvatarState> avatars{at(0, 0, 0.0)};
  for (int i = 1; i <= 20; ++i) avatars.push_back(at(100.0 * i, 10.0 * i));
  const PlayerSets sets = compute_sets(0, avatars, map, 0, nullptr, cfg);
  EXPECT_EQ(sets.interest.size(), 5u);
}

TEST(Sets, RealTraceProducesReasonableSets) {
  const GameMap map = game::make_longest_yard();
  game::SessionConfig scfg;
  scfg.n_players = 16;
  scfg.n_frames = 400;
  const game::GameTrace trace = game::record_session(map, scfg);
  game::TraceReplayer rep(trace);
  rep.seek(300);

  InterestConfig cfg;
  std::size_t total_is = 0;
  for (PlayerId p = 0; p < 16; ++p) {
    const PlayerSets sets = compute_sets(
        p, rep.current().avatars, map, 300,
        [&](PlayerId a, PlayerId b) { return rep.last_interaction(a, b); }, cfg);
    EXPECT_LE(sets.interest.size(), cfg.is_size);
    total_is += sets.interest.size();
  }
  EXPECT_GT(total_is, 0u) << "nobody sees anybody after 15 s of deathmatch";
}

// ---------------------------------------------------------------- Dead reckoning

TEST(DeadReckoning, LinearPrediction) {
  AvatarState a;
  a.pos = {100, 100, 0};
  a.vel = {320, 0, 0};
  const Guidance g = make_guidance(a, 10, 0);  // no waypoints: pure linear
  // 20 frames (1 s) later the avatar should be 320 units further.
  const Vec3 p = dr_predict(g, 30);
  EXPECT_NEAR(p.x, 100 + 320, 1e-9);
  EXPECT_NEAR(p.y, 100, 1e-9);
}

TEST(DeadReckoning, PredictionAtOrBeforeSnapshotIsCurrent) {
  AvatarState a;
  a.pos = {5, 6, 0};
  a.vel = {100, 0, 0};
  const Guidance g = make_guidance(a, 10);
  EXPECT_EQ(dr_predict(g, 10), a.pos);
  EXPECT_EQ(dr_predict(g, 5), a.pos);
}

TEST(DeadReckoning, WaypointsInterpolated) {
  AvatarState a;
  a.pos = {0, 0, 0};
  a.vel = {160, 0, 0};
  const Guidance g = make_guidance(a, 0, 2);
  // Waypoint 1 is at frame 20 (1 s): 160 units.
  EXPECT_NEAR(dr_predict(g, 20).x, 160.0, 1e-9);
  // Halfway to waypoint 1.
  EXPECT_NEAR(dr_predict(g, 10).x, 80.0, 1e-9);
  // Beyond last waypoint: clamps to it.
  EXPECT_NEAR(dr_predict(g, 100).x, dr_predict(g, 40).x, 1e-9);
}

TEST(DeadReckoning, DeviationAreaZeroForPerfectPath) {
  AvatarState a;
  a.pos = {0, 0, 0};
  a.vel = {100, 0, 0};
  const Guidance g = make_guidance(a, 0, 0);
  std::vector<Vec3> actual;
  for (Frame f = 1; f <= 20; ++f) {
    actual.push_back({100.0 * 0.05 * static_cast<double>(f), 0, 0});
  }
  EXPECT_NEAR(trajectory_deviation_area(g, actual, 1), 0.0, 1e-9);
}

TEST(DeadReckoning, DeviationAreaGrowsWithDivergence) {
  AvatarState a;
  a.pos = {0, 0, 0};
  a.vel = {100, 0, 0};
  const Guidance g = make_guidance(a, 0, 0);
  std::vector<Vec3> small_dev, large_dev;
  for (Frame f = 1; f <= 20; ++f) {
    const double x = 100.0 * 0.05 * static_cast<double>(f);
    small_dev.push_back({x, 10, 0});
    large_dev.push_back({x, 200, 0});
  }
  EXPECT_LT(trajectory_deviation_area(g, small_dev, 1),
            trajectory_deviation_area(g, large_dev, 1));
}

TEST(DeadReckoning, DampedPredictorUndershootsLinear) {
  AvatarState a;
  a.pos = {0, 0, 0};
  a.vel = {320, 0, 0};
  const Guidance linear = make_guidance(a, 0, 2, 0.0);
  const Guidance damped = make_guidance(a, 0, 2, 2.0);
  // Both start from the same place...
  EXPECT_EQ(dr_predict(linear, 0), dr_predict(damped, 0));
  // ...but the damped prediction coasts shorter at every horizon.
  for (Frame f : {10, 20, 40}) {
    EXPECT_LT(dr_predict(damped, f).x, dr_predict(linear, f).x) << "f=" << f;
    EXPECT_GT(dr_predict(damped, f).x, 0.0);
  }
  // Damped displacement converges to v/lambda = 160 units.
  EXPECT_NEAR(dr_predict(damped, 40).x, 320.0 / 2.0, 15.0);
}

TEST(DeadReckoning, ZeroDampingIsExactlyLinear) {
  AvatarState a;
  a.pos = {10, 20, 0};
  a.vel = {100, -50, 0};
  const Guidance g = make_guidance(a, 0, 2, 0.0);
  EXPECT_NEAR(dr_predict(g, 20).x, 10 + 100 * 1.0, 1e-9);
  EXPECT_NEAR(dr_predict(g, 20).y, 20 - 50 * 1.0, 1e-9);
}

// ---------------------------------------------------------------- Subscriptions

TEST(Subscription, SubscribeAndQuery) {
  SubscriptionTable tab(16, 40);
  tab.subscribe(3, SetKind::kInterest, 100);
  tab.subscribe(4, SetKind::kVision, 100);
  EXPECT_EQ(tab.level_of(3, 100), SetKind::kInterest);
  EXPECT_EQ(tab.level_of(4, 110), SetKind::kVision);
  EXPECT_EQ(tab.level_of(9, 100), SetKind::kOther);
  EXPECT_EQ(tab.subscribers(SetKind::kInterest, 100), std::vector<PlayerId>{3});
}

TEST(Subscription, RetentionTimeout) {
  SubscriptionTable tab(16, 40);
  tab.subscribe(3, SetKind::kInterest, 100);
  EXPECT_EQ(tab.level_of(3, 140), SetKind::kInterest);  // still retained
  EXPECT_EQ(tab.level_of(3, 141), SetKind::kOther);     // timed out
}

TEST(Subscription, RefreshExtendsLifetime) {
  SubscriptionTable tab(16, 40);
  tab.subscribe(3, SetKind::kInterest, 100);
  tab.subscribe(3, SetKind::kInterest, 130);
  EXPECT_EQ(tab.level_of(3, 165), SetKind::kInterest);
}

TEST(Subscription, ExpirePurges) {
  SubscriptionTable tab(16, 40);
  tab.subscribe(1, SetKind::kInterest, 0);
  tab.subscribe(2, SetKind::kVision, 100);
  tab.expire(90);
  EXPECT_EQ(tab.size(), 1u);
}

TEST(Subscription, SnapshotAndInstallRoundTrip) {
  SubscriptionTable a(16, 40);
  a.subscribe(1, SetKind::kInterest, 100);
  a.subscribe(2, SetKind::kVision, 105);
  SubscriptionTable b(16, 40);
  b.install(a.snapshot(105));
  EXPECT_EQ(b.level_of(1, 110), SetKind::kInterest);
  EXPECT_EQ(b.level_of(2, 110), SetKind::kVision);
}

TEST(Subscription, UnsubscribeRemoves) {
  SubscriptionTable tab(16, 40);
  tab.subscribe(1, SetKind::kInterest, 100);
  tab.unsubscribe(1);
  EXPECT_EQ(tab.level_of(1, 100), SetKind::kOther);
}

TEST(Subscription, IdsOutsideTableAreIgnored) {
  SubscriptionTable tab(16, 40);
  tab.subscribe(16, SetKind::kInterest, 100);
  tab.install({{0xFFFFFFFFu, {SetKind::kInterest, 500}},
               {3, {SetKind::kVision, 500}}});
  EXPECT_EQ(tab.size(), 1u);
  EXPECT_EQ(tab.level_of(16, 100), SetKind::kOther);
  EXPECT_EQ(tab.level_of(0xFFFFFFFFu, 100), SetKind::kOther);
  EXPECT_EQ(tab.subscribers(SetKind::kInterest, 100), std::vector<PlayerId>{});
  tab.unsubscribe(0xFFFFFFFFu);
  EXPECT_EQ(tab.size(), 1u);
}

/// The hash-map table the dense one replaced, as a std::map (ordered, so
/// no sort), with the dense table's range contract: ids ≥ n are ignored.
struct SubscriptionModel {
  std::size_t n;
  Frame retention;
  std::map<PlayerId, Subscription> subs;

  void put(PlayerId who, Subscription sub) {
    if (who < n) subs[who] = sub;
  }
  std::vector<PlayerId> subscribers(SetKind kind, Frame now) const {
    std::vector<PlayerId> out;
    for (const auto& [who, sub] : subs) {
      if (sub.kind == kind && sub.expires >= now) out.push_back(who);
    }
    return out;
  }
  SetKind level_of(PlayerId who, Frame now) const {
    const auto it = subs.find(who);
    return it == subs.end() || it->second.expires < now ? SetKind::kOther
                                                        : it->second.kind;
  }
};

TEST(Subscription, MatchesMapModel) {
  constexpr std::size_t n = 24;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    SubscriptionTable tab(n, 40);
    SubscriptionModel model{n, 40, {}};
    Frame now = 0;
    const auto any_id = [&] {
      // Mostly in range; sometimes just past it, or the all-ones id.
      const std::uint64_t u = rng.below(20);
      if (u == 0) return static_cast<PlayerId>(0xFFFFFFFFu);
      if (u == 1) return static_cast<PlayerId>(n + rng.below(4));
      return static_cast<PlayerId>(rng.below(n));
    };
    const auto any_kind = [&] { return static_cast<SetKind>(rng.below(3)); };
    for (int step = 0; step < 4000; ++step) {
      now += rng.between(-2, 6);  // mostly forward, sometimes back
      switch (rng.below(8)) {
        case 0:
        case 1: {
          const PlayerId who = any_id();
          const SetKind kind = any_kind();
          tab.subscribe(who, kind, now);
          model.put(who, {kind, now + model.retention});
          break;
        }
        case 2: {
          const PlayerId who = any_id();
          tab.unsubscribe(who);
          model.subs.erase(who);
          break;
        }
        case 3:
          tab.expire(now);
          std::erase_if(model.subs,
                        [&](const auto& kv) { return kv.second.expires < now; });
          break;
        case 4: {
          std::vector<std::pair<PlayerId, Subscription>> entries;
          for (std::uint64_t k = rng.below(5); k > 0; --k) {
            const Frame expires =
                rng.chance(0.1) ? (rng.chance(0.5) ? INT64_MIN : INT64_MAX)
                                : now + rng.between(-50, 50);
            entries.push_back({any_id(), {any_kind(), expires}});
          }
          tab.install(entries);
          for (const auto& [who, sub] : entries) model.put(who, sub);
          break;
        }
        case 5: {
          const PlayerId who = any_id();
          ASSERT_EQ(tab.level_of(who, now), model.level_of(who, now));
          break;
        }
        case 6: {
          const SetKind kind = any_kind();
          ASSERT_EQ(tab.subscribers(kind, now), model.subscribers(kind, now));
          break;
        }
        default: {
          const auto snap = tab.snapshot(now);
          std::vector<std::pair<PlayerId, Subscription>> want;
          for (const auto& [who, sub] : model.subs) {
            if (sub.expires >= now) want.emplace_back(who, sub);
          }
          ASSERT_EQ(snap.size(), want.size());
          for (std::size_t i = 0; i < snap.size(); ++i) {
            ASSERT_EQ(snap[i].first, want[i].first);
            ASSERT_EQ(snap[i].second.kind, want[i].second.kind);
            ASSERT_EQ(snap[i].second.expires, want[i].second.expires);
          }
          break;
        }
      }
      ASSERT_EQ(tab.size(), model.subs.size()) << "step " << step;
    }
  }
}

// ---------------------------------------------------------------- Delta coding

TEST(Delta, DefaultStateEncodesAsMaskOnly) {
  EXPECT_EQ(encode_full(AvatarState{}).size(), 2u);  // just the mask
}

TEST(Delta, FullEncodingRoundTrip) {
  AvatarState a;
  a.pos = {1024, 512, 96};
  a.vel = {320, -100, 0};
  a.yaw = 1.5;
  a.pitch = -0.2;
  a.health = 42;
  a.armor = 17;
  a.weapon = game::WeaponKind::kRocketLauncher;
  a.ammo = 13;
  a.alive = true;
  a.has_quad = true;
  a.frags = 7;
  const AvatarState back = decode_full(encode_full(a));
  EXPECT_NEAR(back.pos.x, a.pos.x, 0.2);
  EXPECT_NEAR(back.yaw, a.yaw, 0.001);
  EXPECT_EQ(back.health, a.health);
  EXPECT_EQ(back.armor, a.armor);
  EXPECT_EQ(back.ammo, a.ammo);
  EXPECT_TRUE(back.has_quad);
  EXPECT_EQ(back.frags, 7);
}

TEST(Delta, PaperSizedUpdates) {
  // The paper quotes ~700-bit (~88-byte) average state updates; our varint
  // state payload is ~20-30 bytes and the full wire (header + signature +
  // UDP/IP) lands in the paper's range.
  AvatarState a;
  a.pos = {1024.125, 512.5, 96};
  a.vel = {320, -100, 12};
  a.yaw = 1.5;
  a.health = 92;
  a.armor = 50;
  a.ammo = 77;
  a.frags = 3;
  const auto full = encode_full(a);
  EXPECT_GE(full.size(), 15u);
  EXPECT_LE(full.size(), 60u);
  constexpr std::size_t kEnvelope = 21 /*header*/ + 16 /*sig*/ + 28 /*UDP*/;
  EXPECT_GE(full.size() + kEnvelope, 70u);
  EXPECT_LE(full.size() + kEnvelope, 110u);
}

}  // namespace
}  // namespace watchmen::interest
