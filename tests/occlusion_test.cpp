// Equivalence properties for the interest-path acceleration structures: the
// occluder index (flat, grid and oversized-fallback modes), the ground-height
// point query, the frame-scoped visibility cache, the thread pool, and the
// optimized compute_sets pipeline versus the straight-line reference — every
// fast path must be *bit-identical* to the code it replaced.

#include <gtest/gtest.h>

#include <vector>

#include "game/map.hpp"
#include "game/occluder_index.hpp"
#include "game/trace.hpp"
#include "interest/sets.hpp"
#include "interest/visibility_cache.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace watchmen {
namespace {

Vec3 random_point(Rng& rng, const Vec3& lo, const Vec3& hi) {
  return {rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y),
          rng.uniform(lo.z, hi.z)};
}

/// Segments a real session would raycast: between eye heights above ground.
std::pair<Vec3, Vec3> eye_segment(Rng& rng, const game::GameMap& map) {
  const Vec3 lo = map.bounds_min(), hi = map.bounds_max();
  const auto pt = [&] {
    Vec3 p{rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y), 0.0};
    p.z = map.ground_height(p.x, p.y) + 56.0;
    return p;
  };
  auto a = pt();
  auto b = pt();
  return {a, b};
}

std::vector<game::GameMap> shipped_maps() {
  std::vector<game::GameMap> maps;
  maps.push_back(game::make_longest_yard());
  maps.push_back(game::make_campgrounds());
  maps.push_back(game::make_test_arena());
  return maps;
}

TEST(OccluderIndex, MatchesBruteForceOnShippedMaps) {
  for (auto& map : shipped_maps()) {
    ASSERT_TRUE(map.use_index()) << map.name();
    Rng rng(2024);
    const Vec3 lo = map.bounds_min(), hi = map.bounds_max();
    std::size_t blocked = 0;
    for (int i = 0; i < 4000; ++i) {
      // Mix gameplay-like eye segments with fully random ones (which also
      // exercise segments through floors and above all geometry).
      const auto [a, b] = (i % 2 == 0)
                              ? eye_segment(rng, map)
                              : std::pair{random_point(rng, lo, hi),
                                          random_point(rng, lo, hi)};
      const bool fast = map.visible(a, b);
      const bool slow = map.visible_brute_force(a, b);
      ASSERT_EQ(fast, slow) << map.name() << " segment " << i;
      blocked += fast ? 0 : 1;
    }
    // The property is vacuous if the sample never crosses an occluder.
    EXPECT_GT(blocked, 0u) << map.name();
  }
}

/// A map dense enough to leave flat mode and exercise the grid walk.
game::GameMap dense_map(std::size_t n_boxes, std::uint64_t seed) {
  game::GameMap map("dense", {-2000, -2000, 0}, {2000, 2000, 800});
  Rng rng(seed);
  for (std::size_t i = 0; i < n_boxes; ++i) {
    const Vec3 c{rng.uniform(-1900, 1900), rng.uniform(-1900, 1900), 0.0};
    const double w = rng.uniform(20, 180), d = rng.uniform(20, 180);
    const double h = rng.uniform(40, 700);
    map.add_occluder({{c.x - w, c.y - d, 0.0}, {c.x + w, c.y + d, h}});
  }
  return map;
}

TEST(OccluderIndex, GridModeMatchesBruteForce) {
  const auto map = dense_map(160, 7);  // > kFlatModeMax -> grid cells in use
  ASSERT_GT(map.occluder_index().grid_nx(), 0);
  Rng rng(99);
  const Vec3 lo = map.bounds_min(), hi = map.bounds_max();
  std::size_t blocked = 0;
  for (int i = 0; i < 4000; ++i) {
    const Vec3 a = random_point(rng, lo, hi);
    const Vec3 b = random_point(rng, lo, hi);
    ASSERT_EQ(map.visible(a, b), map.visible_brute_force(a, b))
        << "segment " << i;
    blocked += map.visible(a, b) ? 0 : 1;
  }
  EXPECT_GT(blocked, 0u);
}

TEST(OccluderIndex, DegenerateAndBoundarySegments) {
  const auto map = dense_map(80, 11);
  Rng rng(5);
  const Vec3 lo = map.bounds_min(), hi = map.bounds_max();
  for (int i = 0; i < 500; ++i) {
    const Vec3 a = random_point(rng, lo, hi);
    // Zero-length, axis-aligned, and vertical segments hit the slab test's
    // parallel-axis branches.
    EXPECT_EQ(map.visible(a, a), map.visible_brute_force(a, a));
    Vec3 b = a;
    b.x = rng.uniform(lo.x, hi.x);
    EXPECT_EQ(map.visible(a, b), map.visible_brute_force(a, b));
    Vec3 c = a;
    c.z = rng.uniform(lo.z, hi.z);
    EXPECT_EQ(map.visible(a, c), map.visible_brute_force(a, c));
  }
}

TEST(OccluderIndex, OversizedBoxCountFallsBackCorrectly) {
  const auto map = dense_map(1100, 3);  // > kMaxBoxes -> index declines
  Rng rng(17);
  const Vec3 lo = map.bounds_min(), hi = map.bounds_max();
  for (int i = 0; i < 300; ++i) {
    const Vec3 a = random_point(rng, lo, hi);
    const Vec3 b = random_point(rng, lo, hi);
    ASSERT_EQ(map.visible(a, b), map.visible_brute_force(a, b));
  }
}

TEST(GroundHeight, MatchesDirectOccluderScan) {
  for (const bool dense : {false, true}) {
    const auto map = dense ? dense_map(160, 21) : game::make_longest_yard();
    Rng rng(31);
    const Vec3 lo = map.bounds_min(), hi = map.bounds_max();
    for (int i = 0; i < 2000; ++i) {
      const double x = rng.uniform(lo.x, hi.x);
      const double y = rng.uniform(lo.y, hi.y);
      double expected = lo.z;
      for (const auto& b : map.occluders()) {
        if (x >= b.min.x && x <= b.max.x && y >= b.min.y && y <= b.max.y) {
          expected = std::max(expected, b.max.z);
        }
      }
      EXPECT_EQ(map.ground_height(x, y), expected) << x << "," << y;
    }
  }
}

TEST(VisibilityCache, MatchesDirectRaycasts) {
  const auto map = game::make_campgrounds();
  game::SessionConfig cfg;
  cfg.n_players = 24;
  cfg.n_frames = 30;
  const auto trace = game::record_session(map, cfg);

  interest::VisibilityCache cache;
  for (std::size_t fi = 0; fi < trace.num_frames(); ++fi) {
    const auto& av = trace.frames[fi].avatars;
    cache.begin_frame(av.size());
    for (PlayerId a = 0; a < av.size(); ++a) {
      for (PlayerId b = 0; b < av.size(); ++b) {
        const bool direct =
            a == b || map.visible(av[a].eye(), av[b].eye());
        // Query both orders and twice, so hits, misses and the canonical
        // pair orientation are all exercised.
        ASSERT_EQ(cache.visible(map, a, av[a].eye(), b, av[b].eye()), direct);
        ASSERT_EQ(cache.visible(map, b, av[b].eye(), a, av[a].eye()), direct);
      }
    }
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    util::ThreadPool pool(threads);
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{513}}) {
      std::vector<int> hits(n, 0);
      pool.parallel_for(n, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i], 1) << "threads=" << threads << " n=" << n;
      }
    }
    // Reuse across many jobs (the session issues one job per frame).
    std::vector<std::size_t> out(100, 0);
    for (int round = 0; round < 50; ++round) {
      pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = i * i; });
    }
    for (std::size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i * i);
  }
}

TEST(ThreadPool, BackToBackJobsNeverRunTheFinishedOne) {
  // Tiny jobs issued back to back: a worker that picked up job k just as
  // its last index finished must be done with it before job k+1 starts,
  // or it claims k+1's indices and runs k's (by then destroyed) callable.
  util::ThreadPool pool(4);
  for (int job = 0; job < 20000; ++job) {
    std::vector<int> hits(3, 0);
    pool.parallel_for(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
    ASSERT_EQ(hits, std::vector<int>(3, 1)) << "job " << job;
  }
}

/// The optimized pipeline (occluder index + visibility cache + eye table +
/// SoA prefilter + buffer reuse) must reproduce the reference implementation
/// exactly, including hysteresis chains across frames.
TEST(ComputeSets, OptimizedPipelineMatchesReference) {
  // 48 players exercises the prefilter (enabled at >= 16), 8 the plain loop.
  for (const std::size_t n_players : {std::size_t{48}, std::size_t{8}}) {
    for (auto& map : shipped_maps()) {
      game::SessionConfig cfg;
      cfg.n_players = n_players;
      cfg.n_frames = 40;
      const auto trace = game::record_session(map, cfg);

      std::vector<interest::PlayerSets> prev(n_players), cur(n_players);
      std::vector<interest::PlayerSets> prev_ref(n_players);
      interest::VisibilityCache cache;
      interest::EyeTable eyes;
      for (std::size_t fi = 0; fi < trace.num_frames(); ++fi) {
        const auto& av = trace.frames[fi].avatars;
        cache.begin_frame(n_players);
        eyes.build(av);
        for (PlayerId p = 0; p < n_players; ++p) {
          interest::compute_sets_into(p, av, map, static_cast<Frame>(fi),
                                      nullptr, {}, &prev[p], &cache, cur[p],
                                      &eyes);
          map.set_use_index(false);
          const auto ref = interest::compute_sets_reference(
              p, av, map, static_cast<Frame>(fi), nullptr, {}, &prev_ref[p]);
          map.set_use_index(true);
          ASSERT_EQ(cur[p].interest, ref.interest)
              << map.name() << " n=" << n_players << " frame " << fi
              << " player " << p;
          ASSERT_EQ(cur[p].vision, ref.vision)
              << map.name() << " n=" << n_players << " frame " << fi
              << " player " << p;
          prev_ref[p] = ref;
        }
        std::swap(prev, cur);
      }
    }
  }
}

/// The sorted-by-id membership side index must agree with a linear scan.
TEST(PlayerSets, MembershipIndexMatchesLinearScan) {
  const auto map = game::make_longest_yard();
  game::SessionConfig cfg;
  cfg.n_players = 32;
  cfg.n_frames = 20;
  const auto trace = game::record_session(map, cfg);
  const auto& av = trace.frames.back().avatars;
  for (PlayerId p = 0; p < cfg.n_players; ++p) {
    const auto sets = interest::compute_sets(p, av, map, 19, nullptr, {});
    for (PlayerId q = 0; q < cfg.n_players; ++q) {
      bool linear = false;
      for (const PlayerId id : sets.interest) linear |= id == q;
      EXPECT_EQ(sets.in_interest(q), linear) << p << "->" << q;
    }
  }
}

}  // namespace
}  // namespace watchmen
