// Micro-benchmarks (google-benchmark): the per-message and per-frame costs
// that determine whether Watchmen's security layer fits in a 50 ms frame
// budget — signing/verification, wire encode/decode, set computation,
// proxy-schedule evaluation, and network event throughput.

#include <benchmark/benchmark.h>

#include "core/messages.hpp"
#include "core/proxy_schedule.hpp"
#include "core/session.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sig.hpp"
#include "game/trace.hpp"
#include "interest/delta.hpp"
#include "interest/sets.hpp"
#include "interest/subscription.hpp"
#include "interest/visibility_cache.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"

using namespace watchmen;

namespace {

game::AvatarState sample_state() {
  game::AvatarState s;
  s.pos = {1024.125, 512.5, 96};
  s.vel = {320, -100, 12};
  s.yaw = 1.5;
  s.health = 92;
  s.armor = 50;
  s.ammo = 77;
  s.frags = 3;
  return s;
}

void BM_Sha256_88B(benchmark::State& state) {
  std::vector<std::uint8_t> msg(88, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(msg));
  }
}
BENCHMARK(BM_Sha256_88B);

// The portable compression, for comparison with the dispatched one above
// (SHA-NI where the CPU has it).
void BM_Sha256_88B_Scalar(benchmark::State& state) {
  std::vector<std::uint8_t> msg(88, 0x5a);
  for (auto _ : state) {
    crypto::Sha256 h(crypto::detail::sha256_compress_scalar);
    h.update(msg);
    benchmark::DoNotOptimize(h.finish());
  }
  const bool scalar_dispatched =
      crypto::detail::sha256_compress() == crypto::detail::sha256_compress_scalar;
  state.SetLabel(scalar_dispatched ? "dispatched: scalar" : "dispatched: sha-ni");
}
BENCHMARK(BM_Sha256_88B_Scalar);

void BM_Sign(benchmark::State& state) {
  const auto kp = crypto::KeyPair::generate(42);
  std::vector<std::uint8_t> msg(88, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sign(kp, msg));
  }
}
BENCHMARK(BM_Sign);

void BM_Verify(benchmark::State& state) {
  const auto kp = crypto::KeyPair::generate(42);
  std::vector<std::uint8_t> msg(88, 0x5a);
  const auto sig = crypto::sign(kp, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify(kp.public_key(), msg, sig));
  }
}
BENCHMARK(BM_Verify);

core::MsgHeader sample_header() {
  core::MsgHeader h;
  h.origin = 1;
  h.subject = 1;
  h.frame = 1234;
  return h;
}

void BM_Seal(benchmark::State& state) {
  const crypto::KeyRegistry keys(42, 4);
  const auto body = core::encode_state_body(sample_state());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::seal(sample_header(), body, keys.key_pair(1)));
  }
}
BENCHMARK(BM_Seal);

void BM_Open(benchmark::State& state) {
  const crypto::KeyRegistry keys(42, 4);
  const auto wire = core::seal(sample_header(),
                               core::encode_state_body(sample_state()),
                               keys.key_pair(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::open(wire, keys));
  }
}
BENCHMARK(BM_Open);

void BM_StateEncode(benchmark::State& state) {
  const auto s = sample_state();
  for (auto _ : state) {
    benchmark::DoNotOptimize(interest::encode_full(s));
  }
}
BENCHMARK(BM_StateEncode);

void BM_ComputeSets(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const game::GameMap map = game::make_longest_yard();
  game::SessionConfig cfg;
  cfg.n_players = n;
  cfg.n_frames = 60;
  const game::GameTrace trace = game::record_session(map, cfg);
  const auto& avatars = trace.frames.back().avatars;
  const interest::InterestConfig icfg;
  PlayerId who = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        interest::compute_sets(who, avatars, map, 59, nullptr, icfg));
    who = (who + 1) % n;
  }
}
BENCHMARK(BM_ComputeSets)->Arg(16)->Arg(48)->Arg(128);

// ---------------------------------------------------------------------------
// Interest-management hot path (see DESIGN.md "Performance architecture").
// BM_Visible_* isolate the occlusion raycast with and without the spatial
// index; BM_ComputeSets*_Nplayers measure the *full* per-frame set
// computation for all N players — the optimized variants use the production
// path (occluder index + frame-scoped visibility cache + shared eye table +
// reusable output buffers), the Baseline variants the pre-optimization one
// (compute_sets_reference + brute-force raycasts + per-call allocation).

/// Deterministic eye-height segment endpoints spread over the map.
std::vector<std::pair<Vec3, Vec3>> sample_segments(const game::GameMap& map,
                                                   std::size_t count) {
  Rng rng(12345);
  const Vec3 lo = map.bounds_min(), hi = map.bounds_max();
  std::vector<std::pair<Vec3, Vec3>> segs;
  segs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto pt = [&] {
      Vec3 p;
      p.x = lo.x + rng.uniform() * (hi.x - lo.x);
      p.y = lo.y + rng.uniform() * (hi.y - lo.y);
      p.z = map.ground_height(p.x, p.y) + 56.0;
      return p;
    };
    segs.emplace_back(pt(), pt());
  }
  return segs;
}

void BM_Visible_Brute(benchmark::State& state) {
  game::GameMap map = game::make_longest_yard();
  map.set_use_index(false);
  const auto segs = sample_segments(map, 512);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = segs[i++ & 511];
    benchmark::DoNotOptimize(map.visible(a, b));
  }
}
BENCHMARK(BM_Visible_Brute);

void BM_Visible_Indexed(benchmark::State& state) {
  game::GameMap map = game::make_longest_yard();
  const auto segs = sample_segments(map, 512);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = segs[i++ & 511];
    benchmark::DoNotOptimize(map.visible(a, b));
  }
}
BENCHMARK(BM_Visible_Indexed);

struct FrameBenchState {
  game::GameMap map;
  game::GameTrace trace;
  interest::InterestConfig icfg;
  std::vector<interest::PlayerSets> prev, cur;
  interest::VisibilityCache cache;
  interest::EyeTable eyes;
  std::size_t fi = 0;

  explicit FrameBenchState(std::size_t n) : map(game::make_longest_yard()) {
    game::SessionConfig cfg;
    cfg.n_players = n;
    cfg.n_frames = 120;
    trace = game::record_session(map, cfg);
    prev.resize(n);
    cur.resize(n);
  }

  std::size_t n() const { return prev.size(); }

  void frame_baseline() {
    const auto& av = trace.frames[fi].avatars;
    for (PlayerId p = 0; p < n(); ++p) {
      prev[p] = interest::compute_sets_reference(
          p, av, map, static_cast<Frame>(fi), nullptr, icfg, &prev[p]);
    }
    fi = (fi + 1) % trace.num_frames();
  }

  void frame_optimized() {
    const auto& av = trace.frames[fi].avatars;
    cache.begin_frame(n());
    eyes.build(av);
    for (PlayerId p = 0; p < n(); ++p) {
      interest::compute_sets_into(p, av, map, static_cast<Frame>(fi), nullptr,
                                  icfg, &prev[p], &cache, cur[p], &eyes);
    }
    std::swap(prev, cur);
    fi = (fi + 1) % trace.num_frames();
  }
};

void BM_ComputeSetsBaseline(benchmark::State& state) {
  FrameBenchState s(static_cast<std::size_t>(state.range(0)));
  s.map.set_use_index(false);
  for (auto _ : state) s.frame_baseline();
}
BENCHMARK(BM_ComputeSetsBaseline)
    ->Arg(48)->Arg(128)->Arg(256)->Unit(benchmark::kMicrosecond);

/// The headline numbers: BM_ComputeSets_{48,128,256}players, one full
/// N-player frame of the optimized interest pipeline.
void BM_ComputeSets_Nplayers(benchmark::State& state) {
  FrameBenchState s(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) s.frame_optimized();
}
BENCHMARK(BM_ComputeSets_Nplayers)
    ->Name("BM_ComputeSets_48players")->Arg(48)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ComputeSets_Nplayers)
    ->Name("BM_ComputeSets_128players")->Arg(128)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ComputeSets_Nplayers)
    ->Name("BM_ComputeSets_256players")->Arg(256)->Unit(benchmark::kMicrosecond);

/// Whole session frame (interest sets + message production + simulated
/// network + verification) — how the interest-path win lands in the frame
/// budget end to end.
void BM_SessionFrame_48players(benchmark::State& state) {
  const game::GameMap map = game::make_longest_yard();
  game::SessionConfig cfg;
  cfg.n_players = 48;
  cfg.n_frames = 300;
  const game::GameTrace trace = game::record_session(map, cfg);
  core::SessionOptions opts;
  auto session = std::make_unique<core::WatchmenSession>(trace, map, opts);
  for (auto _ : state) {
    if (static_cast<std::size_t>(session->current_frame()) >=
        trace.num_frames()) {
      state.PauseTiming();
      session = std::make_unique<core::WatchmenSession>(trace, map, opts);
      state.ResumeTiming();
    }
    session->run_frames(1);
  }
}
BENCHMARK(BM_SessionFrame_48players)->Unit(benchmark::kMicrosecond);

// The delivery checks' pattern: each forwarded message re-derives its
// origin's proxy at rounds r−1, r and r+1, all memo hits once warm.
void BM_ProxyOf_Hit(benchmark::State& state) {
  constexpr PlayerId n = 256;
  const core::ProxySchedule sched(42, n);
  const std::int64_t round = 10;
  std::uint32_t i = 0;
  for (auto _ : state) {
    const PlayerId p = (i / 3) % n;
    const std::int64_t r = round - 1 + static_cast<std::int64_t>(i % 3);
    benchmark::DoNotOptimize(sched.proxy_of(p, r));
    ++i;
  }
}
BENCHMARK(BM_ProxyOf_Hit);

// A fresh round per query: the weighted draw itself, O(log n), plus the
// memo row it clears.
void BM_ProxyOf_Miss(benchmark::State& state) {
  const core::ProxySchedule sched(42, static_cast<std::size_t>(state.range(0)));
  std::int64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.proxy_of(7, round++));
  }
}
BENCHMARK(BM_ProxyOf_Miss)->Arg(48)->Arg(256);

// The shape of a peer's round-start adoption loop: a fresh round's n
// proxy_of calls, every one a miss. Time is per round.
void BM_ProxyOf_Round(benchmark::State& state) {
  const auto n = static_cast<PlayerId>(state.range(0));
  const core::ProxySchedule sched(42, n);
  std::int64_t round = 0;
  for (auto _ : state) {
    for (PlayerId p = 0; p < n; ++p) {
      benchmark::DoNotOptimize(sched.proxy_of(p, round));
    }
    ++round;
  }
}
BENCHMARK(BM_ProxyOf_Round)->Arg(256);

// A proxy's per-update subscriber list from a full 256-player table, a
// quarter of it at interest level.
void BM_Subscribers(benchmark::State& state) {
  constexpr PlayerId n = 256;
  interest::SubscriptionTable tab(n);
  for (PlayerId p = 0; p < n; ++p) {
    tab.subscribe(p,
                  p % 4 == 0 ? interest::SetKind::kInterest
                             : interest::SetKind::kVision,
                  100);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tab.subscribers(interest::SetKind::kInterest, 120));
  }
}
BENCHMARK(BM_Subscribers);

void BM_NetworkSendDeliver(benchmark::State& state) {
  net::TransportConfig tc;
  tc.n_nodes = 16;
  tc.latency = std::make_unique<net::FixedLatency>(1.0);
  tc.seed = 1;
  const auto net = net::make_transport(std::move(tc));
  std::uint64_t delivered = 0;
  for (PlayerId p = 0; p < 16; ++p) {
    net->set_handler(p, [&](const net::Envelope&) { ++delivered; });
  }
  auto payload = std::make_shared<const std::vector<std::uint8_t>>(88, 0x5a);
  TimeMs t = 0;
  for (auto _ : state) {
    net->send(0, 1, payload);
    net->run_until(++t + 2);
  }
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_NetworkSendDeliver);

void BM_WorldStep48(benchmark::State& state) {
  const game::GameMap map = game::make_longest_yard();
  game::GameWorld world(map, 48, 42);
  auto roster = game::make_roster(map, 48, 48, 42);
  std::vector<game::PlayerInput> in(48);
  for (auto _ : state) {
    for (PlayerId p = 0; p < 48; ++p) in[p] = roster[p]->decide(p, world);
    benchmark::DoNotOptimize(world.step(in));
  }
}
BENCHMARK(BM_WorldStep48);

}  // namespace

BENCHMARK_MAIN();
