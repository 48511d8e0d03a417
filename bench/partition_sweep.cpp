// Emits BENCH_partition.json: what a network partition does to honest
// players' standing (ROADMAP "honest players survive partitions").
//
// Grid: players 0…k−1 are cut off from everyone else from frame 200, for
// k ∈ {2, 4, 8, 12} and a partition of 20, 40 or 60 frames, over session
// seeds 1–5, with misbehavior enforcement on and off, on two sets of game
// traces: one recorded per seed (the seed seeds trace and session), and
// the benches' standard trace (trace seed 42) for every session seed.
// Every run is a 48-player, 1,200-frame session of the hardened profile
// under King latency; nobody cheats, so every standing loss is a false
// positive.
// Reported per run: whether the session completed, honest players
// discouraged and banned at the end, forged-vantage reports, and
// convictions by penalty reason.
//
// Gate (exit 1): every run completes, and nobody is banned with enforcement
// on, on either trace set. Discouragement is reported, not gated: partition heals do not yet
// refund the silence they caused.
//
// Sessions run concurrently on a util::ThreadPool (at most one worker per
// hardware thread, each session single-threaded); results are written in
// grid order, so the report does not depend on the worker count.
//
// Usage: partition_sweep [output.json]   (default ./BENCH_partition.json)

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/session.hpp"
#include "game/map.hpp"
#include "game/trace.hpp"
#include "net/fault.hpp"
#include "util/thread_pool.hpp"

using namespace watchmen;
using namespace watchmen::core;

namespace {

constexpr std::size_t kPlayers = 48;
constexpr std::size_t kFrames = 1200;
constexpr Frame kPartitionBegin = 200;
constexpr std::array<std::size_t, 4> kGroupSizes{2, 4, 8, 12};
constexpr std::array<Frame, 3> kLengths{20, 40, 60};
constexpr std::uint64_t kSeeds = 5;
constexpr std::uint64_t kStandardTraceSeed = 42;

struct Run {
  std::uint64_t trace_seed = 0;
  std::uint64_t seed = 0;
  std::size_t group = 0;
  Frame length = 0;
  bool enforcement = false;
  bool completed = false;
  std::string error;  ///< what aborted the session, if it did
  std::size_t discouraged = 0;
  std::size_t banned = 0;
  std::uint64_t forged_vantage = 0;
  std::array<std::uint64_t, reputation::kNumPenaltyReasons> convictions{};
};

void run_one(const game::GameTrace& trace, const game::GameMap& map, Run& run) {
  SessionOptions opts;
  opts.seed = run.seed;
  opts.net = NetProfile::kKing;
  opts.watchmen.hardened = true;
  opts.misbehavior_enforcement = run.enforcement;
  opts.compute_threads = 1;
  net::PartitionWindow cut;
  cut.begin = time_of(kPartitionBegin);
  cut.end = time_of(kPartitionBegin + run.length);
  for (PlayerId p = 0; p < run.group; ++p) cut.group.push_back(p);
  opts.faults.partitions.push_back(cut);

  WatchmenSession session(trace, map, opts);
  try {
    session.run();
    run.completed = true;
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  const reputation::MisbehaviorEngine& engine = session.misbehavior();
  for (PlayerId p = 0; p < kPlayers; ++p) {
    switch (engine.standing(p)) {
      case reputation::Standing::kDiscouraged: ++run.discouraged; break;
      case reputation::Standing::kBanned: ++run.banned; break;
      case reputation::Standing::kGood: break;
    }
  }
  run.forged_vantage = engine.forged_vantage_reports();
  for (int r = 0; r < reputation::kNumPenaltyReasons; ++r) {
    run.convictions[static_cast<std::size_t>(r)] =
        engine.stats(static_cast<reputation::PenaltyReason>(r)).convictions;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_partition.json";
  const game::GameMap map = game::make_longest_yard();
  // traces[0] is the standard trace, traces[s] the one recorded for seed s.
  std::vector<game::GameTrace> traces;
  traces.push_back(bench::standard_trace(kPlayers, kFrames, kStandardTraceSeed));
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    traces.push_back(bench::standard_trace(kPlayers, kFrames, seed));
  }

  std::vector<Run> runs;
  for (const bool standard : {false, true}) {
    for (const bool enforcement : {true, false}) {
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        for (const std::size_t group : kGroupSizes) {
          for (const Frame length : kLengths) {
            Run r;
            r.trace_seed = standard ? kStandardTraceSeed : seed;
            r.seed = seed;
            r.group = group;
            r.length = length;
            r.enforcement = enforcement;
            runs.push_back(r);
          }
        }
      }
    }
  }

  util::ThreadPool pool(std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), runs.size()));
  pool.parallel_for(runs.size(), [&](std::size_t i) {
    const Run& r = runs[i];
    run_one(traces[r.trace_seed == kStandardTraceSeed ? 0 : r.seed], map,
            runs[i]);
  });

  bench::print_header("Partition sweep",
                      "honest standing after a healed partition");
  std::size_t aborted = 0, banned_enforced = 0;
  obs::JsonWriter j;
  j.begin_object();
  bench::report_header(j, "BM_PartitionSweep_48players", map.name(), kPlayers,
                       kFrames);
  j.kv("partition_begin_frame", static_cast<std::uint64_t>(kPartitionBegin));
  j.kv("profile", "hardened");
  j.kv("net", "king");
  j.key("runs");
  j.begin_array();
  for (const Run& r : runs) {
    if (!r.completed) ++aborted;
    if (r.enforcement) banned_enforced += r.banned;
    j.begin_object();
    j.kv("trace_seed", r.trace_seed);
    j.kv("seed", r.seed);
    j.kv("partitioned_players", r.group);
    j.kv("partition_frames", static_cast<std::uint64_t>(r.length));
    j.kv("enforcement", r.enforcement);
    j.kv("completed", r.completed);
    if (!r.completed) j.kv("error", r.error);
    j.kv("honest_discouraged", r.discouraged);
    j.kv("banned", r.banned);
    j.kv("forged_vantage_reports", r.forged_vantage);
    j.key("convictions");
    j.begin_object();
    for (int t = 0; t < reputation::kNumPenaltyReasons; ++t) {
      const std::uint64_t c = r.convictions[static_cast<std::size_t>(t)];
      if (c) j.kv(reputation::to_string(static_cast<reputation::PenaltyReason>(t)), c);
    }
    j.end_object();
    j.end_object();
    std::printf("trace=%2llu enf=%d seed=%llu k=%2zu len=%2lld  %s  "
                "discouraged %2zu  banned %2zu  forged-vantage %5llu\n",
                static_cast<unsigned long long>(r.trace_seed),
                r.enforcement ? 1 : 0, static_cast<unsigned long long>(r.seed),
                r.group, static_cast<long long>(r.length),
                r.completed ? "ok     " : "ABORTED", r.discouraged, r.banned,
                static_cast<unsigned long long>(r.forged_vantage));
  }
  j.end_array();
  const bool ok = aborted == 0 && banned_enforced == 0;
  j.key("acceptance");
  j.begin_object();
  j.kv("aborted_runs", aborted);
  j.kv("banned_with_enforcement", banned_enforced);
  j.kv("pass", ok);
  j.end_object();
  j.end_object();
  if (!bench::write_report(out_path, j.take(), "partition_sweep")) return 2;

  std::printf("acceptance: aborted runs %zu (== 0), banned with enforcement "
              "%zu (== 0) -> %s %s\n",
              aborted, banned_enforced, ok ? "pass" : "FAIL", out_path);
  return ok ? 0 : 1;
}
