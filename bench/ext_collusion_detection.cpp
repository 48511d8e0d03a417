// Extension experiment: detection under collusion.
//
// The paper's headline claim is that cheating opportunities shrink "even in
// the presence of collusion" because proxies are random, verifiable and
// dynamic (§IV): a coalition cannot arrange to proxy its own members, so
// honest verifiers keep seeing the cheats. We make that quantitative:
// players 0..c-1 collude — player 0 speed-hacks while *every* coalition
// member suppresses its reports against fellow colluders — and we measure
// detection as the coalition grows.

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "cheat/cheats.hpp"
#include "core/session.hpp"

using namespace watchmen;

int main() {
  bench::print_header("Extension", "Detection with colluding verifiers suppressed");
  const game::GameMap map = game::make_longest_yard();
  const game::GameTrace trace = bench::standard_trace(32, 1200, 42);

  std::printf("%-10s %10s %12s %12s %14s\n", "coalition", "injected",
              "detected", "success", "honest-proxy");
  for (std::size_t c = 1; c <= 12; ++c) {
    cheat::SpeedHackCheat ch(7, 0.10, 6.0);
    std::unordered_map<PlayerId, core::Misbehavior*> mbs{{0, &ch}};
    core::SessionOptions opts;
    opts.net = core::NetProfile::kKing;
    opts.loss_rate = 0.01;
    core::WatchmenSession session(trace, map, opts, mbs);
    session.run();

    // Collusion: reports from coalition members about coalition members
    // never reach the reputation/lobby layer.
    std::vector<Frame> hc;
    for (const auto& r : session.detector().reports()) {
      if (r.suspect != 0 || r.verifier < c) continue;  // suppressed
      if (r.type == verify::CheckType::kPosition && r.weighted() >= 6.0) {
        hc.push_back(r.frame);
      }
    }
    std::sort(hc.begin(), hc.end());
    std::size_t detected = 0;
    for (Frame fc : ch.cheat_frames()) {
      const auto lo = std::lower_bound(hc.begin(), hc.end(), fc - 3);
      if (lo != hc.end() && *lo <= fc + 3) ++detected;
    }

    // How often the cheater had an honest (non-coalition) proxy.
    std::size_t honest_rounds = 0, rounds = 0;
    for (std::int64_t r = 0; r < 1200 / 40; ++r) {
      ++rounds;
      honest_rounds += session.peer(0).schedule().proxy_of(0, r) >= c;
    }

    std::printf("%-10zu %10zu %12zu %11.1f%% %13.0f%%\n", c,
                ch.cheat_frames().size(), detected,
                100.0 * static_cast<double>(detected) /
                    static_cast<double>(ch.cheat_frames().size()),
                100.0 * static_cast<double>(honest_rounds) /
                    static_cast<double>(rounds));
  }

  std::printf("\n-> even when a third of the game colludes to bury reports, "
              "the randomized dynamic proxies keep handing the cheater to "
              "honest verifiers most rounds, and IS witnesses cross-check "
              "position updates independently — detection degrades "
              "gracefully instead of collapsing.\n");
  return 0;
}
