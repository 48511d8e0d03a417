// Quickstart: record a small deathmatch, replay it through the full
// Watchmen protocol stack over a simulated Internet, and inspect what
// happened — the minimal end-to-end use of the library.

#include <cstdio>

#include "core/session.hpp"
#include "game/map.hpp"
#include "game/trace.hpp"

using namespace watchmen;

int main() {
  // 1. A game world: the q3dm17-style arena all experiments use.
  const game::GameMap map = game::make_longest_yard();

  // 2. Record a deterministic 8-player session (30 s at 20 frames/s).
  game::SessionConfig game_cfg;
  game_cfg.n_players = 8;
  game_cfg.n_frames = 600;
  game_cfg.seed = 7;
  const game::GameTrace trace = game::record_session(map, game_cfg);

  std::size_t kills = 0, shots = 0;
  for (const auto& f : trace.frames) {
    kills += f.events.kills.size();
    shots += f.events.shots.size();
  }
  std::printf("recorded %zu frames, %zu shots, %zu kills\n",
              trace.num_frames(), shots, kills);

  // 3. Replay it through Watchmen: every player publishes through its
  //    verifiable random proxy, subscribes by interest, and verifies peers.
  core::SessionOptions opts;
  opts.net = core::NetProfile::kKing;  // simulated US Internet latencies
  opts.loss_rate = 0.01;
  core::WatchmenSession session(trace, map, opts);
  session.run();

  // 4. What did the protocol do?
  const auto& stats = session.network().stats();
  std::printf("network: %llu messages sent, %llu delivered, %llu lost\n",
              static_cast<unsigned long long>(stats.sent),
              static_cast<unsigned long long>(stats.delivered),
              static_cast<unsigned long long>(stats.dropped));

  const Samples ages = session.merged_update_ages();
  std::printf("update age: median %.0f frames, p99 %.0f frames "
              "(1 frame = 50 ms)\n",
              ages.quantile(0.5), ages.quantile(0.99));

  std::printf("who proxies whom right now:\n");
  for (PlayerId p = 0; p < trace.n_players; ++p) {
    std::printf("  player %u -> proxy %u\n", p,
                session.peer(p).schedule().proxy_at(
                    p, session.current_frame() - 1));
  }

  std::printf("verification reports on honest traffic: %zu "
              "(all low confidence: %s)\n",
              session.detector().total_reports(), [&] {
                for (PlayerId p = 0; p < trace.n_players; ++p) {
                  if (session.detector().flagged(p)) return "no";
                }
                return "yes";
              }());
  return 0;
}
