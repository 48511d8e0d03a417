// Hybrid architecture (paper §VI): when a trusted game server exists it
// can join as a super-proxy — the verifiable random schedule is simply
// weighted so the server serves (almost) every player. Tasks can later be
// delegated back to players as they prove trustworthy.
//
// This example runs the same trace twice — fully decentralized vs hybrid —
// and compares update latency and exposure of player traffic to other
// players.

#include <cstdio>

#include "core/session.hpp"
#include "game/map.hpp"
#include "game/trace.hpp"

using namespace watchmen;

namespace {

struct Outcome {
  double median_age = 0.0;
  double p99_age = 0.0;
  double player_proxy_share = 0.0;  ///< fraction of players proxied by peers
};

Outcome run(const game::GameTrace& trace, const game::GameMap& map,
            bool hybrid) {
  core::SessionOptions opts;
  opts.net = core::NetProfile::kKing;
  opts.loss_rate = 0.01;

  const PlayerId server = trace.n_players - 1;  // last "player" is the server
  if (hybrid) {
    // The server gets (nearly) all the proxy weight; player 0 keeps a tiny
    // weight so the server itself still has a proxy. A datacenter server
    // has plenty of uplink; players keep consumer rates.
    for (PlayerId p = 0; p < trace.n_players; ++p) {
      opts.pool_weights.emplace_back(p, p == server ? 1.0 : 0.0);
    }
    opts.pool_weights.emplace_back(0, 1e-6);
    opts.upload_bps.emplace_back(server, 1e9);
  }
  core::WatchmenSession session(trace, map, opts);
  session.run();

  Outcome out;
  const Samples ages = session.merged_update_ages();
  out.median_age = ages.quantile(0.5);
  out.p99_age = ages.quantile(0.99);

  std::size_t peer_proxied = 0;
  for (PlayerId p = 0; p < trace.n_players; ++p) {
    if (p != server &&
        session.peer(p).schedule().proxy_at(
            p, session.current_frame() - 1) != server) {
      ++peer_proxied;
    }
  }
  out.player_proxy_share =
      static_cast<double>(peer_proxied) / static_cast<double>(trace.n_players - 1);
  return out;
}

}  // namespace

int main() {
  const game::GameMap map = game::make_longest_yard();
  game::SessionConfig cfg;
  cfg.n_players = 24;  // 23 players + 1 server node
  cfg.n_frames = 600;
  cfg.seed = 5;
  const game::GameTrace trace = game::record_session(map, cfg);

  const Outcome p2p = run(trace, map, /*hybrid=*/false);
  const Outcome hybrid = run(trace, map, /*hybrid=*/true);

  std::printf("%-24s %18s %18s\n", "", "decentralized", "hybrid (server)");
  std::printf("%-24s %15.1f fr %15.1f fr\n", "median update age",
              p2p.median_age, hybrid.median_age);
  std::printf("%-24s %15.1f fr %15.1f fr\n", "p99 update age", p2p.p99_age,
              hybrid.p99_age);
  std::printf("%-24s %17.0f%% %17.0f%%\n", "players proxied by peers",
              100 * p2p.player_proxy_share, 100 * hybrid.player_proxy_share);
  std::printf("\nIn hybrid mode no player traffic is exposed to other "
              "players' proxies — the trusted server sees it instead — and "
              "the same verification machinery keeps running unchanged.\n");
  return 0;
}
