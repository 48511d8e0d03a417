#include "core/proxy_schedule.hpp"

#include <algorithm>
#include <stdexcept>

namespace watchmen::core {

ProxySchedule::ProxySchedule(std::uint64_t session_seed, std::size_t n_players,
                             Frame renewal_frames)
    : seed_(session_seed), n_(n_players), renewal_(renewal_frames),
      weights_(n_players, 1.0) {
  if (n_players < 2) throw std::invalid_argument("need at least 2 players");
  if (renewal_frames <= 0) throw std::invalid_argument("renewal must be positive");
}

void ProxySchedule::invalidate() {
  // Entries are cleared too, not just the round tags: a stale entry could
  // otherwise be served to a round that happens to equal an old tag.
  std::fill(memo_.begin(), memo_.end(), kInvalidPlayer);
}

PlayerId ProxySchedule::proxy_of(PlayerId player, std::int64_t round) const {
  // Ids outside the session (hostile wire input) are answered by the draw;
  // they have no memo row.
  if (player >= n_) return draw(player, round);
  // Allocated on first use, so building (and copying) a schedule stays as
  // cheap as before: a session makes one copy per peer.
  if (memo_.empty()) memo_.assign(kMemoSlots * n_, kInvalidPlayer);
  const std::size_t slot =
      static_cast<std::size_t>(static_cast<std::uint64_t>(round) % kMemoSlots);
  PlayerId* row = memo_.data() + slot * n_;
  if (memo_round_[slot] != round) {
    std::fill(row, row + n_, kInvalidPlayer);
    memo_round_[slot] = round;
  }
  if (row[player] == kInvalidPlayer) row[player] = draw(player, round);
  return row[player];
}

PlayerId ProxySchedule::draw(PlayerId player, std::int64_t round) const {
  // Deterministic weighted draw over the pool, excluding the player itself.
  // Each (player, round, attempt) triple hashes to a fresh uniform value —
  // the "per-player PRNG initialized with the player's id and a common
  // seed" of §III-B, in counter mode so any round is O(pool) to evaluate
  // without replaying earlier rounds.
  double total = 0.0;
  for (PlayerId q = 0; q < n_; ++q) {
    if (q != player) total += weights_[q];
  }
  if (total <= 0.0) throw std::logic_error("proxy pool is empty");

  for (std::uint64_t attempt = 0;; ++attempt) {
    const std::uint64_t h =
        mix64(seed_ ^ mix64(0x70726f78ULL + player) ^
              mix64(static_cast<std::uint64_t>(round)) ^ mix64(attempt));
    double pick = (static_cast<double>(h >> 11) * 0x1.0p-53) * total;
    for (PlayerId q = 0; q < n_; ++q) {
      if (q == player || weights_[q] <= 0.0) continue;
      pick -= weights_[q];
      if (pick <= 0.0) return q;
    }
    // Floating-point edge: fall through and redraw.
  }
}

std::vector<PlayerId> ProxySchedule::proxied_by(PlayerId proxy,
                                                std::int64_t round) const {
  std::vector<PlayerId> out;
  for (PlayerId p = 0; p < n_; ++p) {
    if (p != proxy && proxy_of(p, round) == proxy) out.push_back(p);
  }
  return out;
}

void ProxySchedule::remove_from_pool(PlayerId player) {
  weights_.at(player) = 0.0;
  invalidate();
}

void ProxySchedule::restore_to_pool(PlayerId player) {
  if (weights_.at(player) <= 0.0) weights_.at(player) = 1.0;
  invalidate();
}

void ProxySchedule::set_weight(PlayerId player, double weight) {
  if (weight < 0.0) throw std::invalid_argument("negative weight");
  weights_.at(player) = weight;
  invalidate();
}

}  // namespace watchmen::core
