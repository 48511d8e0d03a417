#include "core/proxy_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace watchmen::core {

ProxySchedule::ProxySchedule(std::uint64_t session_seed, std::size_t n_players,
                             Frame renewal_frames)
    : seed_(session_seed), n_(n_players), renewal_(renewal_frames),
      weights_(n_players, 1.0) {
  if (n_players < 2) throw std::invalid_argument("need at least 2 players");
  if (renewal_frames <= 0) throw std::invalid_argument("renewal must be positive");
  invalidate();
}

void ProxySchedule::invalidate() {
  members_.clear();
  cum_.clear();
  rank_.resize(n_);
  double sum = 0.0;
  for (PlayerId q = 0; q < n_; ++q) {
    rank_[q] = static_cast<std::uint32_t>(members_.size());
    if (weights_[q] <= 0.0) continue;
    sum += weights_[q];
    members_.push_back(q);
    cum_.push_back(sum);
  }
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
  // Each (player, round) pair hashes to a fresh uniform value — the
  // "per-player PRNG initialized with the player's id and a common seed"
  // of §III-B, in counter mode so any round is evaluated without replaying
  // earlier ones. The trailing mix64(0) is the attempt counter of the scan
  // this search replaced; it stays so every hash, and so every proxy, is
  // unchanged.
  //
  // The keys are the running sums over the pool without `player`: cum_[i]
  // for members before it, cum_[i] − w for members after it, where w is
  // its own weight (0 when it is not a member). Subtracting w from a sum,
  // rather than adding it to the pick, keeps integer keys exact. The keys
  // on each side of the player are non-decreasing (across it, a fractional
  // w can round them out of order), so the two sides are searched apart;
  // the total is the last key, so the pick is always reached. With no
  // member after the player the search stays before it, so even weights
  // whose sum overflows (a NaN pick) land on a member.
  const std::size_t m = members_.size();
  const std::size_t split = player < n_ ? rank_[player] : m;
  const bool member = split < m && members_[split] == player;
  // Unreachable while the pool floor (authority::pool_keeps_floor) keeps
  // every pool at two members or more: an invariant, not a path.
  if (m - (member ? 1 : 0) == 0) throw std::logic_error("proxy pool is empty");
  const std::size_t after = member ? split + 1 : split;
  const double w = member ? weights_[player] : 0.0;
  const double total = after < m ? cum_[m - 1] - w : cum_[split - 1];

  const std::uint64_t h =
      mix64(seed_ ^ mix64(0x70726f78ULL + player) ^
            mix64(static_cast<std::uint64_t>(round)) ^ mix64(0));
  const double pick = (static_cast<double>(h >> 11) * 0x1.0p-53) * total;
  const auto first = cum_.begin();
  const auto it =
      split > 0 && (after == m || pick <= cum_[split - 1])
          ? std::lower_bound(first, first + split, pick)
          : std::partition_point(first + after, cum_.end(),
                                 [&](double c) { return c - w < pick; });
  return members_[it - first];
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
  if (!std::isfinite(weight) || weight < 0.0) {
    throw std::invalid_argument("weight must be finite and non-negative");
  }
  weights_.at(player) = weight;
  invalidate();
}

}  // namespace watchmen::core
