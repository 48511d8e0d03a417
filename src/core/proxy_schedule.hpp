#pragma once
// Random, verifiable, dynamic proxy assignment (paper §III-B, §IV).
//
// Every player derives every player's proxy for any round from the common
// session seed alone — no communication, no control over the outcome:
//  * random    — a cheater cannot choose whom it proxies or who proxies it;
//  * verifiable— everyone computes everyone's proxy, so messages sent to the
//                wrong proxy are immediately detectable;
//  * dynamic   — assignments are renewed every `renewal_frames` frames
//                (default 40 ≈ 2 s), bounding the damage and the collusion
//                window of a malicious proxy.
//
// The schedule also supports the paper's §VI refinements: removing players
// from the proxy pool (churn, bans, or low-bandwidth nodes) and weighting
// powerful nodes to serve more often.
//
// The draw. A player's proxy is the first pool member, in id order, whose
// running weight sum over the pool without the player reaches a seeded
// uniform fraction of that pool's total. The running sums are rebuilt on
// every pool or weight change, so a draw is one binary search: O(log n).
// While every weight is an integer (the default 1, removals, and every
// shipped config but hybrid_server's) every sum and difference is exact,
// so the answer equals that of subtracting the weights from the pick one
// member at a time, the O(n) scan that earlier versions ran and recorded
// sessions were made with. Fractional weights stay deterministic and
// proportional, but at floating-point edges may round differently from it.
//
// Memo contract. Every receiver re-derives the origin's proxy for each
// forwarded message, so `proxy_of` answers from a lazily filled table of
// kMemoSlots rounds × n players, slot = round mod kMemoSlots. A miss runs
// the weighted draw, which stays the only computation; any pool or weight
// change empties the table, so an answer never depends on what was cached.
// The table is mutable state behind const methods: a schedule instance
// belongs to one thread (each WatchmenPeer owns its copy, confined to the
// session's frame thread). Copying a schedule copies its table; the copies
// then evolve independently.

#include <array>
#include <cstdint>
#include <vector>

#include "core/authority.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace watchmen::core {

class ProxySchedule {
 public:
  static constexpr Frame kDefaultRenewalFrames = 40;  // "a couple of seconds"

  ProxySchedule(std::uint64_t session_seed, std::size_t n_players,
                Frame renewal_frames = kDefaultRenewalFrames);

  std::size_t num_players() const { return n_; }
  Frame renewal_frames() const { return renewal_; }

  /// Proxy round active at `frame`.
  std::int64_t round_of(Frame frame) const { return frame / renewal_; }

  /// First frame of a round.
  Frame round_start(std::int64_t round) const { return round * renewal_; }

  /// The proxy of `player` during `round`. Pure function of
  /// (seed, player, round, pool) — this is what makes it verifiable.
  /// O(1) on a memo hit (see the contract above).
  PlayerId proxy_of(PlayerId player, std::int64_t round) const;

  /// True when `node` is `player`'s proxy in round r−1, r or r+1
  /// (authority::near, the one-round tolerance of every delivery check).
  bool proxy_near(PlayerId node, PlayerId player, std::int64_t round) const {
    return authority::near(*this, node, player, round);
  }

  /// The schedule as the authority rules' `proxy_of(player, round)`
  /// callable (core/authority.hpp).
  PlayerId operator()(PlayerId player, std::int64_t round) const {
    return proxy_of(player, round);
  }

  /// Convenience: proxy at a given frame.
  PlayerId proxy_at(PlayerId player, Frame frame) const {
    return proxy_of(player, round_of(frame));
  }

  /// All players proxied by `proxy` during `round` (inverse mapping): n
  /// memo lookups.
  std::vector<PlayerId> proxied_by(PlayerId proxy, std::int64_t round) const;

  /// Removes a player from the proxy pool (left the game, banned, or too
  /// weak to serve). It keeps *having* a proxy; it just never *is* one.
  /// All honest nodes apply the same removals at the same round through the
  /// agreement protocol (§VI "Churn"), keeping the schedule consistent.
  void remove_from_pool(PlayerId player);

  /// Re-adds a player to the pool.
  void restore_to_pool(PlayerId player);

  /// Sets a relative serving weight (finite, ≥0; default 1). Heavier nodes
  /// are chosen proportionally more often (§VI "Upload capacity &
  /// Fairness").
  void set_weight(PlayerId player, double weight);

  bool in_pool(PlayerId player) const { return weights_.at(player) > 0.0; }

  /// Pool members (players with weight > 0).
  std::size_t pool_size() const { return members_.size(); }

 private:
  /// Rounds held at once: r−1, r and r+1 for the delivery checks, plus one
  /// spare so a look-ahead to r+2 does not evict r−1.
  static constexpr std::size_t kMemoSlots = 4;

  /// The deterministic weighted draw behind proxy_of (see "The draw"
  /// above): O(log n) per call.
  PlayerId draw(PlayerId player, std::int64_t round) const;
  /// Rebuilds the running sums and empties the memo; called by every pool
  /// or weight change.
  void invalidate();

  std::uint64_t seed_;
  std::size_t n_;
  Frame renewal_;
  std::vector<double> weights_;
  /// Pool members (weight > 0) in id order; cum_[i] = the summed weights
  /// of members_[0..i]; rank_[q] = the number of members with an id below q.
  std::vector<PlayerId> members_;
  std::vector<double> cum_;
  std::vector<std::uint32_t> rank_;
  /// Round each memo slot holds (meaningless while its entries are empty).
  mutable std::array<std::int64_t, kMemoSlots> memo_round_{};
  /// kMemoSlots × n_ proxies, kInvalidPlayer where not drawn yet; empty
  /// until the first query.
  mutable std::vector<PlayerId> memo_;
};

}  // namespace watchmen::core
