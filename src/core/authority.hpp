#pragma once
// The proxy-authority rules (paper §II "proxy-based indirect communication",
// §VI "Churn"; DESIGN.md §5g): who may act as a player's proxy, and when.
//
// One copy, two callers. WatchmenPeer runs these rules against its seeded
// ProxySchedule; tools/wmcheck's transition model (core/protocol_model.cpp)
// runs the very same functions against its round-robin schedule, so the
// checker explores the shipped guards rather than a re-implementation.
// Everything here is pure: no I/O, metrics or crypto. The schedule comes in
// as a `proxy_of(player, round)` callable template parameter (inlined on the
// model's hot path); local observations ("silent here", "heard within a
// renewal period", the observer's pool size) come in as arguments. The four
// timing constants and the pool floor of core/protocol_params.hpp that
// shape these rules are read only here (wmlint `authority-rule`).

#include <cstddef>
#include <cstdint>

#include "core/protocol_params.hpp"

namespace watchmen::core::authority {

// ------------------------------------------------------- pool agreement

/// One observer's churn/rejoin agreement about one player (-1 = none).
/// `removal` stays set once it applied — the player is churn-removed —
/// until a restore clears the record.
template <class Round = std::int64_t>
struct PoolRecord {
  Round removal = -1;
  Round restore = -1;
  bool operator==(const PoolRecord&) const = default;
};

/// Effective round of a churn removal announced in `round`: one full round
/// of notice, so every peer applies the same pool at the same boundary.
inline std::int64_t removal_round(std::int64_t round) {
  return round + protocol::kChurnRemovalDelayRounds;
}

/// Effective round of a rejoin restore announced in `round`.
inline std::int64_t restore_round(std::int64_t round) {
  return round + protocol::kRejoinRestoreDelayRounds;
}

/// Merges a removal notice stamped `notice_round`. Refused when the player
/// is already out of this observer's pool or when `removal` would rewrite
/// the past (before notice_round + 1); racing notices resolve to the
/// earliest round.
template <class Round>
void merge_removal(PoolRecord<Round>& rec, bool in_pool,
                   std::int64_t notice_round, std::int64_t removal) {
  if (!in_pool || removal < notice_round + 1) return;
  if (rec.removal < 0 || removal < rec.removal) {
    rec.removal = static_cast<Round>(removal);
  }
}

/// Merges a restore notice stamped `notice_round`, by the same rules.
template <class Round>
void merge_restore(PoolRecord<Round>& rec, std::int64_t notice_round,
                   std::int64_t restore) {
  if (restore < notice_round + 1) return;
  if (rec.restore < 0 || restore < rec.restore) {
    rec.restore = static_cast<Round>(restore);
  }
}

/// The pool floor: an observer's pool of `members` keeps
/// protocol::kMinPoolMembers (wmcheck's I6). Every removal — churn, rejoin,
/// reputation — first asks it of the pool without the player. A refused
/// removal is held, never thrown: the caller keeps it pending and asks
/// again at the next boundary, by when a restore may have grown the pool.
inline bool pool_keeps_floor(std::size_t members) {
  return members >= static_cast<std::size_t>(protocol::kMinPoolMembers);
}

/// What the round-boundary step did to one player's pool membership.
struct BoundaryStep {
  bool removed = false;      ///< a due removal took the player out
  bool restore_due = false;  ///< a restore fell due (the record is cleared)
  bool restored = false;     ///< ...and put a churn-removed player back
};

/// Applies `rec` at the boundary into round `r`, for an observer whose pool
/// has `pool_size` members. Pool changes happen only here, never mid-round,
/// so observers that heard the same notice switch schedules together. A
/// due removal applies first, unless the pool floor refuses it: then it
/// stays on the record and is retried at the next boundary. A due restore
/// then re-adds the player only if a churn removal took it out and it is
/// still `eligible` (a node configured or reputation-barred out of the
/// pool stays out), and clears the record — a removal scheduled for a
/// later round, or one the floor held, included.
template <class Round>
BoundaryStep boundary_step(PoolRecord<Round>& rec, std::int64_t r,
                           bool in_pool, std::size_t pool_size,
                           bool eligible = true) {
  BoundaryStep step;
  if (rec.removal >= 0 && r >= rec.removal && in_pool &&
      pool_keeps_floor(pool_size - 1)) {
    step.removed = true;
    in_pool = false;
  }
  if (rec.restore >= 0 && r >= rec.restore) {
    step.restore_due = true;
    step.restored = !in_pool && rec.removal >= 0 && eligible;
    rec = {};
  }
  return step;
}

/// A node rejoining after a crash long enough for the churn agreement to
/// have removed it takes itself out of its own pool now (the caller drops
/// it from the schedule if the pool floor allows; either way it sits out
/// until the restore) and schedules its restore; returns the restore round
/// its rejoin notice announces.
template <class Round>
std::int64_t leave_for_rejoin(PoolRecord<Round>& rec, std::int64_t round) {
  rec.removal = static_cast<Round>(round);
  rec.restore = static_cast<Round>(restore_round(round));
  return rec.restore;
}

/// A live node hears its own removal announced (a stale notice from a
/// healed partition, or a false suspicion). The peers that accepted the
/// notice apply it, so the node follows it in its own view — keeping its
/// assignment math equal to theirs — and contests it with its own
/// restore. Returns the restore round its rejoin notice announces, or -1
/// when there is nothing to contest (not in its own pool, the notice
/// rewrites the past, or a restore is already scheduled).
template <class Round>
std::int64_t contest_removal(PoolRecord<Round>& own, bool in_pool,
                             std::int64_t notice_round, std::int64_t removal,
                             std::int64_t round) {
  merge_removal(own, in_pool, notice_round, removal);
  if (own.removal < 0 || own.restore >= 0) return -1;
  merge_restore(own, round, restore_round(round));
  return own.restore;
}

/// True while a node sits out the rounds from its own removal to its
/// announced restore (a rejoin, or a contested removal): it takes no proxy
/// authority — no adoption, handoff install or failover — even where the
/// pool floor keeps it in its own view.
template <class Round>
bool sitting_out(const PoolRecord<Round>& own, std::int64_t round) {
  return own.removal >= 0 && own.restore >= 0 && round >= own.removal;
}

/// True while `round` is within the pool-transition grace of the
/// observer's last pool change: schedules may briefly diverge while
/// notices propagate, and divergence is not cheating.
inline bool in_transition_grace(std::int64_t round,
                                std::int64_t last_pool_change) {
  return round - last_pool_change <= protocol::kPoolTransitionGraceRounds;
}

// ------------------------------------------------------- notice acceptance

/// A churn notice about `subject` stamped `notice_round` is accepted from
/// that round's proxy, or from anyone when the silence is corroborated
/// locally (re-announced notices heal pool divergence that way).
bool accept_churn_notice(const auto& proxy_of, auto subject, auto origin,
                         std::int64_t notice_round, bool silent_here) {
  return silent_here || proxy_of(subject, notice_round) == origin;
}

/// A rejoin notice is accepted from the subject itself (crash rejoin), from
/// its proxy of the notice round (post-heal reconciliation), or when the
/// subject is demonstrably alive here.
bool accept_rejoin_notice(const auto& proxy_of, auto subject, auto origin,
                          std::int64_t notice_round, bool alive_here) {
  return origin == subject || proxy_of(subject, notice_round) == origin ||
         alive_here;
}

// ------------------------------------------------------- proxy authority

/// True when `node` is `player`'s proxy in round r−1, r or r+1 (r−1 only
/// when r > 0): the one-round tolerance every delivery-side check grants
/// boundary-crossing messages, handoff grace and early failover adoption.
bool near(const auto& proxy_of, auto node, auto player, std::int64_t round) {
  return node == proxy_of(player, round) ||
         node == proxy_of(player, round + 1) ||
         (round > 0 && node == proxy_of(player, round - 1));
}

enum class Handoff : std::uint8_t {
  kWrongOrigin,  ///< the origin was not the proxy of the stamped round
  kIgnore,       ///< stale, or this node is not the successor
  kSeed,         ///< already proxying: seed the summary, no new authority
  kAdopt,        ///< the successor adopts the player on this handoff
};

/// Verdict on a handoff of `subject` from `origin`, stamped in
/// `stamp_round` (under the origin's signature, so retransmits validate
/// against the round they were sent in), received by `self` in
/// `now_round`. A node not yet proxying adopts only as the successor of
/// stamp + 1, and only while the copy is within kHandoffStaleRounds.
Handoff handoff_verdict(const auto& proxy_of, auto subject, auto origin,
                        auto self, std::int64_t stamp_round,
                        std::int64_t now_round, bool proxying) {
  if (proxy_of(subject, stamp_round) != origin) return Handoff::kWrongOrigin;
  if (proxying) return Handoff::kSeed;
  if (stamp_round + protocol::kHandoffStaleRounds < now_round) {
    return Handoff::kIgnore;
  }
  return proxy_of(subject, stamp_round + 1) == self ? Handoff::kAdopt
                                                    : Handoff::kIgnore;
}

enum class Failover : std::uint8_t {
  kNotSuccessor,    ///< not this node's case: no failover adoption
  kIncumbentHeard,  ///< successor, but the incumbent is alive from here
  kAdopt,           ///< successor, and the incumbent is silent here too
};

/// Emergency failover of `player` at `self` in `round`: only the
/// successor-of-round that is not the current proxy may adopt early, and
/// only when the incumbent is silent from its own vantage
/// (`silent_here(incumbent)`) — the player's view of the incumbent alone
/// grants nothing.
Failover failover(const auto& proxy_of, auto player, auto self,
                  std::int64_t round, const auto& silent_here) {
  const auto incumbent = proxy_of(player, round);
  if (incumbent == self || proxy_of(player, round + 1) != self) {
    return Failover::kNotSuccessor;
  }
  return silent_here(incumbent) ? Failover::kAdopt : Failover::kIncumbentHeard;
}

}  // namespace watchmen::core::authority
