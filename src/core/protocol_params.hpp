#pragma once
// Shared handoff/failover/churn/retransmit protocol constants (DESIGN.md §5g).
//
// These numbers define the timing skeleton of the proxy-transition
// protocol: how long an outgoing proxy keeps serving in-flight traffic,
// when an agreed churn removal / rejoin restore takes effect, and how much
// round skew the handoff validator tolerates, plus the retransmit and
// liveness-watchdog cadences of the hardened control plane.
//
// The churn/rejoin delays, the handoff stale window, the pool-transition
// grace and the pool floor are read in src/ only by core/authority.hpp (wmlint
// `authority-rule`), whose rules WatchmenPeer and the tools/wmcheck model
// both call — so changing one of them changes the shipped protocol and the
// checked one together, and wmcheck re-verifies the exactly-one-active-proxy
// and termination invariants against the new timing on the next CI run,
// which is the intended workflow for tuning. kGraceFrames and the
// retransmit and watchdog values sit outside the model (its retransmit
// budget is deliberately smaller, DESIGN.md §5g); chaos_test,
// transport_test and wmproc_smoke exercise them.

#include "util/ids.hpp"

namespace watchmen::core::protocol {

/// After handing a player off, the old proxy keeps the proxied state alive
/// this many frames and keeps serving messages already in flight to it
/// across the round boundary (forwards, subscription verifies).
inline constexpr Frame kGraceFrames = 6;

/// A silence-agreed churn removal broadcast in round r schedules the
/// player's pool exit for round r + this (one full round of notice so every
/// peer applies the same pool at the same round boundary).
inline constexpr std::int64_t kChurnRemovalDelayRounds = 2;

/// A rejoin notice broadcast in round r restores the player to the pool at
/// round r + this — enough lead time for the notice to spread before
/// assignment math starts depending on it.
inline constexpr std::int64_t kRejoinRestoreDelayRounds = 2;

/// Protocol-violation reports are suppressed while
/// round - last_pool_change_round <= this: peers' schedules may briefly
/// diverge while churn notices propagate, and divergence is not cheating.
inline constexpr std::int64_t kPoolTransitionGraceRounds = 2;

/// The pool floor: no observer's pool view drops below this many members.
/// A view of one member leaves that member without a proxy (a player never
/// proxies itself), and every peer asks for everyone's proxy each round.
inline constexpr int kMinPoolMembers = 2;

/// A handoff stamped in round s is still installable while
/// s + kHandoffStaleRounds >= current round (covers retransmits and
/// boundary-crossing copies); anything older is silently dropped.
inline constexpr std::int64_t kHandoffStaleRounds = 1;

/// Reliable control: the first retransmit goes out this many frames after
/// the send, and the delay doubles with each further attempt.
inline constexpr Frame kRetransmitBackoff = 3;

/// Reliable control: retransmits per tracked message before it expires.
inline constexpr int kRetransmitBudget = 4;

/// Liveness watchdog: heartbeat cadence in frames (~2 beats/s at 50 ms).
inline constexpr Frame kHeartbeatPeriod = 10;

/// Liveness watchdog: receive silence (frames) past which a relationship is
/// Suspect, which also triggers the emergency failover duplication.
inline constexpr Frame kWatchdogSuspectFrames = 25;

/// Liveness watchdog: receive silence (frames) past which it is Dead.
inline constexpr Frame kWatchdogDeadFrames = 75;

}  // namespace watchmen::core::protocol
