#include "core/protocol_model.hpp"

#include <algorithm>
#include <bit>
#include <type_traits>

namespace watchmen::core::model {

namespace {

bool live(const State& s, int node) {
  if (node == 0) return true;  // the subject player never crashes
  return s.crashed_node != node || s.rejoined != 0;
}

std::uint8_t bit(int node) { return static_cast<std::uint8_t>(1u << node); }

/// Round-robin schedule of `player` over a pool view: rotation over the pool
/// excluding the player itself, offset by it so different players get
/// different proxies — a pure stand-in for the seeded hash schedule. Rounds
/// can go transiently negative in stamp arithmetic; clamp into the rotation.
std::int8_t schedule_of(int player, std::int64_t round, std::uint8_t pool_mask) {
  std::int8_t cands[kMaxNodes];
  int n = 0;
  for (int i = 0; i < kMaxNodes; ++i) {
    if (i != player && (pool_mask & bit(i)) != 0) {
      cands[n++] = static_cast<std::int8_t>(i);
    }
  }
  if (n == 0) return kNone;
  return cands[(std::max<std::int64_t>(round, 0) + player) % n];
}

/// Node j's schedule, as the authority rules' proxy_of(player, round).
auto view_of(const State& s, int j) {
  return [mask = s.pool_view[j]](int player, std::int64_t round) {
    return schedule_of(player, round, mask);
  };
}

/// `node` down (not rejoined) for at least `rounds` rounds. Every live node
/// observes the same silence: the model's "silent here".
bool silent(const State& s, int node, int rounds) {
  return node != kNone && s.crashed_node == node && s.rejoined == 0 &&
         s.round - s.crash_round >= rounds;
}

std::size_t pool_size(std::uint8_t view) {
  return static_cast<std::size_t>(std::popcount(view));
}

/// The rejoined node sits out (authority::sitting_out) until its restore:
/// it adopts nothing, installs no handoff and fails nobody over.
bool sitting_out(const State& s, int node) {
  return node == s.crashed_node &&
         authority::sitting_out(s.agreement[node], s.round);
}

/// Sticky I6 check: every node's pool view keeps the floor.
void check_pool_floor(State& s, const ModelConfig& cfg) {
  for (int i = 0; i < cfg.n_nodes; ++i) {
    const bool kept = authority::pool_keeps_floor(pool_size(s.pool_view[i]));
    if (!kept) s.violations |= kViolationPoolFloor;
  }
}

/// Sticky I1 check. The schedule is a deterministic function of
/// (round, pool view), so two live nodes claiming active proxy authority
/// while holding the SAME pool view can never happen legitimately — it
/// means authority was granted outside the schedule (failover without the
/// vantage check, stale-handoff install, ...). Claimants with *diverged*
/// views are the transient the pool-transition grace exists for (notices
/// still propagating); those converge by re-broadcast and are asserted by
/// the quiescence check instead.
void check_dual_proxy(State& s) {
  for (int i = 1; i < kMaxNodes; ++i) {
    if ((s.proxied & bit(i)) == 0 || !live(s, i)) continue;
    for (int j = i + 1; j < kMaxNodes; ++j) {
      if ((s.proxied & bit(j)) == 0 || !live(s, j)) continue;
      if (s.pool_view[i] == s.pool_view[j]) {
        s.violations |= kViolationDualProxy;
      }
    }
  }
}

/// A signed message.
Msg msg(MsgKind kind, int from, int to, int subject, int stamp) {
  const auto b = [](int v) { return static_cast<std::int8_t>(v); };
  return {kind, b(from), b(to), b(subject), b(stamp), 1};
}

void enqueue(State& s, const Msg& m) {
  // Identical duplicates carry no extra information for the invariants
  // (installs are idempotent); collapsing them keeps the flight bounded.
  // The explicit Duplicate action models redelivery separately.
  for (int i = 0; i < s.n_flight; ++i) {
    if (s.flight[i] == m) return;
  }
  if (s.n_flight >= kMaxFlight) {
    s.overflow = 1;  // model bound, surfaced by wmcheck — never a silent drop
    return;
  }
  s.flight[s.n_flight++] = m;
}

void remove_flight(State& s, int idx) {
  for (int i = idx; i + 1 < s.n_flight; ++i) s.flight[i] = s.flight[i + 1];
  --s.n_flight;
}

void canonicalize(State& s) {
  std::sort(s.flight.begin(), s.flight.begin() + s.n_flight,
            [](const Msg& a, const Msg& b) { return a.key() < b.key(); });
  for (int i = s.n_flight; i < kMaxFlight; ++i) s.flight[i] = Msg{};
}

/// Does node j still need to hear that `about` churned out / rejoined?
/// Mirrors the reconciliation targeting: re-broadcasts go only to peers
/// whose advertised pool (their own re-broadcasts) shows they missed the
/// notice, so a peer with the change already scheduled is not re-notified.
bool needs_remove(const State& s, int j, int about) {
  return (s.pool_view[j] & bit(about)) != 0 && s.agreement[j].removal == kNone;
}
bool needs_restore(const State& s, int j, int about) {
  return !needs_remove(s, j, about) && s.agreement[j].restore == kNone;
}

void broadcast_notice(State& s, const ModelConfig& cfg, MsgKind kind,
                      int from, int about, std::int8_t stamp) {
  for (int j = 0; j < cfg.n_nodes; ++j) {
    if (j == from || !live(s, j)) continue;
    if (kind == MsgKind::kChurnNotice ? !needs_remove(s, j, about)
                                      : !needs_restore(s, j, about)) {
      continue;
    }
    enqueue(s, msg(kind, from, j, about, stamp));
  }
}

void advance_round(State& s, const ModelConfig& cfg) {
  const std::int8_t r = ++s.round;
  const int c = s.crashed_node;  // the only node whose membership changes
  // Agreed pool changes take effect now, at the boundary — never mid-round
  // (WatchmenPeer::begin_frame's step).
  for (int i = 0; i < cfg.n_nodes && c != kNone; ++i) {
    // The broken variant tells the floor the pool is large enough.
    const authority::BoundaryStep step = authority::boundary_step(
        s.agreement[i], r, (s.pool_view[i] & bit(c)) != 0,
        cfg.variant == Variant::kSkipPoolFloor ? kMaxNodes + 1
                                               : pool_size(s.pool_view[i]));
    if (step.removed) s.pool_view[i] &= static_cast<std::uint8_t>(~bit(c));
    if (step.restored) s.pool_view[i] |= bit(c);
  }
  // Churn: the crashed node's per-view proxy announces the silence (its
  // end_frame announce); while the node stays down the announcement repeats
  // every round towards peers whose pools show they missed it (begin_frame's
  // re-broadcast reconciliation).
  for (int i = 1; i < cfg.n_nodes && silent(s, c, 1); ++i) {
    if (i == c || !live(s, i) || (s.pool_view[i] & bit(c)) == 0) continue;
    if (view_of(s, i)(c, r) != i) continue;
    broadcast_notice(s, cfg, MsgKind::kChurnNotice, i, c, r);
    authority::merge_removal(s.agreement[i], true, r,
                             authority::removal_round(r));
  }
  // Rejoin reconciliation: the rejoined node re-announces itself every
  // round until the pool has it back (the reliable rejoin notice), and any
  // proxy that heard it re-announces to peers whose pools still miss it.
  if (s.rejoined != 0) {
    broadcast_notice(s, cfg, MsgKind::kRejoinNotice, c, c, r);
    for (int i = 1; i < cfg.n_nodes; ++i) {
      if (i == c || !live(s, i)) continue;
      const bool knows = (s.pool_view[i] & bit(c)) != 0 ||
                         s.agreement[i].restore != kNone;
      if (!knows || view_of(s, i)(c, r) != i) continue;
      broadcast_notice(s, cfg, MsgKind::kRejoinNotice, i, c, r);
    }
  }

  // Round-boundary handoff: an active proxy whose schedule reassigns the
  // subject hands off to the successor (stamped in the outgoing round, as
  // the implementation stamps h.frame); reliable-control tracking arms the
  // retransmit budget.
  for (int i = 1; i < cfg.n_nodes; ++i) {
    if (!live(s, i) || (s.proxied & bit(i)) == 0) continue;
    const std::int8_t assigned = proxy_of(r, s.pool_view[i]);
    if (assigned == i) continue;
    s.proxied = static_cast<std::uint8_t>(s.proxied & ~bit(i));
    if (assigned == kNone) continue;
    enqueue(s, msg(MsgKind::kHandoff, i, assigned, 0, r - 1));
    s.pending_to[i] = assigned;
    s.pending_stamp[i] = static_cast<std::int8_t>(r - 1);
    s.pending_retries[i] = 0;
  }
  // Schedule-driven adoption (peer.cpp begin_frame "adopt players newly
  // assigned"): the incoming proxy claims authority from its own view.
  for (int i = 1; i < cfg.n_nodes; ++i) {
    if (!live(s, i) || sitting_out(s, i)) continue;
    if (proxy_of(r, s.pool_view[i]) == i) {
      s.proxied = static_cast<std::uint8_t>(s.proxied | bit(i));
    }
  }

  if (s.rounds_since_fault < cfg.settle_rounds) ++s.rounds_since_fault;
}

void deliver(State& s, int idx, const ModelConfig& cfg) {
  const Msg m = s.flight[idx];
  remove_flight(s, idx);
  const int j = m.to;
  if (j < 0 || j >= cfg.n_nodes || !live(s, j)) {
    return;  // handler detached; traffic to it vanishes
  }

  const bool accept_unsigned = cfg.variant == Variant::kAcceptUnsigned;
  if (m.is_signed == 0) {
    if (!accept_unsigned) return;  // origin signature chain unverifiable
    // The broken variant installs it anyway — that IS the I2 violation.
    s.violations |= kViolationUnsigned;
  }

  switch (m.kind) {
    case MsgKind::kHandoff: {
      // Receipt ack for reliable control (sent before validation: receipt,
      // not approval — matches PeerLink::maybe_ack semantics).
      enqueue(s, msg(MsgKind::kControlAck, j, m.from, 0, s.round));

      const authority::Handoff verdict =
          cfg.variant == Variant::kHandoffAnyRound
              ? authority::Handoff::kAdopt
              : authority::handoff_verdict(view_of(s, j), 0, m.from, j,
                                           m.stamp_round, s.round,
                                           (s.proxied & bit(j)) != 0);
      if (verdict == authority::Handoff::kAdopt && !sitting_out(s, j)) {
        s.proxied |= bit(j);
      }
      break;
    }
    case MsgKind::kChurnNotice: {
      // The view itself only changes at the agreed round's boundary.
      if (authority::accept_churn_notice(view_of(s, j), m.subject, m.from,
                                         m.stamp_round,
                                         silent(s, m.subject, 1))) {
        authority::merge_removal(s.agreement[j],
                                 (s.pool_view[j] & bit(m.subject)) != 0,
                                 m.stamp_round,
                                 authority::removal_round(m.stamp_round));
      }
      break;
    }
    case MsgKind::kRejoinNotice: {
      if (authority::accept_rejoin_notice(view_of(s, j), m.subject, m.from,
                                          m.stamp_round, live(s, m.subject))) {
        authority::merge_restore(s.agreement[j], m.stamp_round,
                                 authority::restore_round(m.stamp_round));
      }
      break;
    }
    case MsgKind::kStateUpdate: {
      // Signed updates carry no model state; the interesting path — an
      // unverifiable origin chain — was handled above.
      break;
    }
    case MsgKind::kControlAck: {
      if (s.pending_to[j] == m.from) {
        s.pending_to[j] = kNone;
        s.pending_stamp[j] = 0;
        s.pending_retries[j] = 0;
      }
      break;
    }
  }
}

}  // namespace

const char* to_string(Variant v) {
  switch (v) {
    case Variant::kFaithful: return "faithful";
    case Variant::kSkipVantageCheck: return "skip-vantage-check";
    case Variant::kAcceptUnsigned: return "accept-unsigned";
    case Variant::kUnboundedRetransmit: return "unbounded-retransmit";
    case Variant::kHandoffAnyRound: return "handoff-any-round";
    case Variant::kSkipPoolFloor: return "skip-pool-floor";
  }
  return "?";
}

const char* to_string(MsgKind k) {
  switch (k) {
    case MsgKind::kHandoff: return "Handoff";
    case MsgKind::kChurnNotice: return "ChurnNotice";
    case MsgKind::kRejoinNotice: return "RejoinNotice";
    case MsgKind::kStateUpdate: return "StateUpdate";
    case MsgKind::kControlAck: return "ControlAck";
  }
  return "?";
}

std::string violations_to_string(std::uint8_t flags) {
  std::string out;
  const auto add = [&out](const char* name) {
    if (!out.empty()) out += "+";
    out += name;
  };
  if (flags & kViolationDualProxy) add("dual-active-proxy");
  if (flags & kViolationUnsigned) add("unsigned-accepted");
  if (flags & kViolationRetransmit) add("retransmit-over-budget");
  if (flags & kViolationNoProxy) add("quiescent-no-proxy");
  if (flags & kViolationMultiProxyQuiescent) add("quiescent-multi-proxy");
  if (flags & kViolationPoolFloor) add("pool-below-floor");
  if (out.empty()) out = "none";
  return out;
}

std::int8_t proxy_of(std::int64_t round, std::uint8_t pool_mask) {
  return schedule_of(0, round, pool_mask);
}

State initial_state(const ModelConfig& cfg) {
  State s;
  std::uint8_t pool = 0;
  for (int i = 1; i < cfg.n_nodes; ++i) pool |= bit(i);
  for (int i = 0; i < kMaxNodes; ++i) {
    s.pool_view[i] = i < cfg.n_nodes ? pool : 0;
    s.pending_to[i] = kNone;
  }
  const std::int8_t p0 = proxy_of(0, pool);
  if (p0 != kNone) s.proxied = bit(p0);
  s.rounds_since_fault = static_cast<std::int8_t>(cfg.settle_rounds);
  return s;
}

void enabled_actions(const State& s, const ModelConfig& cfg,
                     std::vector<Action>& out) {
  out.clear();
  if (s.violations != 0 || s.overflow != 0) return;  // terminal

  // Per-message actions, over canonical indices.
  for (std::int8_t i = 0; i < static_cast<std::int8_t>(s.n_flight); ++i) {
    out.push_back({ActionKind::kDeliver, i, 0});
    if (s.lost < cfg.loss_budget) out.push_back({ActionKind::kDrop, i, 0});
    if (s.duped < cfg.dup_budget) out.push_back({ActionKind::kDuplicate, i, 0});
  }

  // The round advances once every message of the previous round has been
  // delivered or dropped: one-way latency is far below a renewal period,
  // so a datagram never outlives the round after the one it was sent in.
  if (s.round < cfg.max_rounds) {
    bool stale_in_flight = false;
    for (int i = 0; i < s.n_flight; ++i) {
      if (s.flight[i].stamp_round < s.round) {
        stale_in_flight = true;
        break;
      }
    }
    if (!stale_in_flight) out.push_back({ActionKind::kAdvanceRound, 0, 0});
  }

  if (s.crashed_node == kNone && cfg.crash_budget > 0) {
    for (std::int8_t c = 1; c < static_cast<std::int8_t>(cfg.n_nodes); ++c) {
      out.push_back({ActionKind::kCrash, c, 0});
    }
  }
  if (s.crashed_node != kNone && s.rejoined == 0 && cfg.rejoin_budget > 0 &&
      s.round - s.crash_round >= 1) {
    out.push_back({ActionKind::kRejoin, s.crashed_node, 0});
  }

  // Emergency failover: the subject's proxy-bound traffic is duplicated to
  // the successor-of-round (per the subject's view) once the subject's
  // proxy has been silent long enough. The successor then runs
  // authority::failover from its own view and its OWN silence observation
  // (the PeerLink::proxy_silent gate); the broken variant is told the
  // incumbent is silent.
  if (s.failovers < cfg.failover_budget) {
    const int quiet = cfg.failover_silence_rounds;
    const std::int8_t cur = proxy_of(s.round, s.pool_view[0]);
    const std::int8_t succ = proxy_of(s.round + 1, s.pool_view[0]);
    if (succ != kNone && succ != cur && live(s, succ) &&
        !sitting_out(s, succ) && silent(s, cur, quiet)) {
      const auto silent_here = [&s, &cfg, quiet](int node) {
        return cfg.variant == Variant::kSkipVantageCheck ||
               silent(s, node, quiet);
      };
      if (authority::failover(view_of(s, succ), 0, succ, s.round,
                              silent_here) == authority::Failover::kAdopt) {
        out.push_back({ActionKind::kFailover, succ, 0});
      }
    }
  }

  // Reliable-control retransmission with exponential backoff collapses to
  // "may retransmit while budget remains" (backoff only reorders time).
  // The broken variant enables it past the budget; apply() flags I4 there.
  for (std::int8_t i = 1; i < static_cast<std::int8_t>(cfg.n_nodes); ++i) {
    if (!live(s, i) || s.pending_to[i] == kNone) continue;
    if (cfg.variant == Variant::kUnboundedRetransmit ||
        s.pending_retries[i] < cfg.retransmit_budget) {
      out.push_back({ActionKind::kRetransmit, i, 0});
    }
  }

  // Adversarial injections.
  if (s.forged < cfg.forge_budget) {
    for (std::int8_t a = 1; a < static_cast<std::int8_t>(cfg.n_nodes); ++a) {
      if (!live(s, a)) continue;
      out.push_back(
          {ActionKind::kForge, static_cast<std::int8_t>(MsgKind::kStateUpdate), a});
      out.push_back(
          {ActionKind::kForge, static_cast<std::int8_t>(MsgKind::kHandoff), a});
    }
  }
}

State apply(const State& s0, const Action& action, const ModelConfig& cfg) {
  State s = s0;
  switch (action.kind) {
    case ActionKind::kAdvanceRound:
      advance_round(s, cfg);
      break;
    case ActionKind::kDeliver:
      deliver(s, action.a, cfg);
      break;
    case ActionKind::kDrop:
      remove_flight(s, action.a);
      ++s.lost;
      s.rounds_since_fault = 0;
      break;
    case ActionKind::kDuplicate: {
      Msg m = s.flight[action.a];
      if (s.n_flight < kMaxFlight) {
        s.flight[s.n_flight++] = m;
      } else {
        s.overflow = 1;
      }
      ++s.duped;
      s.rounds_since_fault = 0;
      break;
    }
    case ActionKind::kCrash: {
      const int c = action.a;
      s.crashed_node = static_cast<std::int8_t>(c);
      s.crash_round = s.round;
      s.proxied = static_cast<std::uint8_t>(s.proxied & ~bit(c));
      s.pending_to[c] = kNone;
      s.pending_stamp[c] = 0;
      s.pending_retries[c] = 0;
      s.rounds_since_fault = 0;
      break;
    }
    case ActionKind::kRejoin: {
      const int c = action.a;
      s.rejoined = 1;
      // Anything still in flight to c was transmitted while it was down
      // (latency is milliseconds; a crash/rejoin gap is not): those
      // datagrams hit a dead endpoint, they do not greet the new
      // incarnation.
      for (int i = s.n_flight - 1; i >= 0; --i) {
        if (s.flight[i].to == c) remove_flight(s, i);
      }
      // The new incarnation is not pool-eligible — not even by its own
      // view — until the agreed restore round, so it will not accept proxy
      // authority (handoff install, adoption) for rounds it sat out; it
      // re-announces itself (WatchmenPeer::rejoin). A pool at the floor
      // keeps it in its view, and it sits out all the same.
      if (authority::pool_keeps_floor(pool_size(s.pool_view[c]) - 1)) {
        s.pool_view[c] = static_cast<std::uint8_t>(s.pool_view[c] & ~bit(c));
      }
      authority::leave_for_rejoin(s.agreement[c], s.round);
      broadcast_notice(s, cfg, MsgKind::kRejoinNotice, c, c, s.round);
      s.rounds_since_fault = 0;
      break;
    }
    case ActionKind::kFailover: {
      s.proxied = static_cast<std::uint8_t>(s.proxied | bit(action.a));
      ++s.failovers;
      break;
    }
    case ActionKind::kForge: {
      // An update spoofing the subject, or a handoff spoofing the current
      // proxy to the next round's successor (by the attacker's view) —
      // installable only if signature checking is broken.
      const std::uint8_t view = s.pool_view[action.b];
      Msg m = static_cast<MsgKind>(action.a) == MsgKind::kStateUpdate
                  ? msg(MsgKind::kStateUpdate, 0, proxy_of(s.round, view), 0,
                        s.round)
                  : msg(MsgKind::kHandoff, proxy_of(s.round, view),
                        proxy_of(s.round + 1, view), 0, s.round);
      m.is_signed = 0;
      if (m.to != kNone) enqueue(s, m);
      ++s.forged;
      s.rounds_since_fault = 0;
      break;
    }
    case ActionKind::kRetransmit: {
      const int i = action.a;
      // A copy of the tracked handoff, not a fresh one.
      enqueue(s, msg(MsgKind::kHandoff, i, s.pending_to[i], 0,
                     s.pending_stamp[i]));
      if (s.pending_retries[i] <=
          static_cast<std::uint8_t>(cfg.retransmit_budget)) {
        ++s.pending_retries[i];
      }
      if (s.pending_retries[i] >
          static_cast<std::uint8_t>(cfg.retransmit_budget)) {
        s.violations |= kViolationRetransmit;  // I4: budget exceeded
      }
      break;
    }
  }
  check_dual_proxy(s);
  check_pool_floor(s, cfg);
  canonicalize(s);
  return s;
}

bool quiescent(const State& s, const ModelConfig& cfg) {
  if (s.round < cfg.max_rounds || s.n_flight != 0 ||
      s.rounds_since_fault < cfg.settle_rounds) {
    return false;
  }
  // A scheduled pool change is future activity, exactly like a message in
  // flight: a removal effective past the horizon would converge one round
  // later — that is not a stuck state, just a truncated one. (An applied
  // removal stays on the record until a restore clears it.)
  for (int i = 0; i < kMaxNodes; ++i) {
    if (!live(s, i)) continue;
    const auto& a = s.agreement[i];
    if (a.restore != kNone ||
        (a.removal != kNone && (s.pool_view[i] & bit(s.crashed_node)) != 0)) {
      return false;
    }
  }
  return true;
}

std::uint8_t quiescence_violations(const State& s, const ModelConfig& cfg) {
  (void)cfg;
  int active = 0;
  for (int i = 1; i < kMaxNodes; ++i) {
    if ((s.proxied & bit(i)) != 0 && live(s, i)) ++active;
  }
  if (active == 0) return kViolationNoProxy;
  if (active > 1) return kViolationMultiProxyQuiescent;
  return 0;
}

static_assert(alignof(State) == 1 &&
                  std::has_unique_object_representations_v<State>,
              "State's object bytes must be its canonical form");

void canonical_bytes(const State& s, std::vector<std::uint8_t>& out) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&s);
  out.assign(p, p + sizeof(State));
}

std::uint64_t state_hash(const State& s) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&s);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (std::size_t i = 0; i < sizeof(State); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string describe(const Action& action, const State& before) {
  const auto msg_str = [&before](int idx) {
    const Msg& m = before.flight[idx];
    std::string out = to_string(m.kind);
    out += " " + std::to_string(m.from) + "->" + std::to_string(m.to);
    out += " (subject " + std::to_string(m.subject);
    out += ", stamp r" + std::to_string(m.stamp_round);
    out += m.is_signed ? ", signed)" : ", UNSIGNED)";
    return out;
  };
  switch (action.kind) {
    case ActionKind::kAdvanceRound:
      return "advance to round " + std::to_string(before.round + 1);
    case ActionKind::kDeliver: return "deliver " + msg_str(action.a);
    case ActionKind::kDrop: return "drop " + msg_str(action.a);
    case ActionKind::kDuplicate: return "duplicate " + msg_str(action.a);
    case ActionKind::kCrash:
      return "crash node " + std::to_string(action.a);
    case ActionKind::kRejoin:
      return "rejoin node " + std::to_string(action.a);
    case ActionKind::kFailover:
      return "emergency failover: node " + std::to_string(action.a) +
             " adopts the subject";
    case ActionKind::kForge:
      return std::string("forge unsigned ") +
             to_string(static_cast<MsgKind>(action.a)) + " via node " +
             std::to_string(action.b);
    case ActionKind::kRetransmit:
      return "node " + std::to_string(action.a) +
             " retransmits its tracked handoff (retry " +
             std::to_string(before.pending_retries[action.a] + 1) + ")";
  }
  return "?";
}

std::string describe(const State& s, const ModelConfig& cfg) {
  std::string out = "r" + std::to_string(s.round);
  out += " proxied={";
  bool first = true;
  for (int i = 0; i < kMaxNodes; ++i) {
    if ((s.proxied & bit(i)) == 0) continue;
    if (!first) out += ",";
    out += std::to_string(i);
    first = false;
  }
  out += "}";
  if (s.crashed_node != kNone) {
    out += " crashed=" + std::to_string(s.crashed_node) +
           (s.rejoined ? "(rejoined)" : "");
  }
  out += " views=[";
  for (int i = 0; i < cfg.n_nodes; ++i) {
    if (i) out += " ";
    for (int j = 1; j < cfg.n_nodes; ++j) {
      out += (s.pool_view[i] & bit(j)) ? std::to_string(j) : std::string("-");
    }
  }
  out += "]";
  if (s.crashed_node != kNone) {
    out += " agreed=[";
    for (int i = 0; i < cfg.n_nodes; ++i) {
      const auto& a = s.agreement[i];
      if (i) out += " ";
      if (a.removal != kNone) out += "-@" + std::to_string(a.removal);
      if (a.restore != kNone) out += "+@" + std::to_string(a.restore);
      if (a.removal == kNone && a.restore == kNone) out += ".";
    }
    out += "]";
  }
  out += " flight=" + std::to_string(s.n_flight);
  if (s.violations) out += " VIOLATION:" + violations_to_string(s.violations);
  return out;
}

}  // namespace watchmen::core::model
