#include "core/protocol_model.hpp"

#include <algorithm>
#include <cassert>

namespace watchmen::core::model {

namespace {

constexpr std::int8_t kNeverChanged = -16;  ///< "pool never changed" sentinel

bool live(const State& s, int node) {
  if (node == 0) return true;  // the subject player never crashes
  return s.crashed_node != node || s.rejoined != 0;
}

std::uint8_t bit(int node) { return static_cast<std::uint8_t>(1u << node); }

/// Proxy of an arbitrary *pool node* c (used for churn announcements):
/// rotation over the pool excluding c itself, offset by c so different
/// players get different proxies — a pure stand-in for the seeded hash
/// schedule.
std::int8_t proxy_of_node(int c, std::int8_t round, std::uint8_t pool_mask) {
  std::int8_t cands[kMaxNodes];
  int n = 0;
  for (int i = 0; i < kMaxNodes; ++i) {
    if (i != c && (pool_mask & bit(i)) != 0) cands[n++] = static_cast<std::int8_t>(i);
  }
  if (n == 0) return kNone;
  return cands[(round + c) % n];
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
  return (s.pool_view[j] & bit(about)) != 0 &&
         s.pending_remove_round[j] == kNone;
}
bool needs_restore(const State& s, int j, int about) {
  const bool will_hold = ((s.pool_view[j] & bit(about)) != 0 &&
                          s.pending_remove_round[j] == kNone) ||
                         s.pending_restore_round[j] != kNone;
  return !will_hold;
}

void broadcast_notice(State& s, const ModelConfig& cfg, MsgKind kind,
                      int from, int about, std::int8_t stamp) {
  for (int j = 0; j < cfg.n_nodes; ++j) {
    if (j == from || !live(s, j)) continue;
    if (kind == MsgKind::kChurnNotice ? !needs_remove(s, j, about)
                                      : !needs_restore(s, j, about)) {
      continue;
    }
    Msg m;
    m.kind = kind;
    m.from = static_cast<std::int8_t>(from);
    m.to = static_cast<std::int8_t>(j);
    m.subject = static_cast<std::int8_t>(about);
    m.stamp_round = stamp;
    m.is_signed = 1;
    enqueue(s, m);
  }
}

void advance_round(State& s, const ModelConfig& cfg) {
  const std::int8_t r = ++s.round;
  s.grace = 0;  // kGraceFrames < renewal_frames: grace spans one boundary

  // Scheduled pool changes take effect now, at the boundary — never
  // mid-round — so every node that heard the same notice switches to the
  // new schedule in the same round (the purpose of the delay constants).
  for (int i = 0; i < cfg.n_nodes; ++i) {
    const int c = s.crashed_node;
    if (s.pending_remove_round[i] != kNone && s.pending_remove_round[i] <= r) {
      s.pending_remove_round[i] = kNone;
      if (c != kNone && (s.pool_view[i] & bit(c)) != 0) {
        s.pool_view[i] = static_cast<std::uint8_t>(s.pool_view[i] & ~bit(c));
        s.last_pool_change[i] = r;
      }
    }
    if (s.pending_restore_round[i] != kNone &&
        s.pending_restore_round[i] <= r) {
      s.pending_restore_round[i] = kNone;
      if (c != kNone && (s.pool_view[i] & bit(c)) == 0) {
        s.pool_view[i] = static_cast<std::uint8_t>(s.pool_view[i] | bit(c));
        s.last_pool_change[i] = r;
      }
    }
  }

  // Churn: the crashed node's per-view proxy announces the silence (notice
  // stamped r, removal effective r + kChurnRemovalDelayRounds); while the
  // node stays down the announcement repeats every round towards peers
  // whose pools show they missed it (peer.cpp begin_frame's re-broadcast
  // reconciliation).
  if (s.crashed_node != kNone && s.rejoined == 0 && r - s.crash_round >= 1) {
    const int c = s.crashed_node;
    for (int i = 1; i < cfg.n_nodes; ++i) {
      if (i == c || !live(s, i)) continue;
      if ((s.pool_view[i] & bit(c)) == 0) continue;
      if (proxy_of_node(c, r, s.pool_view[i]) != i) continue;
      broadcast_notice(s, cfg, MsgKind::kChurnNotice, i, c, r);
      const auto e =
          static_cast<std::int8_t>(r + protocol::kChurnRemovalDelayRounds);
      if (s.pending_remove_round[i] == kNone ||
          e < s.pending_remove_round[i]) {
        s.pending_remove_round[i] = e;
      }
    }
  }
  // Rejoin reconciliation: the rejoined node re-announces itself every
  // round until the pool has it back (peer.cpp's rejoin self-announce),
  // and any proxy that heard it re-announces to peers whose pools still
  // miss it.
  if (s.rejoined != 0) {
    const int c = s.crashed_node;
    broadcast_notice(s, cfg, MsgKind::kRejoinNotice, c, c, r);
    for (int i = 1; i < cfg.n_nodes; ++i) {
      if (i == c || !live(s, i)) continue;
      const bool knows = (s.pool_view[i] & bit(c)) != 0 ||
                         s.pending_restore_round[i] != kNone;
      if (!knows) continue;
      if (proxy_of_node(c, r, s.pool_view[i]) != i) continue;
      broadcast_notice(s, cfg, MsgKind::kRejoinNotice, i, c, r);
    }
  }

  // Round-boundary handoff: an active proxy whose schedule reassigns the
  // subject hands off to the successor (stamped in the outgoing round, as
  // the implementation stamps h.frame) and enters grace; reliable-control
  // tracking arms the retransmit budget.
  for (int i = 1; i < cfg.n_nodes; ++i) {
    if (!live(s, i) || (s.proxied & bit(i)) == 0) continue;
    const std::int8_t assigned = proxy_of(r, s.pool_view[i]);
    if (assigned == i) continue;
    s.proxied = static_cast<std::uint8_t>(s.proxied & ~bit(i));
    s.grace = static_cast<std::uint8_t>(s.grace | bit(i));
    if (assigned == kNone) continue;
    Msg m;
    m.kind = MsgKind::kHandoff;
    m.from = static_cast<std::int8_t>(i);
    m.to = assigned;
    m.subject = 0;
    m.stamp_round = static_cast<std::int8_t>(r - 1);
    m.is_signed = 1;
    enqueue(s, m);
    s.pending_to[i] = assigned;
    s.pending_stamp[i] = static_cast<std::int8_t>(r - 1);
    s.pending_retries[i] = 0;
  }
  // Schedule-driven adoption (peer.cpp begin_frame "adopt players newly
  // assigned"): the incoming proxy claims authority from its own view.
  for (int i = 1; i < cfg.n_nodes; ++i) {
    if (!live(s, i)) continue;
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
      Msg ack;
      ack.kind = MsgKind::kControlAck;
      ack.from = static_cast<std::int8_t>(j);
      ack.to = m.from;
      ack.subject = 0;
      ack.stamp_round = s.round;
      ack.is_signed = 1;
      enqueue(s, ack);

      if (cfg.variant != Variant::kHandoffAnyRound) {
        // Only the proxy of the stamped round may hand off...
        if (proxy_of(m.stamp_round, s.pool_view[j]) != m.from) return;
        // ...and a copy older than the stale window is ignored.
        if (m.stamp_round + protocol::kHandoffStaleRounds < s.round) return;
      }
      // Install iff this node is the successor of the stamped round
      // (idempotent; the boundary-race adoption path in handle_handoff).
      if (proxy_of(static_cast<std::int8_t>(m.stamp_round + 1),
                   s.pool_view[j]) == j) {
        s.proxied = static_cast<std::uint8_t>(s.proxied | bit(j));
      }
      break;
    }
    case MsgKind::kChurnNotice: {
      // Schedule the removal for the notice's effective round; the view
      // itself only changes at that round boundary. When notices race
      // (re-broadcasts from different rounds), the earliest agreed round
      // wins — otherwise a late re-broadcast would postpone a removal the
      // rest of the pool already applied.
      if ((s.pool_view[j] & bit(m.subject)) != 0) {
        const auto e = static_cast<std::int8_t>(
            m.stamp_round + protocol::kChurnRemovalDelayRounds);
        if (s.pending_remove_round[j] == kNone ||
            e < s.pending_remove_round[j]) {
          s.pending_remove_round[j] = e;
        }
      }
      break;
    }
    case MsgKind::kRejoinNotice: {
      if ((s.pool_view[j] & bit(m.subject)) == 0 ||
          s.pending_remove_round[j] != kNone) {
        const auto e = static_cast<std::int8_t>(
            m.stamp_round + protocol::kRejoinRestoreDelayRounds);
        if (s.pending_restore_round[j] == kNone ||
            e < s.pending_restore_round[j]) {
          s.pending_restore_round[j] = e;
        }
      }
      break;
    }
    case MsgKind::kStateUpdate: {
      // Signed updates carry no model state; the interesting path — an
      // unverifiable origin chain — was handled above.
      break;
    }
    case MsgKind::kStateAck: {
      // Anchored-delta baseline ack, received by the subject.
      // handle_state_ack accepts only from the proxy of rounds
      // stamp-1..stamp+1 in the receiver's own view.
      bool from_proxy = false;
      for (int d = -1; d <= 1; ++d) {
        if (proxy_of(static_cast<std::int8_t>(m.stamp_round + d),
                     s.pool_view[0]) == m.from) {
          from_proxy = true;
          break;
        }
      }
      if (cfg.variant == Variant::kAckUnsubscribed) {
        if (!from_proxy) s.violations |= kViolationRogueAck;
        s.anchor = m.from;
      } else if (from_proxy) {
        s.anchor = m.from;
      }
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
    case Variant::kAckUnsubscribed: return "ack-unsubscribed";
    case Variant::kUnboundedRetransmit: return "unbounded-retransmit";
    case Variant::kHandoffAnyRound: return "handoff-any-round";
  }
  return "?";
}

const char* to_string(MsgKind k) {
  switch (k) {
    case MsgKind::kHandoff: return "Handoff";
    case MsgKind::kChurnNotice: return "ChurnNotice";
    case MsgKind::kRejoinNotice: return "RejoinNotice";
    case MsgKind::kStateUpdate: return "StateUpdate";
    case MsgKind::kStateAck: return "StateAck";
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
  if (flags & kViolationRogueAck) add("rogue-baseline-ack");
  if (flags & kViolationRetransmit) add("retransmit-over-budget");
  if (flags & kViolationNoProxy) add("quiescent-no-proxy");
  if (flags & kViolationMultiProxyQuiescent) add("quiescent-multi-proxy");
  if (out.empty()) out = "none";
  return out;
}

std::int8_t proxy_of(std::int8_t round, std::uint8_t pool_mask) {
  std::int8_t cands[kMaxNodes];
  int n = 0;
  for (int i = 0; i < kMaxNodes; ++i) {
    if ((pool_mask & (1u << i)) != 0) cands[n++] = static_cast<std::int8_t>(i);
  }
  if (n == 0) return kNone;
  // Rounds can go transiently negative in stamp arithmetic (stamp-1 at
  // round 0); clamp into the rotation.
  const int r = round < 0 ? 0 : round;
  return cands[r % n];
}

State initial_state(const ModelConfig& cfg) {
  State s;
  std::uint8_t pool = 0;
  for (int i = 1; i < cfg.n_nodes; ++i) pool |= bit(i);
  for (int i = 0; i < kMaxNodes; ++i) {
    s.pool_view[i] = i < cfg.n_nodes ? pool : 0;
    s.last_pool_change[i] = kNeverChanged;
    s.pending_to[i] = kNone;
    s.pending_remove_round[i] = kNone;
    s.pending_restore_round[i] = kNone;
  }
  const std::int8_t p0 = proxy_of(0, pool);
  if (p0 != kNone) s.proxied = bit(p0);
  s.rounds_since_fault = static_cast<std::int8_t>(cfg.settle_rounds);
  return s;
}

std::vector<Action> enabled_actions(const State& s, const ModelConfig& cfg) {
  std::vector<Action> out;
  if (s.violations != 0 || s.overflow != 0) return out;  // terminal

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
  // proxy has been silent long enough. Faithfully the successor adopts
  // only if the proxy is silent from its OWN vantage too (the
  // PeerLink::proxy_silent gate); the broken variant adopts on the duplicate alone.
  if (s.failovers < cfg.failover_budget) {
    const auto silent = [&s, &cfg](std::int8_t node) {
      return node != kNone && s.crashed_node == node && s.rejoined == 0 &&
             s.round - s.crash_round >= cfg.failover_silence_rounds;
    };
    const std::int8_t cur = proxy_of(s.round, s.pool_view[0]);
    const std::int8_t succ =
        proxy_of(static_cast<std::int8_t>(s.round + 1), s.pool_view[0]);
    if (succ != kNone && succ != cur && live(s, succ) && silent(cur)) {
      const std::int8_t cur_from_succ = proxy_of(s.round, s.pool_view[succ]);
      const bool vantage_ok = cur_from_succ == kNone ||
                              cur_from_succ == succ || silent(cur_from_succ);
      if (vantage_ok || cfg.variant == Variant::kSkipVantageCheck) {
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
  if (s.acks < cfg.ack_budget) {
    for (std::int8_t x = 1; x < static_cast<std::int8_t>(cfg.n_nodes); ++x) {
      if (live(s, x)) out.push_back({ActionKind::kInjectAck, x, 0});
    }
  }
  return out;
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
      s.grace = static_cast<std::uint8_t>(s.grace & ~bit(c));
      s.pending_to[c] = kNone;
      s.pending_stamp[c] = 0;
      s.pending_retries[c] = 0;
      s.pending_remove_round[c] = kNone;  // down: stops processing notices
      s.pending_restore_round[c] = kNone;
      if (s.anchor == c) s.anchor = kNone;
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
      // authority (handoff install, adoption) for rounds it sat out.
      s.pool_view[c] = static_cast<std::uint8_t>(s.pool_view[c] & ~bit(c));
      s.pending_restore_round[c] = static_cast<std::int8_t>(
          s.round + protocol::kRejoinRestoreDelayRounds);
      // Mirrors WatchmenPeer::rejoin: the node re-announces itself and its
      // own schedule counts this as a pool change (suppressing its reports
      // through the transition).
      s.last_pool_change[c] = s.round;
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
      const auto kind = static_cast<MsgKind>(action.a);
      const int attacker = action.b;
      Msg m;
      m.is_signed = 0;
      m.stamp_round = s.round;
      if (kind == MsgKind::kStateUpdate) {
        m.kind = MsgKind::kStateUpdate;
        m.from = 0;  // spoofs the subject
        m.to = proxy_of(s.round, s.pool_view[attacker]);
      } else {
        // Spoofs the current proxy handing the subject to the next round's
        // successor — installable only if signature checking is broken.
        m.kind = MsgKind::kHandoff;
        m.from = proxy_of(s.round, s.pool_view[attacker]);
        m.to = proxy_of(static_cast<std::int8_t>(s.round + 1),
                        s.pool_view[attacker]);
      }
      if (m.to != kNone) enqueue(s, m);
      ++s.forged;
      s.rounds_since_fault = 0;
      break;
    }
    case ActionKind::kInjectAck: {
      Msg m;
      m.kind = MsgKind::kStateAck;
      m.from = action.a;
      m.to = 0;
      m.subject = 0;
      m.stamp_round = s.round;
      m.is_signed = 1;
      enqueue(s, m);
      ++s.acks;
      break;
    }
    case ActionKind::kRetransmit: {
      const int i = action.a;
      Msg m;
      m.kind = MsgKind::kHandoff;
      m.from = static_cast<std::int8_t>(i);
      m.to = s.pending_to[i];
      m.subject = 0;
      m.stamp_round = s.pending_stamp[i];  // a copy, not a fresh handoff
      m.is_signed = 1;
      enqueue(s, m);
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
  // later — that is not a stuck state, just a truncated one.
  for (int i = 0; i < kMaxNodes; ++i) {
    if (!live(s, i)) continue;
    if (s.pending_remove_round[i] != kNone ||
        s.pending_restore_round[i] != kNone) {
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

namespace {

/// Fixed-size canonical serialization into a stack buffer; returns the
/// byte count. Kept allocation-free: state_hash runs once per transition
/// and dominates the explorer's profile.
std::size_t fill_canonical(const State& s, std::uint8_t* buf) {
  std::size_t n = 0;
  const auto put = [buf, &n](std::int64_t v) {
    buf[n++] = static_cast<std::uint8_t>(v);
  };
  put(s.round);
  put(s.crashed_node);
  put(s.rejoined);
  put(s.crash_round);
  put(s.proxied);
  put(s.grace);
  for (int i = 0; i < kMaxNodes; ++i) {
    put(s.pool_view[i]);
    put(s.last_pool_change[i]);
    put(s.pending_remove_round[i]);
    put(s.pending_restore_round[i]);
    put(s.pending_to[i]);
    put(s.pending_stamp[i]);
    put(s.pending_retries[i]);
  }
  put(s.anchor);
  put(s.lost);
  put(s.duped);
  put(s.forged);
  put(s.acks);
  put(s.failovers);
  put(s.rounds_since_fault);
  put(s.violations);
  put(s.overflow);
  put(s.n_flight);
  for (int i = 0; i < s.n_flight; ++i) {
    const Msg& m = s.flight[i];
    put(static_cast<std::int64_t>(m.kind));
    put(m.from);
    put(m.to);
    put(m.subject);
    put(m.stamp_round);
    put(m.is_signed);
  }
  return n;
}

/// Upper bound on fill_canonical output (fixed part + full flight).
constexpr std::size_t kMaxCanonicalBytes = 64 + 7 * kMaxNodes + 6 * kMaxFlight;

}  // namespace

void canonical_bytes(const State& s, std::vector<std::uint8_t>& out) {
  std::uint8_t buf[kMaxCanonicalBytes];
  out.assign(buf, buf + fill_canonical(s, buf));
}

std::uint64_t state_hash(const State& s) {
  std::uint8_t buf[kMaxCanonicalBytes];
  const std::size_t n = fill_canonical(s, buf);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (std::size_t i = 0; i < n; ++i) {
    h ^= buf[i];
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
    case ActionKind::kInjectAck:
      return "node " + std::to_string(action.a) + " acks the delta baseline";
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
  bool any_pending = false;
  for (int i = 0; i < cfg.n_nodes; ++i) {
    if (s.pending_remove_round[i] != kNone ||
        s.pending_restore_round[i] != kNone) {
      any_pending = true;
    }
  }
  if (any_pending) {
    out += " pend=[";
    for (int i = 0; i < cfg.n_nodes; ++i) {
      if (i) out += " ";
      if (s.pending_remove_round[i] != kNone) {
        out += "-@" + std::to_string(s.pending_remove_round[i]);
      }
      if (s.pending_restore_round[i] != kNone) {
        out += "+@" + std::to_string(s.pending_restore_round[i]);
      }
      if (s.pending_remove_round[i] == kNone &&
          s.pending_restore_round[i] == kNone) {
        out += ".";
      }
    }
    out += "]";
  }
  if (s.anchor != kNone) out += " anchor=" + std::to_string(s.anchor);
  out += " flight=" + std::to_string(s.n_flight);
  if (s.violations) out += " VIOLATION:" + violations_to_string(s.violations);
  return out;
}

}  // namespace watchmen::core::model
