// Tests for the wmcheck protocol model and explorer (DESIGN.md §5g):
// canonical hashing/dedup, transition semantics pinned against the
// implementation's protocol constants, the seeded-broken variant corpus
// (each removed guard must be provably caught), and counterexample
// replay/minimality.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/model_checker.hpp"
#include "core/protocol_model.hpp"
#include "core/protocol_params.hpp"

namespace model = watchmen::core::model;
namespace protocol = watchmen::core::protocol;

using model::Action;
using model::ActionKind;
using model::CheckLimits;
using model::CheckResult;
using model::ModelConfig;
using model::Msg;
using model::MsgKind;
using model::State;
using model::Variant;

namespace {

/// A small config whose faithful state space exhausts in well under a
/// second — unit-test sized, not the CI exhaustive config.
ModelConfig tiny_config() {
  ModelConfig cfg;
  cfg.max_rounds = 2;
  cfg.loss_budget = 1;
  cfg.dup_budget = 0;
  cfg.forge_budget = 0;
  return cfg;
}

CheckResult run(const ModelConfig& cfg, std::uint64_t max_states = 5'000'000) {
  CheckLimits limits;
  limits.max_states = max_states;
  return model::check(cfg, limits);
}

}  // namespace

// ---------------------------------------------------------------------------
// Canonical serialization and hashing.

TEST(WmcheckHash, EqualStatesHashEqual) {
  const ModelConfig cfg;
  const State a = model::initial_state(cfg);
  const State b = model::initial_state(cfg);
  EXPECT_EQ(a, b);
  EXPECT_EQ(model::state_hash(a), model::state_hash(b));

  std::vector<std::uint8_t> ba, bb;
  model::canonical_bytes(a, ba);
  model::canonical_bytes(b, bb);
  EXPECT_EQ(ba, bb);
}

TEST(WmcheckHash, AnyFieldChangeChangesHash) {
  const ModelConfig cfg;
  const State base = model::initial_state(cfg);
  const std::uint64_t h0 = model::state_hash(base);

  State s = base;
  s.round = 1;
  EXPECT_NE(model::state_hash(s), h0);

  s = base;
  s.proxied = 0;
  EXPECT_NE(model::state_hash(s), h0);

  s = base;
  s.pool_view[2] = 0;
  EXPECT_NE(model::state_hash(s), h0);

  s = base;
  s.agreement[1].removal = 3;
  EXPECT_NE(model::state_hash(s), h0);

  s = base;
  s.violations = model::kViolationDualProxy;
  EXPECT_NE(model::state_hash(s), h0);
}

TEST(WmcheckHash, FlightOrderIsCanonicalizedByApply) {
  // Two different enqueue orders of the same message set must converge to
  // the same canonical state: deliver-all from them yields identical
  // hashes. Exercised indirectly: apply() sorts flight, so two states
  // reached via different interleavings of independent sends dedup.
  const ModelConfig cfg = tiny_config();
  State s = model::initial_state(cfg);
  const State advanced = model::apply(s, {ActionKind::kAdvanceRound, 0, 0}, cfg);
  // The handoff emitted by the advance is at a deterministic position.
  ASSERT_GT(advanced.n_flight, 0);
  for (int i = 0; i + 1 < advanced.n_flight; ++i) {
    EXPECT_LE(advanced.flight[i].key(), advanced.flight[i + 1].key())
        << "apply() must keep the flight sorted";
  }
}

TEST(WmcheckHash, DedupCollapsesIdenticalEnqueues) {
  // Delivering a duplicated message twice ends in the same state as
  // delivering the original once (idempotent installs + canonical flight).
  ModelConfig cfg = tiny_config();
  cfg.dup_budget = 1;
  State s = model::initial_state(cfg);
  s = model::apply(s, {ActionKind::kAdvanceRound, 0, 0}, cfg);
  ASSERT_EQ(s.n_flight, 1);  // the round-boundary handoff
  State dup = model::apply(s, {ActionKind::kDuplicate, 0, 0}, cfg);
  ASSERT_EQ(dup.n_flight, 2);
  dup = model::apply(dup, {ActionKind::kDeliver, 0, 0}, cfg);
  dup = model::apply(dup, {ActionKind::kDeliver, 0, 0}, cfg);
  State once = model::apply(s, {ActionKind::kDeliver, 0, 0}, cfg);
  // Same protocol outcome; only the spent dup budget differs.
  EXPECT_EQ(dup.proxied, once.proxied);
  EXPECT_EQ(dup.pool_view, once.pool_view);
}

// ---------------------------------------------------------------------------
// Transition semantics pinned against protocol_params.hpp.

TEST(WmcheckModel, InitialStateHasExactlyOneProxy) {
  const ModelConfig cfg;
  const State s = model::initial_state(cfg);
  EXPECT_EQ(s.round, 0);
  int active = 0;
  for (int i = 1; i < cfg.n_nodes; ++i) {
    if (s.proxied & (1u << i)) ++active;
  }
  EXPECT_EQ(active, 1);
}

TEST(WmcheckModel, ScheduleRotatesEveryRound) {
  const std::uint8_t pool = 0b1110;  // nodes 1..3
  const std::int8_t p0 = model::proxy_of(0, pool);
  const std::int8_t p1 = model::proxy_of(1, pool);
  EXPECT_NE(p0, p1) << "renewal must move the proxy each round";
  EXPECT_EQ(model::proxy_of(0, pool), model::proxy_of(3, pool))
      << "round-robin over 3 candidates has period 3";
  EXPECT_EQ(model::proxy_of(5, static_cast<std::uint8_t>(0)), model::kNone);
}

TEST(WmcheckModel, ChurnRemovalUsesSharedDelayConstant) {
  // Crash a node, advance until the churn notice is emitted, and verify
  // the scheduled removal round is stamp + kChurnRemovalDelayRounds — the
  // same constant WatchmenPeer compiles against.
  ModelConfig cfg = tiny_config();
  cfg.max_rounds = 4;
  State s = model::initial_state(cfg);
  s = model::apply(s, {ActionKind::kCrash, 2, 0}, cfg);
  s = model::apply(s, {ActionKind::kAdvanceRound, 0, 0}, cfg);
  bool scheduled = false;
  for (int i = 1; i < cfg.n_nodes; ++i) {
    if (s.agreement[i].removal != model::kNone) {
      scheduled = true;
      EXPECT_EQ(s.agreement[i].removal,
                s.round + protocol::kChurnRemovalDelayRounds);
    }
  }
  EXPECT_TRUE(scheduled) << "the crashed node's proxy must announce churn";
}

TEST(WmcheckModel, RejoinRestoreUsesSharedDelayConstant) {
  ModelConfig cfg = tiny_config();
  cfg.max_rounds = 4;
  State s = model::initial_state(cfg);
  s = model::apply(s, {ActionKind::kCrash, 2, 0}, cfg);
  s = model::apply(s, {ActionKind::kAdvanceRound, 0, 0}, cfg);
  s = model::apply(s, {ActionKind::kRejoin, 2, 0}, cfg);
  // The rejoined node is not pool-eligible by its own view until the
  // agreed restore round (mirrors WatchmenPeer::rejoin).
  EXPECT_EQ(s.pool_view[2] & (1u << 2), 0u);
  EXPECT_EQ(s.agreement[2].restore,
            s.round + protocol::kRejoinRestoreDelayRounds);
}

TEST(WmcheckModel, RejoinNoticeMergesWhileThePoolHoldsThePlayer) {
  // WatchmenPeer merges every accepted rejoin notice; the model runs the
  // same rule (authority::merge_restore), so a notice reaching a node whose
  // pool still holds the player schedules a restore there too.
  const ModelConfig cfg = tiny_config();
  State s = model::initial_state(cfg);
  s = model::apply(s, {ActionKind::kCrash, 2, 0}, cfg);
  s.rejoined = 1;
  s.flight[0] = {MsgKind::kRejoinNotice, 2, 1, 2, s.round, 1};
  s.n_flight = 1;
  ASSERT_NE(s.pool_view[1] & (1u << 2), 0u);
  s = model::apply(s, {ActionKind::kDeliver, 0, 0}, cfg);
  EXPECT_EQ(s.agreement[1].restore,
            s.round + protocol::kRejoinRestoreDelayRounds);
}

TEST(WmcheckModel, RestoreCancelsALaterRemoval) {
  // As in WatchmenPeer::begin_frame: a restore falling due clears the
  // record, a removal scheduled for a later round included, so the player
  // never leaves the pool.
  ModelConfig cfg = tiny_config();
  cfg.max_rounds = 4;
  State s = model::initial_state(cfg);
  s = model::apply(s, {ActionKind::kCrash, 2, 0}, cfg);
  s.rejoined = 1;
  s.agreement[1] = {2, 1};  // removal at round 2, restore at round 1
  s = model::apply(s, {ActionKind::kAdvanceRound, 0, 0}, cfg);
  EXPECT_EQ(s.agreement[1].removal, model::kNone);
  s = model::apply(s, {ActionKind::kAdvanceRound, 0, 0}, cfg);
  EXPECT_NE(s.pool_view[1] & (1u << 2), 0u);
}

TEST(WmcheckModel, PoolFloorHoldsAChurnRemoval) {
  // At 3 nodes the pool is two proxies. The crashed one's proxy announces
  // and schedules its removal, but the floor (authority::boundary_step)
  // holds it on the record rather than leave a one-member view (I6).
  ModelConfig cfg = tiny_config();
  cfg.n_nodes = 3;
  cfg.max_rounds = 6;
  State s = model::initial_state(cfg);
  s = model::apply(s, {ActionKind::kCrash, 1, 0}, cfg);
  for (int r = 0; r < 5; ++r) {
    s = model::apply(s, {ActionKind::kAdvanceRound, 0, 0}, cfg);
  }
  ASSERT_NE(s.agreement[2].removal, model::kNone);
  EXPECT_LE(s.agreement[2].removal, s.round) << "the removal is due";
  EXPECT_NE(s.pool_view[2] & (1u << 1), 0u) << "...and held";
  EXPECT_EQ(s.violations & model::kViolationPoolFloor, 0);
}

TEST(WmcheckModel, StaleHandoffRejectedPerSharedConstant) {
  // A handoff stamped r is installable while r + kHandoffStaleRounds >=
  // current round; one round older must be ignored (faithful variant).
  const ModelConfig cfg;
  State s = model::initial_state(cfg);
  s = model::apply(s, {ActionKind::kAdvanceRound, 0, 0}, cfg);
  ASSERT_EQ(s.n_flight, 1);
  const Msg handoff = s.flight[0];
  ASSERT_EQ(handoff.kind, MsgKind::kHandoff);

  // Deliverable now: installs the successor.
  State ok = model::apply(s, {ActionKind::kDeliver, 0, 0}, cfg);
  EXPECT_NE(ok.proxied & (1u << handoff.to), 0u);

  // Force the same message to be one round staler than the validator
  // tolerates: it must not grant authority to a non-schedule node.
  State stale = s;
  stale.round = static_cast<std::int8_t>(
      handoff.stamp_round + protocol::kHandoffStaleRounds + 1);
  stale.proxied = 0;
  stale = model::apply(stale, {ActionKind::kDeliver, 0, 0}, cfg);
  EXPECT_EQ(stale.proxied & (1u << handoff.to), 0u)
      << "stale handoff must not install its target as proxy";
}

TEST(WmcheckModel, RetransmitBudgetTerminates) {
  // Faithful: once retries hit the budget, the retransmit action is no
  // longer enabled — I4 is termination by construction.
  ModelConfig cfg = tiny_config();
  State s = model::initial_state(cfg);
  s = model::apply(s, {ActionKind::kAdvanceRound, 0, 0}, cfg);
  int retransmits = 0;
  std::vector<Action> actions;
  for (int guard = 0; guard < 32; ++guard) {
    model::enabled_actions(s, cfg, actions);
    const Action* retr = nullptr;
    for (const Action& a : actions) {
      if (a.kind == ActionKind::kRetransmit) retr = &a;
    }
    if (!retr) break;
    s = model::apply(s, *retr, cfg);
    ++retransmits;
  }
  EXPECT_EQ(retransmits, cfg.retransmit_budget);
  EXPECT_EQ(s.violations, 0);
}

TEST(WmcheckModel, RetransmitBudgetPinnedToProtocolParams) {
  // The model checks a prefix of the shipped retry sequence: a budget of
  // protocol::kRetransmitBudget does not exhaust inside wmcheck_exhaustive's
  // state cap (DESIGN.md §5g). A change to either value must revisit that.
  const ModelConfig cfg;
  EXPECT_EQ(cfg.retransmit_budget, 2);
  EXPECT_EQ(protocol::kRetransmitBudget, 4);
  EXPECT_LE(cfg.retransmit_budget, protocol::kRetransmitBudget);
}

// ---------------------------------------------------------------------------
// The explorer on the faithful protocol.

TEST(WmcheckExplorer, TinyFaithfulSpaceExhaustsClean) {
  const CheckResult res = run(tiny_config());
  EXPECT_TRUE(res.exhausted);
  EXPECT_FALSE(res.found_violation);
  EXPECT_GT(res.quiescent_states, 0u) << "horizon must actually be reached";
  EXPECT_EQ(res.overflow_states, 0u);
}

TEST(WmcheckExplorer, DedupKeepsRevisitedStatesUnique) {
  // transitions >> states in any system with commuting actions; if dedup
  // broke, states_explored would approach transitions.
  const CheckResult res = run(tiny_config());
  EXPECT_GT(res.transitions, res.states_explored);
}

TEST(WmcheckExplorer, StateBudgetIsHonored) {
  ModelConfig cfg;  // full default budgets: far more than 500 states
  CheckLimits limits;
  limits.max_states = 500;
  const CheckResult res = model::check(cfg, limits);
  EXPECT_FALSE(res.exhausted);
  EXPECT_LE(res.states_explored, 500u);
}

// ---------------------------------------------------------------------------
// Seeded-broken corpus: each variant removes exactly one implementation
// guard; the checker must catch every one, with the matching violation.

namespace {

struct BrokenCase {
  Variant variant;
  std::uint8_t expected_flag;
};

/// The variant's config: the default one, except that the pool floor binds
/// only at 3 nodes, where the pool is two proxies.
ModelConfig variant_config(Variant v) {
  ModelConfig cfg;
  cfg.variant = v;
  if (v == Variant::kSkipPoolFloor) cfg.n_nodes = 3;
  return cfg;
}

CheckResult check_variant(Variant v) { return run(variant_config(v)); }

}  // namespace

TEST(WmcheckCorpus, EveryBrokenVariantIsCaught) {
  const BrokenCase cases[] = {
      {Variant::kSkipVantageCheck, model::kViolationDualProxy},
      {Variant::kAcceptUnsigned, model::kViolationUnsigned},
      {Variant::kUnboundedRetransmit, model::kViolationRetransmit},
      {Variant::kHandoffAnyRound, model::kViolationDualProxy},
      {Variant::kSkipPoolFloor, model::kViolationPoolFloor},
  };
  for (const BrokenCase& c : cases) {
    const CheckResult res = check_variant(c.variant);
    EXPECT_TRUE(res.found_violation)
        << "variant " << model::to_string(c.variant) << " not caught";
    EXPECT_NE(res.counterexample.violations & c.expected_flag, 0)
        << "variant " << model::to_string(c.variant)
        << " caught with the wrong violation: "
        << model::violations_to_string(res.counterexample.violations);
  }
}

TEST(WmcheckCorpus, CounterexamplesReplayToTheReportedViolation) {
  // A counterexample is only evidence if replaying its action list from
  // the initial state independently reproduces the violation.
  for (const Variant v :
       {Variant::kSkipVantageCheck, Variant::kAcceptUnsigned,
        Variant::kUnboundedRetransmit, Variant::kHandoffAnyRound,
        Variant::kSkipPoolFloor}) {
    const CheckResult res = check_variant(v);
    ASSERT_TRUE(res.found_violation) << model::to_string(v);
    const ModelConfig cfg = variant_config(v);
    State s = model::initial_state(cfg);
    for (const Action& a : res.counterexample.actions) {
      s = model::apply(s, a, cfg);
    }
    if (res.counterexample.at_quiescence) {
      EXPECT_TRUE(model::quiescent(s, cfg)) << model::to_string(v);
      EXPECT_EQ(model::quiescence_violations(s, cfg),
                res.counterexample.violations)
          << model::to_string(v);
    } else {
      EXPECT_EQ(s.violations, res.counterexample.violations)
          << model::to_string(v);
    }
  }
}

TEST(WmcheckCorpus, CounterexamplesAreMinimal) {
  // BFS explores by action count, so no strictly shorter action sequence
  // may reach the same violation flag. Verify for the cheapest variant by
  // brute-force: enumerate all sequences shorter than the counterexample.
  ModelConfig cfg;
  cfg.variant = Variant::kAcceptUnsigned;
  const CheckResult res = run(cfg);
  ASSERT_TRUE(res.found_violation);
  const std::size_t len = res.counterexample.actions.size();
  ASSERT_GT(len, 0u);

  std::vector<State> frontier{model::initial_state(cfg)};
  std::vector<Action> actions;
  for (std::size_t depth = 0; depth + 1 < len; ++depth) {
    std::vector<State> next;
    for (const State& s : frontier) {
      model::enabled_actions(s, cfg, actions);
      for (const Action& a : actions) {
        const State succ = model::apply(s, a, cfg);
        EXPECT_EQ(succ.violations, 0)
            << "violation reachable in " << depth + 1 << " actions but the "
            << "counterexample used " << len;
        next.push_back(succ);
      }
    }
    frontier = std::move(next);
  }
}

TEST(WmcheckCorpus, TraceRenderingCoversEveryStep) {
  ModelConfig cfg;
  cfg.variant = Variant::kHandoffAnyRound;
  const CheckResult res = run(cfg);
  ASSERT_TRUE(res.found_violation);
  const auto lines =
      model::render_trace(cfg, res.counterexample.actions);
  // init line + one line per action.
  EXPECT_EQ(lines.size(), res.counterexample.actions.size() + 1);
  for (const auto& line : lines) {
    EXPECT_FALSE(line.empty());
    EXPECT_EQ(line.find('?'), std::string::npos)
        << "describe() fell through to the unknown-action fallback: " << line;
  }
}
