// Table-driven tests for the proxy-authority rules (core/authority.hpp) that
// WatchmenPeer and the wmcheck model both run: one table per rule, each row
// an edge of that rule.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/authority.hpp"
#include "core/protocol_params.hpp"

namespace authority = watchmen::core::authority;
namespace protocol = watchmen::core::protocol;

using authority::Failover;
using authority::Handoff;
using Record = authority::PoolRecord<>;

namespace {

/// Player 0's proxy rotates over nodes 1..3 (round r -> 1 + r % 3); a
/// negative round answers node 9, so a rule that consults one shows up.
struct RoundRobin {
  std::vector<std::int64_t>* asked = nullptr;
  int operator()(int player, std::int64_t round) const {
    if (asked) asked->push_back(round);
    if (round < 0) return 9;
    return 1 + static_cast<int>((round + player) % 3);
  }
};

const RoundRobin kSched;
constexpr std::int64_t kStale = protocol::kHandoffStaleRounds;

}  // namespace

TEST(AuthorityHandoff, VerdictTable) {
  // Stamped in round 4: proxy_of(4) = 2 hands off to proxy_of(5) = 3.
  struct Row {
    const char* what;
    int origin, self;
    std::int64_t now;
    bool proxying;
    Handoff want;
  };
  const Row rows[] = {
      {"fresh, successor adopts", 2, 3, 5, false, Handoff::kAdopt},
      {"stamped now - kHandoffStaleRounds is accepted", 2, 3, 4 + kStale,
       false, Handoff::kAdopt},
      {"one round older is ignored", 2, 3, 4 + kStale + 1, false,
       Handoff::kIgnore},
      {"not the successor of stamp + 1", 2, 1, 5, false, Handoff::kIgnore},
      {"wrong origin is not an ignore", 1, 3, 5, false, Handoff::kWrongOrigin},
      {"wrong origin wins over proxying", 3, 3, 5, true, Handoff::kWrongOrigin},
      {"already proxying seeds, even stale", 2, 3, 9, true, Handoff::kSeed},
  };
  for (const Row& r : rows) {
    EXPECT_EQ(authority::handoff_verdict(kSched, 0, r.origin, r.self, 4, r.now,
                                         r.proxying),
              r.want)
        << r.what;
  }
}

TEST(AuthorityPool, MergeTable) {
  struct Row {
    const char* what;
    Record before;
    bool in_pool;
    std::int64_t notice, round;
    std::int64_t removal_after;
  };
  const Row rows[] = {
      {"first notice schedules", {}, true, 3, 5, 5},
      {"earliest round wins", {5, -1}, true, 3, 4, 4},
      {"a later round does not postpone", {4, -1}, true, 3, 6, 4},
      {"notice + 1 is the earliest allowed", {}, true, 3, 4, 4},
      {"a round before notice + 1 is refused", {}, true, 3, 3, -1},
      {"already out of the pool is refused", {}, false, 3, 5, -1},
  };
  for (const Row& r : rows) {
    Record rec = r.before;
    authority::merge_removal(rec, r.in_pool, r.notice, r.round);
    EXPECT_EQ(rec, (Record{r.removal_after, r.before.restore})) << r.what;
  }
  // Restores merge by the same rules; there is no pool-membership guard.
  Record rec;
  authority::merge_restore(rec, 3, 5);
  authority::merge_restore(rec, 3, 4);
  authority::merge_restore(rec, 3, 6);
  EXPECT_EQ(rec.restore, 4) << "earliest round wins";
  authority::merge_restore(rec, 5, 5);
  EXPECT_EQ(rec, (Record{-1, 4})) << "a round before notice + 1 is refused";
  EXPECT_EQ(authority::removal_round(7), 7 + protocol::kChurnRemovalDelayRounds);
  EXPECT_EQ(authority::restore_round(7), 7 + protocol::kRejoinRestoreDelayRounds);
}

TEST(AuthorityPool, BoundaryStepTable) {
  constexpr std::size_t kBig = 48;  // a pool the floor never binds on
  struct Row {
    const char* what;
    Record before;
    std::int64_t r;
    bool in_pool;
    std::size_t pool_size;
    bool eligible;
    bool removed, restore_due, restored;
    Record after;
  };
  const Row rows[] = {
      {"nothing agreed", {}, 4, true, kBig, true, false, false, false, {}},
      {"removal not due yet", {5, -1}, 4, true, kBig, true, false, false, false,
       {5, -1}},
      {"due removal applies and stays on record", {4, -1}, 4, true, kBig, true,
       true, false, false, {4, -1}},
      {"late removal still applies", {2, -1}, 4, true, kBig, true, true, false,
       false, {2, -1}},
      {"restore re-adds a churn-removed player", {2, 4}, 4, false, kBig, true,
       false, true, true, {}},
      {"a barred player stays out", {2, 4}, 4, false, kBig, false, false, true,
       false, {}},
      {"restore clears a later removal", {6, 4}, 4, true, kBig, true, false,
       true, false, {}},
      {"restore only undoes churn removals", {-1, 4}, 4, false, kBig, true,
       false, true, false, {}},
      {"removal and restore due together", {4, 4}, 4, true, kBig, true, true,
       true, true, {}},
      {"the floor holds a removal at 2 members", {4, -1}, 4, true, 2, true,
       false, false, false, {4, -1}},
      {"the floor allows a removal at 3 members", {4, -1}, 4, true, 3, true,
       true, false, false, {4, -1}},
      {"a restore is never refused", {2, 4}, 4, false, 2, true, false, true,
       true, {}},
      {"a restore clears a held removal", {4, 4}, 4, true, 2, true, false,
       true, false, {}},
  };
  for (const Row& row : rows) {
    Record rec = row.before;
    const authority::BoundaryStep step = authority::boundary_step(
        rec, row.r, row.in_pool, row.pool_size, row.eligible);
    EXPECT_EQ(step.removed, row.removed) << row.what;
    EXPECT_EQ(step.restore_due, row.restore_due) << row.what;
    EXPECT_EQ(step.restored, row.restored) << row.what;
    EXPECT_EQ(rec, row.after) << row.what;
  }
}

TEST(AuthorityPool, FloorTable) {
  EXPECT_EQ(protocol::kMinPoolMembers, 2);
  EXPECT_FALSE(authority::pool_keeps_floor(0));
  EXPECT_FALSE(authority::pool_keeps_floor(1));
  EXPECT_TRUE(authority::pool_keeps_floor(2));
  EXPECT_TRUE(authority::pool_keeps_floor(3));
}

TEST(AuthorityPool, HeldRemovalAppliesOnceARestoreGrowsThePool) {
  // The pool is {a, b}; a's removal falls due in round 4, and c, churned
  // out earlier, is restored in round 5.
  Record a{4, -1}, c{2, 5};
  std::size_t pool = 2;
  EXPECT_FALSE(authority::boundary_step(a, 4, true, pool).removed);
  EXPECT_EQ(a, (Record{4, -1})) << "a held removal stays on the record";
  EXPECT_FALSE(authority::boundary_step(a, 5, true, pool).removed)
      << "retried at each boundary, held while the pool is at the floor";
  ASSERT_TRUE(authority::boundary_step(c, 5, false, pool).restored);
  ++pool;
  EXPECT_TRUE(authority::boundary_step(a, 6, true, pool).removed);
  --pool;
  EXPECT_TRUE(authority::pool_keeps_floor(pool));
}

TEST(AuthorityPool, RejoinAndTransitionGrace) {
  Record rec{3, -1};
  EXPECT_EQ(authority::leave_for_rejoin(rec, 8), authority::restore_round(8));
  EXPECT_EQ(rec, (Record{8, 8 + protocol::kRejoinRestoreDelayRounds}));

  constexpr std::int64_t g = protocol::kPoolTransitionGraceRounds;
  EXPECT_TRUE(authority::in_transition_grace(10, 10));
  EXPECT_TRUE(authority::in_transition_grace(10, 10 - g));
  EXPECT_FALSE(authority::in_transition_grace(10, 10 - g - 1));
}

TEST(AuthorityPool, ContestedRemovalIsFollowedThenUndone) {
  // A fresh notice (stamped in round 5, removal in 7) heard in round 5: the
  // node leaves and re-enters its own view at the same boundary as
  // everyone that heard both notices.
  constexpr std::int64_t d = protocol::kRejoinRestoreDelayRounds;
  Record fresh;
  EXPECT_EQ(authority::contest_removal(fresh, true, 5, 7, 5), 5 + d);
  EXPECT_EQ(fresh, (Record{7, 5 + d}));
  // A stale one (a retransmit from a healed partition, removal in 7) heard
  // in round 9: it leaves at the next boundary and is restored 9 + d.
  Record stale;
  EXPECT_EQ(authority::contest_removal(stale, true, 5, 7, 9), 9 + d);
  EXPECT_EQ(stale, (Record{7, 9 + d}));
  const auto step = authority::boundary_step(stale, 10, true, 40);
  EXPECT_TRUE(step.removed);
  EXPECT_FALSE(step.restore_due);
  // Nothing to contest: out of its own pool, a restore already scheduled
  // (a second notice), or a notice rewriting the past.
  Record out;
  EXPECT_EQ(authority::contest_removal(out, false, 5, 7, 5), -1);
  EXPECT_EQ(out, Record{});
  EXPECT_EQ(authority::contest_removal(fresh, true, 6, 8, 6), -1);
  EXPECT_EQ(fresh, (Record{7, 5 + d}));
  Record past;
  EXPECT_EQ(authority::contest_removal(past, true, 5, 5, 5), -1);
}

TEST(AuthorityPool, SittingOutRunsFromRemovalToRestore) {
  Record rejoined;
  authority::leave_for_rejoin(rejoined, 8);
  EXPECT_TRUE(authority::sitting_out(rejoined, 8));
  EXPECT_TRUE(authority::sitting_out(rejoined, 9));
  // A pool at the floor holds the removal; the node still sits out, and
  // the restore clears the record, ending it.
  EXPECT_FALSE(authority::boundary_step(rejoined, 10, true, 2).removed);
  EXPECT_FALSE(authority::sitting_out(rejoined, 10));
  // A contested removal sits out only once it applies.
  Record contested{7, 9};
  EXPECT_FALSE(authority::sitting_out(contested, 6));
  EXPECT_TRUE(authority::sitting_out(contested, 7));
  // A churn removal of someone else's record, with no restore, is not it.
  EXPECT_FALSE(authority::sitting_out(Record{3, -1}, 5));
  EXPECT_FALSE(authority::sitting_out(Record{}, 5));
}

TEST(AuthorityNotice, AcceptanceTable) {
  // Notices about player 0 stamped in round 4, whose proxy is node 2.
  struct Row {
    const char* what;
    int origin;
    bool observed;  // churn: silent here; rejoin: alive here
    bool churn, rejoin;
  };
  const Row rows[] = {
      {"from the round's proxy", 2, false, true, true},
      {"from another node, unobserved", 3, false, false, false},
      {"from another node, observed here", 3, true, true, true},
      {"from the subject itself", 0, false, false, true},
  };
  for (const Row& r : rows) {
    EXPECT_EQ(authority::accept_churn_notice(kSched, 0, r.origin, 4, r.observed),
              r.churn)
        << r.what;
    EXPECT_EQ(
        authority::accept_rejoin_notice(kSched, 0, r.origin, 4, r.observed),
        r.rejoin)
        << r.what;
  }
}

TEST(AuthorityNear, OneRoundToleranceAndRoundZero) {
  struct Row {
    const char* what;
    int node;
    std::int64_t round;
    bool want;
  };
  const Row rows[] = {
      {"current proxy", 1, 0, true},
      {"next round's proxy", 2, 0, true},
      {"round -1 is not consulted at round 0", 9, 0, false},
      {"two rounds ahead", 3, 0, false},
      {"previous round's proxy after round 0", 1, 1, true},
  };
  for (const Row& r : rows) {
    std::vector<std::int64_t> asked;
    const RoundRobin sched{&asked};
    EXPECT_EQ(authority::near(sched, r.node, 0, r.round), r.want) << r.what;
    for (const std::int64_t q : asked) EXPECT_GE(q, 0) << r.what;
  }
}

TEST(AuthorityFailover, AdoptionTable) {
  // Round 4: proxy_of(4) = 2 is the incumbent, proxy_of(5) = 3 the successor.
  struct Row {
    const char* what;
    int self;
    bool incumbent_silent;
    Failover want;
  };
  const Row rows[] = {
      {"successor, incumbent silent here", 3, true, Failover::kAdopt},
      {"refused while the incumbent is heard", 3, false,
       Failover::kIncumbentHeard},
      {"the current proxy is not a failover", 2, true,
       Failover::kNotSuccessor},
      {"neither current nor successor", 1, true, Failover::kNotSuccessor},
  };
  for (const Row& r : rows) {
    int asked_about = -1;
    const auto silent_here = [&](int incumbent) {
      asked_about = incumbent;
      return r.incumbent_silent;
    };
    EXPECT_EQ(authority::failover(kSched, 0, r.self, 4, silent_here), r.want)
        << r.what;
    if (r.want != Failover::kNotSuccessor) {
      EXPECT_EQ(asked_about, 2) << r.what;
    }
  }
}
