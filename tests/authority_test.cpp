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
  struct Row {
    const char* what;
    Record before;
    std::int64_t r;
    bool in_pool, eligible;
    bool removed, restore_due, restored;
    Record after;
  };
  const Row rows[] = {
      {"nothing agreed", {}, 4, true, true, false, false, false, {}},
      {"removal not due yet", {5, -1}, 4, true, true, false, false, false,
       {5, -1}},
      {"due removal applies and stays on record", {4, -1}, 4, true, true, true,
       false, false, {4, -1}},
      {"late removal still applies", {2, -1}, 4, true, true, true, false,
       false, {2, -1}},
      {"restore re-adds a churn-removed player", {2, 4}, 4, false, true, false,
       true, true, {}},
      {"a barred player stays out", {2, 4}, 4, false, false, false, true,
       false, {}},
      {"restore clears a later removal", {6, 4}, 4, true, true, false, true,
       false, {}},
      {"restore only undoes churn removals", {-1, 4}, 4, false, true, false,
       true, false, {}},
      {"removal and restore due together", {4, 4}, 4, true, true, true, true,
       true, {}},
  };
  for (const Row& row : rows) {
    Record rec = row.before;
    const authority::BoundaryStep step =
        authority::boundary_step(rec, row.r, row.in_pool, row.eligible);
    EXPECT_EQ(step.removed, row.removed) << row.what;
    EXPECT_EQ(step.restore_due, row.restore_due) << row.what;
    EXPECT_EQ(step.restored, row.restored) << row.what;
    EXPECT_EQ(rec, row.after) << row.what;
  }
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
