// Chaos harness: seeded fault scripts swept through full protocol sessions.
//
// Each scenario layers a net::FaultPlan (bursty loss, partitions, targeted
// class drops, crash/rejoin) over an honest session and asserts the
// robustness invariants the chaos layer exists to protect:
//
//   * the session completes — no crash, no throw, no deadlock;
//   * no honest connected player is ever flagged (faults are the network's
//     misbehaviour, not the players');
//   * the pool view re-converges after the fault heals (churn removal and
//     rejoin/restore agreement both reach every peer);
//   * update freshness recovers to within a small factor of the fault-free
//     baseline once the fault window closes.
//
// Everything is seed-deterministic: the same FaultPlan + session seed must
// reproduce bit-identical NetStats (asserted explicitly below), which is
// what makes a chaos failure debuggable instead of a flake.
//
// Scenarios run the hardened profile (WatchmenConfig::hardened) unless they
// probe the paper protocol, which needs no option set.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "cheat/cheats.hpp"
#include "core/session.hpp"
#include "game/map.hpp"
#include "game/trace.hpp"
#include "net/fault.hpp"
#include "reputation/misbehavior_engine.hpp"

namespace watchmen::core {
namespace {

std::size_t flagged_connected(const WatchmenSession& s) {
  std::size_t n = 0;
  for (PlayerId p = 0; p < s.num_players(); ++p) {
    if (s.connected(p) && s.detector().flagged(p)) ++n;
  }
  return n;
}

// Mean of the IS-target staleness samples each peer collected after
// `marks` was snapshotted (per-peer sample counts at the measurement-window
// start). Staleness — the per-frame age of held state — is used rather
// than delivery age because it keeps growing when loss or a dead proxy
// starves a stream, which is exactly what recovery must undo.
double tail_mean_age(const WatchmenSession& s,
                     const std::vector<std::size_t>& marks) {
  double sum = 0.0;
  std::size_t n = 0;
  for (PlayerId p = 0; p < s.num_players(); ++p) {
    const auto& vals = s.peer(p).metrics().staleness_frames.values();
    for (std::size_t i = marks[p]; i < vals.size(); ++i) sum += vals[i];
    n += vals.size() - marks[p];
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

std::vector<std::size_t> age_sample_marks(const WatchmenSession& s) {
  std::vector<std::size_t> marks(s.num_players());
  for (PlayerId p = 0; p < s.num_players(); ++p) {
    marks[p] = s.peer(p).metrics().staleness_frames.values().size();
  }
  return marks;
}

class ChaosSession : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    map_ = new game::GameMap(game::make_longest_yard());
    game::SessionConfig cfg;
    cfg.n_players = 16;
    cfg.n_frames = 700;  // 35 s: room for fault + heal + settled tail
    cfg.seed = 42;
    trace_ = new game::GameTrace(game::record_session(*map_, cfg));
    game::SessionConfig small = cfg;
    small.n_players = 12;
    small.n_frames = 520;
    small_trace_ = new game::GameTrace(game::record_session(*map_, small));
  }
  static void TearDownTestSuite() {
    delete small_trace_;
    delete trace_;
    delete map_;
    small_trace_ = nullptr;
    trace_ = nullptr;
    map_ = nullptr;
  }

  static game::GameMap* map_;
  static game::GameTrace* trace_;
  static game::GameTrace* small_trace_;
};

game::GameMap* ChaosSession::map_ = nullptr;
game::GameTrace* ChaosSession::trace_ = nullptr;
game::GameTrace* ChaosSession::small_trace_ = nullptr;

// The issue's acceptance scenario: kill a proxy mid-round while a ~20 %
// bursty-loss window rages, under the hardened profile. The session
// must complete, ban nobody honest, evict the dead proxy everywhere, and
// recover post-heal freshness to within 2x the fault-free baseline.
TEST_F(ChaosSession, ProxyDeathUnderBurstyLossRecovers) {
  SessionOptions opts;
  opts.watchmen.hardened = true;
  opts.net = NetProfile::kFixed;
  opts.fixed_latency_ms = 25.0;
  opts.loss_rate = 0.01;

  // The node that proxies player 0 in round 4 dies at frame 175 — mid
  // round, after handing nothing off — inside a Gilbert–Elliott window
  // whose stationary loss is ~20 % (0.1/(0.1+0.4) bad, 90 % loss there).
  const ProxySchedule sched(opts.seed, trace_->n_players,
                            opts.watchmen.renewal_frames);
  const PlayerId victim = sched.proxy_of(0, 4);
  net::FaultPlan plan;
  plan.bursts.push_back(
      {time_of(120), time_of(280), net::GilbertElliott{0.1, 0.4, 0.02, 0.9}});
  plan.crashes.push_back({175, victim, -1});

  auto make = [&](bool with_faults) {
    SessionOptions o = opts;
    if (with_faults) o.faults = plan;
    return WatchmenSession(*trace_, *map_, o);
  };

  // Fault-free baseline for the recovery comparison, measured over the
  // same tail window (fault heals at 280; settle ~4 rounds; tail = last
  // 240 frames).
  WatchmenSession base = make(false);
  base.run_frames(460);
  const auto base_marks = age_sample_marks(base);
  base.run();
  const double base_tail = tail_mean_age(base, base_marks);
  ASSERT_GT(base_tail, 0.0);

  WatchmenSession chaos = make(true);
  chaos.run_frames(460);
  const auto chaos_marks = age_sample_marks(chaos);
  chaos.run();  // completes without throwing: invariant #1
  const double chaos_tail = tail_mean_age(chaos, chaos_marks);

  // Nobody honest banned. The victim itself may (correctly) carry escape
  // evidence — it vanished and never rejoined, which *is* churn.
  EXPECT_EQ(flagged_connected(chaos), 0u);

  // Every surviving peer evicted the dead proxy from its pool.
  for (PlayerId p = 0; p < trace_->n_players; ++p) {
    if (p == victim) continue;
    EXPECT_FALSE(chaos.peer(p).schedule().in_pool(victim)) << "peer " << p;
  }

  // Post-heal freshness within 2x of the fault-free tail (issue acceptance).
  EXPECT_LE(chaos_tail, 2.0 * base_tail)
      << "post-heal tail mean age " << chaos_tail << " vs baseline "
      << base_tail;

  // The reliability layer did real work under 20 % loss.
  std::uint64_t retransmits = 0, acks = 0;
  for (PlayerId p = 0; p < trace_->n_players; ++p) {
    for (auto r : chaos.peer(p).metrics().retransmits_by_type) retransmits += r;
    acks += chaos.peer(p).metrics().acks_received;
  }
  EXPECT_GT(retransmits, 0u);
  EXPECT_GT(acks, 0u);
}

// Same FaultPlan + seed => bit-identical network behaviour, including the
// per-class drop attribution (issue acceptance: seed-determinism).
TEST_F(ChaosSession, FaultScheduleIsSeedDeterministic) {
  auto run_once = [&]() {
    SessionOptions opts;
    opts.watchmen.hardened = true;
    opts.net = NetProfile::kFixed;
    opts.fixed_latency_ms = 25.0;
    opts.loss_rate = 0.02;
    net::FaultPlan plan;
    plan.bursts.push_back(
        {time_of(60), time_of(180), net::GilbertElliott{0.2, 0.3, 0.05, 0.8}});
    plan.partitions.push_back({time_of(200), time_of(240), {0, 1, 2}});
    plan.crashes.push_back({110, 7, 230});
    opts.faults = plan;
    WatchmenSession session(*small_trace_, *map_, opts);
    session.run_frames(300);
    const auto& st = session.network().stats();
    return std::make_tuple(st.sent, st.delivered, st.dropped,
                           st.dropped_by_class,
                           session.detector().total_reports());
  };
  EXPECT_EQ(run_once(), run_once());
}

// Satellite: the churn agreement must converge identically on every peer
// even when 10 % of all messages (including churn notices) vanish — the
// re-announce path covers lost notices.
TEST_F(ChaosSession, ChurnConvergesIdenticallyUnderTenPercentLoss) {
  SessionOptions opts;
  opts.net = NetProfile::kFixed;
  opts.fixed_latency_ms = 25.0;
  opts.loss_rate = 0.10;
  WatchmenSession session(*small_trace_, *map_, opts);

  session.run_frames(100);
  session.disconnect(3);
  session.run_frames(300);

  for (PlayerId p = 0; p < small_trace_->n_players; ++p) {
    if (p == 3) continue;
    EXPECT_FALSE(session.peer(p).schedule().in_pool(3)) << "peer " << p;
    // Full pool agreement, not just about the departed player: any
    // divergence here means two peers route through different proxies.
    for (PlayerId q = 0; q < small_trace_->n_players; ++q) {
      EXPECT_EQ(session.peer(p).schedule().in_pool(q),
                session.peer(4).schedule().in_pool(q))
          << "peers " << p << " and 4 disagree about " << q;
    }
  }
}

// Satellite: kill *every* handoff across a renewal boundary with the
// reliability layer OFF. The paper protocol must still limp back on its
// own: subscriptions re-establish through the periodic re-subscribe
// within about one renewal period. This pins the unhardened baseline the
// reliable path is measured against.
TEST_F(ChaosSession, HandoffLossRecoversViaResubscribeWithoutReliability) {
  SessionOptions opts;
  opts.net = NetProfile::kFixed;
  opts.fixed_latency_ms = 25.0;
  opts.loss_rate = 0.0;

  net::FaultPlan plan;
  // Round 2->3 boundary is frame 120; swallow every handoff around it.
  plan.class_drops.push_back(
      {time_of(119), time_of(161),
       static_cast<std::uint8_t>(MsgType::kHandoff), 1.0});

  WatchmenSession base(*small_trace_, *map_, opts);
  base.run_frames(240);
  SessionOptions fault_opts = opts;
  fault_opts.faults = plan;
  WatchmenSession fault(*small_trace_, *map_, fault_opts);
  fault.run_frames(240);

  // Every pair that is hot in the baseline (fresh state knowledge at frame
  // 240, two renewals after the fault) must be at most a few frames staler
  // in the fault run: re-subscription repaired the lost proxy tables.
  const Frame F = 240;
  int hot = 0;
  for (PlayerId a = 0; a < small_trace_->n_players; ++a) {
    for (PlayerId b = 0; b < small_trace_->n_players; ++b) {
      if (a == b) continue;
      if (base.peer(a).knowledge_of(b).track.state_frame < F - 10) continue;
      ++hot;
      EXPECT_GE(fault.peer(a).knowledge_of(b).track.state_frame, F - 15)
          << "pair " << a << " <- " << b << " never recovered";
    }
  }
  EXPECT_GT(hot, 0);
}

// With the reliability layer ON the same handoff blackout is absorbed by
// retransmission: handoffs get resent after the window, and a lossless
// network never retransmits at all.
TEST_F(ChaosSession, ReliableControlRetransmitsThroughHandoffBlackout) {
  SessionOptions opts;
  opts.watchmen.hardened = true;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;

  {  // Lossless: acks flow, nothing ever needs a second try.
    WatchmenSession s(*small_trace_, *map_, opts);
    s.run_frames(200);
    std::uint64_t retransmits = 0, acks = 0;
    for (PlayerId p = 0; p < small_trace_->n_players; ++p) {
      for (auto r : s.peer(p).metrics().retransmits_by_type) retransmits += r;
      acks += s.peer(p).metrics().acks_received;
    }
    EXPECT_EQ(retransmits, 0u);
    EXPECT_GT(acks, 0u);
  }

  net::FaultPlan plan;
  plan.class_drops.push_back(
      {time_of(119), time_of(140),
       static_cast<std::uint8_t>(MsgType::kHandoff), 1.0});
  opts.faults = plan;
  WatchmenSession s(*small_trace_, *map_, opts);
  s.run_frames(240);
  std::uint64_t handoff_retx = 0;
  for (PlayerId p = 0; p < small_trace_->n_players; ++p) {
    handoff_retx += s.peer(p)
                        .metrics()
                        .retransmits_by_type[static_cast<int>(MsgType::kHandoff)];
  }
  EXPECT_GT(handoff_retx, 0u) << "blackout must trigger handoff retransmits";
  EXPECT_EQ(flagged_connected(s), 0u);
}

// Partition and heal: split 4 nodes off for 1.5 rounds. Both sides churn
// the other out; after the heal the proxy-driven rejoin agreement must
// stitch one consistent pool view back together on every peer.
TEST_F(ChaosSession, PartitionHealsToOneConsistentPoolView) {
  SessionOptions opts;
  opts.watchmen.hardened = true;
  opts.net = NetProfile::kFixed;
  opts.fixed_latency_ms = 25.0;
  opts.loss_rate = 0.01;
  net::FaultPlan plan;
  plan.partitions.push_back({time_of(150), time_of(210), {0, 1, 2, 3}});
  opts.faults = plan;

  WatchmenSession session(*trace_, *map_, opts);
  session.run_frames(480);

  for (PlayerId p = 0; p < trace_->n_players; ++p) {
    for (PlayerId q = 0; q < trace_->n_players; ++q) {
      EXPECT_EQ(session.peer(p).schedule().in_pool(q),
                session.peer(0).schedule().in_pool(q))
          << "peers " << p << " and 0 disagree about " << q;
    }
  }
  EXPECT_EQ(flagged_connected(session), 0u);
}

// Crash + rejoin: the node is churned out while down, then re-enters the
// pool through the rejoin agreement, and the silence-driven evidence the
// crash accumulated is absolved.
TEST_F(ChaosSession, CrashedNodeRejoinsPoolAndIsNotBlamed) {
  SessionOptions opts;
  opts.watchmen.hardened = true;
  opts.net = NetProfile::kFixed;
  opts.fixed_latency_ms = 25.0;
  opts.loss_rate = 0.01;
  net::FaultPlan plan;
  plan.crashes.push_back({100, 5, 260});
  opts.faults = plan;

  WatchmenSession session(*small_trace_, *map_, opts);
  session.run_frames(250);
  // While down: churned out of every connected peer's pool.
  for (PlayerId p = 0; p < small_trace_->n_players; ++p) {
    if (p == 5) continue;
    EXPECT_FALSE(session.peer(p).schedule().in_pool(5)) << "peer " << p;
  }
  const auto before = session.peer(5).metrics().updates_received;

  session.run();  // rejoin fires at 260; restore agreed a couple rounds on

  for (PlayerId p = 0; p < small_trace_->n_players; ++p) {
    EXPECT_TRUE(session.peer(p).schedule().in_pool(5)) << "peer " << p;
  }
  EXPECT_FALSE(session.detector().flagged(5))
      << "a completed rejoin proves churn, not cheating";
  EXPECT_EQ(flagged_connected(session), 0u);
  EXPECT_GT(session.peer(5).metrics().updates_received, before)
      << "the rejoined node must start receiving updates again";
}

// ---------------------------------------------------------------------------
// Reputation-layer attack scenarios (DESIGN.md §5h). Full sessions with the
// misbehavior engine enforcing standing, run here so the ASan/TSan chaos
// steps cover the fabricated-report and crash-refund paths end to end; the
// statistical sweep with the acceptance gates is bench/misbehavior_sweep.

TEST_F(ChaosSession, CollusionCliqueCannotFrameHonestVictim) {
  SessionOptions opts;
  opts.watchmen.hardened = true;
  opts.net = NetProfile::kFixed;
  opts.fixed_latency_ms = 25.0;
  opts.loss_rate = 0.01;
  opts.misbehavior_enforcement = true;

  // A third of the session fabricates witness reports framing player 0.
  std::vector<std::unique_ptr<cheat::CollusionFrameCheat>> clique;
  std::unordered_map<PlayerId, Misbehavior*> mbs;
  for (PlayerId p = 8; p < 12; ++p) {
    clique.push_back(std::make_unique<cheat::CollusionFrameCheat>(
        7000 + p, /*rate=*/0.5, /*victim=*/0));
    mbs[p] = clique.back().get();
  }

  WatchmenSession session(*small_trace_, *map_, opts, mbs);
  session.run();

  const reputation::MisbehaviorEngine& eng = session.misbehavior();
  EXPECT_DOUBLE_EQ(eng.score(0), 0.0)
      << "witness evidence corroborates, never convicts";
  for (PlayerId p = 0; p < 8; ++p) {
    EXPECT_EQ(eng.standing(p), reputation::Standing::kGood) << "peer " << p;
  }
}

TEST_F(ChaosSession, SybilForgedVantageReboundsUnderBurstyLoss) {
  SessionOptions opts;
  opts.watchmen.hardened = true;
  opts.net = NetProfile::kFixed;
  opts.fixed_latency_ms = 25.0;
  opts.loss_rate = 0.01;
  opts.misbehavior_enforcement = true;
  net::FaultPlan plan;
  plan.bursts.push_back({time_of(100), time_of(260), {0.1, 0.4, 0.02, 0.9}});
  opts.faults = plan;

  // Three Sybils smear the honest population, escalating every report to a
  // forged proxy-vantage claim.
  std::vector<PlayerId> targets;
  for (PlayerId p = 0; p < 9; ++p) targets.push_back(p);
  std::vector<std::unique_ptr<cheat::SybilSwarmCheat>> sybils;
  std::unordered_map<PlayerId, Misbehavior*> mbs;
  for (PlayerId p = 9; p < 12; ++p) {
    sybils.push_back(std::make_unique<cheat::SybilSwarmCheat>(
        8000 + p, /*rate=*/0.1, targets, /*forge_proxy_vantage=*/1.0));
    mbs[p] = sybils.back().get();
  }

  WatchmenSession session(*small_trace_, *map_, opts, mbs);
  session.run();

  const reputation::MisbehaviorEngine& eng = session.misbehavior();
  EXPECT_GT(eng.forged_vantage_reports(), 0u);
  for (const PlayerId t : targets) {
    EXPECT_EQ(eng.standing(t), reputation::Standing::kGood) << "target " << t;
  }
  // The rebound penalties accrue on the swarm, not its targets.
  double sybil_score = 0.0, target_score = 0.0;
  for (PlayerId p = 9; p < 12; ++p) sybil_score += eng.score(p);
  for (const PlayerId t : targets) target_score += eng.score(t);
  EXPECT_GT(sybil_score, target_score);
}

TEST_F(ChaosSession, RatingWashCrashRejoinKeepsPreCrashScore) {
  SessionOptions opts;
  opts.watchmen.hardened = true;
  opts.net = NetProfile::kFixed;
  opts.fixed_latency_ms = 25.0;
  opts.loss_rate = 0.01;
  opts.misbehavior_enforcement = true;
  net::FaultPlan plan;
  plan.crashes.push_back({240, 0, 400});
  opts.faults = plan;

  cheat::RatingWashCheat wash(99, /*rate=*/0.15, /*speed_factor=*/6.0,
                              /*crash_at=*/240);
  std::unordered_map<PlayerId, Misbehavior*> mbs{{0, &wash}};

  WatchmenSession session(*small_trace_, *map_, opts, mbs);
  session.run_frames(240);
  const double pre_crash = session.misbehavior().score(0);
  EXPECT_GT(pre_crash, 0.0) << "the speed hack must have scored by now";

  session.run_frames(161);  // through the rejoin at 400
  const double post_rejoin = session.misbehavior().score(0);
  // Silence-driven gap penalties are refunded; the cheating itself is not.
  EXPECT_GE(post_rejoin, pre_crash - reputation::penalty::kPosition)
      << "crash+rejoin must not launder more than one penalty unit";

  session.run();
  for (PlayerId p = 1; p < small_trace_->n_players; ++p) {
    EXPECT_FALSE(session.detector().flagged(p))
        << "honest peer " << p << " stays unflagged through the attack";
  }
}

}  // namespace
}  // namespace watchmen::core
