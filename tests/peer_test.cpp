// Focused protocol tests for WatchmenPeer: message dispatch, replay
// windows, handoff validation, churn notices, and hybrid/heterogeneous
// pool configurations — driven through small scripted sessions.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cheat/cheats.hpp"
#include "core/session.hpp"
#include "game/map.hpp"
#include "game/trace.hpp"
#include "net/fault.hpp"
#include "reputation/misbehavior_engine.hpp"

namespace watchmen::core {
namespace {

class PeerProtocol : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    map_ = new game::GameMap(game::make_longest_yard());
    game::SessionConfig cfg;
    cfg.n_players = 12;
    cfg.n_frames = 400;
    cfg.seed = 11;
    trace_ = new game::GameTrace(game::record_session(*map_, cfg));
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete map_;
    trace_ = nullptr;
    map_ = nullptr;
  }
  static game::GameMap* map_;
  static game::GameTrace* trace_;
};

game::GameMap* PeerProtocol::map_ = nullptr;
game::GameTrace* PeerProtocol::trace_ = nullptr;

TEST_F(PeerProtocol, PoolWeightsApplyToAllPeers) {
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  // Players 0-3 never serve as proxies.
  for (PlayerId p = 0; p < 4; ++p) opts.pool_weights.emplace_back(p, 0.0);
  WatchmenSession session(*trace_, *map_, opts);
  session.run_frames(200);

  for (PlayerId p = 0; p < 12; ++p) {
    for (PlayerId weak = 0; weak < 4; ++weak) {
      EXPECT_FALSE(session.peer(p).schedule().in_pool(weak));
    }
    // No peer's schedule hands a weak player anyone to proxy.
    for (PlayerId q = 0; q < 12; ++q) {
      EXPECT_GE(session.peer(p).schedule().proxy_at(q, 199), 4u)
          << "peer " << p << " subject " << q;
    }
    // Weak players still get proxied by someone else.
    EXPECT_GE(session.peer(p).schedule().proxy_at(0, 100), 4u);
  }
  // And no weak player proxies anybody.
  for (PlayerId weak = 0; weak < 4; ++weak) {
    EXPECT_TRUE(session.peer(weak).proxied_players().empty())
        << "player " << weak;
  }
}

TEST_F(PeerProtocol, UploadCapsApplyThroughOptions) {
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  opts.upload_bps.emplace_back(0, 50'000.0);  // heavily constrained
  opts.pool_weights.emplace_back(0, 0.0);     // and excluded from the pool
  WatchmenSession session(*trace_, *map_, opts);
  session.run();
  // The constrained player-role upload still fits: everyone keeps hearing
  // from player 0.
  for (PlayerId p = 1; p < 12; ++p) {
    EXPECT_GT(session.peer(p).knowledge_of(0).pos_frame, 300);
  }
}

TEST_F(PeerProtocol, ReplayedWiresAreDroppedAndBlamed) {
  cheat::ReplayCheat ch(3, 0.10);
  std::unordered_map<PlayerId, Misbehavior*> mbs{{2, &ch}};
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  WatchmenSession session(*trace_, *map_, opts, mbs);
  session.run();

  ASSERT_GT(ch.cheat_frames().size(), 5u);
  // Replays are rejected through two complementary paths: stale-sequence
  // drops (when the receiver tracks the replayed origin) and wrong-proxy
  // consistency violations (when the replayer forwards someone else's
  // signed message). Together they must cover most injections.
  std::uint64_t drops = 0;
  for (PlayerId p = 0; p < 12; ++p) {
    drops += session.peer(p).metrics().dropped_replays;
  }
  EXPECT_GT(drops, 0u);
  EXPECT_TRUE(session.detector().flagged(2));
  EXPECT_GE(session.detector().summary(2).high_confidence_reports,
            ch.cheat_frames().size() / 2);
}

TEST_F(PeerProtocol, TamperedForwardsCountSignatureRejects) {
  cheat::MaliciousProxyCheat ch(/*tamper=*/true, 1.0, 3);
  std::unordered_map<PlayerId, Misbehavior*> mbs{{4, &ch}};
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  WatchmenSession session(*trace_, *map_, opts, mbs);
  session.run();

  std::uint64_t rejects = 0;
  for (PlayerId p = 0; p < 12; ++p) {
    rejects += session.peer(p).metrics().sig_rejects;
  }
  EXPECT_GT(rejects, 100u);
  EXPECT_TRUE(session.detector().flagged(4));
  // Nobody else gets blamed for the tampering.
  const auto& s4 = session.detector().summary(4);
  for (PlayerId p = 0; p < 12; ++p) {
    if (p == 4) continue;
    EXPECT_LT(session.detector().summary(p).high_confidence_reports,
              s4.high_confidence_reports / 4 + 2);
  }
}

TEST_F(PeerProtocol, RateToleranceFollowsTheProfile) {
  // A player that withholds one state update in five misses 20 % of every
  // round: past the paper's rate allowance (kPaperTolerance, 10 %), inside
  // the hardened profile's (kHardenedTolerance, 30 %).
  static_assert(kPaperTolerance.rate < 0.2 && kHardenedTolerance.rate > 0.2);
  const auto proxy_rate_reports = [](bool hardened) {
    cheat::SuppressCorrectCheat ch(/*period=*/5, /*burst=*/1);
    std::unordered_map<PlayerId, Misbehavior*> mbs{{5, &ch}};
    SessionOptions opts;
    opts.net = NetProfile::kLan;
    opts.loss_rate = 0.0;
    opts.watchmen.hardened = hardened;
    WatchmenSession session(*trace_, *map_, opts, mbs);
    session.run();
    std::size_t n = 0;
    for (const verify::CheatReport& r : session.detector().reports()) {
      n += r.suspect == 5 && r.type == verify::CheckType::kRate &&
           r.vantage == verify::Vantage::kProxy;
    }
    return n;
  };
  // One report per proxy round, bar the partial first and last rounds.
  EXPECT_GE(proxy_rate_reports(false), 7u);
  EXPECT_EQ(proxy_rate_reports(true), 0u);
}

TEST_F(PeerProtocol, HandoffsKeepSubscriptionsAliveAcrossRounds) {
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  WatchmenSession session(*trace_, *map_, opts);
  session.run();

  // A healthy session: everyone kept receiving frequent updates through
  // many proxy rotations (10 rounds in 400 frames).
  for (PlayerId p = 0; p < 12; ++p) {
    EXPECT_GT(session.peer(p).metrics().updates_received, 1000u);
  }
  // And proxy handoffs happened: each peer proxied someone at some point.
  std::size_t total_handoffs = 0;
  for (PlayerId p = 0; p < 12; ++p) {
    total_handoffs += session.peer(p).metrics().sent_by_type[static_cast<int>(
        MsgType::kHandoff)];
  }
  // ~12 players x 9 boundaries x 2 (redundant copies).
  EXPECT_GT(total_handoffs, 100u);
}

TEST_F(PeerProtocol, ChurnNoticeFromNonProxyIsRejected) {
  // Craft a churn notice from a player that is NOT the subject's proxy:
  // receivers must flag the sender and keep the subject in the pool.
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  WatchmenSession session(*trace_, *map_, opts);
  session.run_frames(100);

  const PlayerId subject = 3;
  const std::int64_t round = session.peer(0).schedule().round_of(99);
  // Find a player that is NOT subject's proxy.
  PlayerId liar = 0;
  while (liar == subject ||
         session.peer(0).schedule().proxy_of(subject, round) == liar) {
    ++liar;
  }
  MsgHeader h;
  h.type = MsgType::kChurnNotice;
  h.origin = liar;
  h.subject = subject;
  h.frame = 99;
  h.seq = 1 << 20;
  const auto wire =
      seal(h, encode_churn_body(round + 2), session.keys().key_pair(liar));
  for (PlayerId p = 0; p < 12; ++p) {
    if (p != liar) session.network().send(liar, p, wire);
  }
  session.run_frames(150);  // past the claimed removal round

  for (PlayerId p = 0; p < 12; ++p) {
    EXPECT_TRUE(session.peer(p).schedule().in_pool(subject))
        << "forged churn notice evicted an honest player";
  }
  EXPECT_GT(session.detector().summary(liar).high_confidence_reports, 0u);
}

TEST_F(PeerProtocol, DisconnectedPlayerEventuallyLeavesEveryPool) {
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  WatchmenSession session(*trace_, *map_, opts);
  session.run_frames(80);
  session.disconnect(7);
  session.run_frames(200);
  for (PlayerId p = 0; p < 12; ++p) {
    if (p == 7) continue;
    EXPECT_FALSE(session.peer(p).schedule().in_pool(7)) << "peer " << p;
  }
}

TEST_F(PeerProtocol, ChurnedViewProxyReportsAreNotForgeries) {
  // Player 7 crashes for good, so every pool drops it and the schedule
  // reshuffles. A cheater's proxy under the churned view must be able to
  // report it with proxy vantage: the claim is checked against that
  // proxy's own view, not against the schedule from before the crash.
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  const ProxySchedule initial(opts.seed, 12, opts.watchmen.renewal_frames);
  ProxySchedule churned = initial;
  churned.remove_from_pool(7);
  // The removal applies at the round-4 boundary (asserted below). The
  // cheater is one whose proxy the reshuffle leaves in place in round 4 but
  // moves in the most later rounds: a proxy still serving the round its
  // own view reassigns is another case (DESIGN.md §5h).
  constexpr std::int64_t kRemovalRound = 4;
  PlayerId cheater = 0;
  int best = -1;
  for (PlayerId c = 0; c < 12; ++c) {
    if (c == 7 || initial.proxy_of(c, kRemovalRound) !=
                      churned.proxy_of(c, kRemovalRound)) {
      continue;
    }
    int moved = 0;
    for (std::int64_t r = kRemovalRound + 1; r < 10; ++r) {
      moved += initial.proxy_of(c, r) != churned.proxy_of(c, r);
    }
    if (moved > best) {
      best = moved;
      cheater = c;
    }
  }
  cheat::SpeedHackCheat hack(5, /*rate=*/0.3, /*speed_factor=*/6.0);
  WatchmenSession session(*trace_, *map_, opts, {{cheater, &hack}});
  std::vector<PlayerId> accused;  // reporters charged with a forged vantage
  session.misbehavior().set_penalty_signal(
      [&accused](PlayerId subject, reputation::PenaltyReason reason, double,
                 double) {
        if (reason == reputation::PenaltyReason::kFalseAccusation) {
          accused.push_back(subject);
        }
      });
  session.run_frames(80);
  session.disconnect(7);
  const Frame removal = initial.round_start(kRemovalRound);
  session.run_frames(static_cast<std::size_t>(removal - 80));
  ASSERT_TRUE(session.peer(0).schedule().in_pool(7));
  session.run_frames(1);
  ASSERT_FALSE(session.peer(0).schedule().in_pool(7));
  session.run();

  for (PlayerId p = 0; p < 12; ++p) {
    if (p == 7) continue;
    ASSERT_FALSE(session.peer(p).schedule().in_pool(7)) << "peer " << p;
  }
  // The path under test ran: proxies only the churned view names reported
  // the cheater with proxy vantage.
  std::set<PlayerId> churned_proxies;
  for (const verify::CheatReport& r : session.detector().reports()) {
    const std::int64_t round = initial.round_of(r.frame);
    if (r.suspect == cheater && r.vantage == verify::Vantage::kProxy &&
        r.verifier == churned.proxy_of(cheater, round) &&
        !initial.proxy_near(r.verifier, cheater, round)) {
      churned_proxies.insert(r.verifier);
    }
  }
  ASSERT_FALSE(churned_proxies.empty()) << "cheater " << cheater;
  for (const PlayerId v : churned_proxies) {
    EXPECT_EQ(std::count(accused.begin(), accused.end(), v), 0)
        << "honest proxy " << v << " charged as a forger";
  }
}

TEST_F(PeerProtocol, SpoofedChurnBodyCannotRewriteThePast) {
  // A removal round in the past must be ignored even from the real proxy.
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  WatchmenSession session(*trace_, *map_, opts);
  session.run_frames(120);

  const PlayerId subject = 5;
  const std::int64_t round = session.peer(0).schedule().round_of(119);
  const PlayerId proxy = session.peer(0).schedule().proxy_of(subject, round);
  MsgHeader h;
  h.type = MsgType::kChurnNotice;
  h.origin = proxy;
  h.subject = subject;
  h.frame = 119;
  h.seq = 1 << 20;
  const auto wire =
      seal(h, encode_churn_body(0), session.keys().key_pair(proxy));
  for (PlayerId p = 0; p < 12; ++p) {
    if (p != proxy) session.network().send(proxy, p, wire);
  }
  session.run_frames(100);
  for (PlayerId p = 0; p < 12; ++p) {
    EXPECT_TRUE(session.peer(p).schedule().in_pool(subject));
  }
}

TEST_F(PeerProtocol, EscapeTriggersChurnNotices) {
  cheat::EscapeCheat ch(160);
  std::unordered_map<PlayerId, Misbehavior*> mbs{{6, &ch}};
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  WatchmenSession session(*trace_, *map_, opts, mbs);
  session.run();

  // The escaped player is detected AND evicted from the pool.
  EXPECT_TRUE(session.detector().flagged(6));
  std::size_t evicted = 0;
  for (PlayerId p = 0; p < 12; ++p) {
    if (p != 6 && !session.peer(p).schedule().in_pool(6)) ++evicted;
  }
  EXPECT_GE(evicted, 10u);
}

TEST_F(PeerProtocol, ForgedSubscriberListIgnored) {
  // In direct-update mode, only a player's own proxy may hand it a
  // subscriber list; a forged list would let an attacker redirect a
  // victim's frequent stream to itself.
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  opts.watchmen.direct_updates = true;
  WatchmenSession session(*trace_, *map_, opts);
  session.run_frames(100);

  const PlayerId victim = 2;
  PlayerId liar = 5;
  while (liar == victim ||
         session.peer(0).schedule().proxy_at(victim, 99) == liar) {
    ++liar;
  }
  // The liar names itself as victim's sole IS subscriber.
  MsgHeader h;
  h.type = MsgType::kSubscriberList;
  h.origin = liar;
  h.subject = victim;
  h.frame = 99;
  h.seq = 1 << 20;
  const auto wire = seal(h, encode_subscriber_list_body({liar}),
                         session.keys().key_pair(liar));
  session.network().send(liar, victim, wire);

  const auto before = session.peer(liar).metrics().updates_received;
  session.run_frames(10);
  // The victim must not have started pushing to the liar beyond what its
  // genuine subscriptions deliver: receiving rate unchanged (~10 frames of
  // normal traffic, not a fresh 20 Hz stream from the victim on top).
  const auto after = session.peer(liar).metrics().updates_received;
  EXPECT_LT(after - before, 600u);
  session.run_frames(100);  // and the session stays healthy
  EXPECT_GT(session.peer(victim).metrics().updates_received, 400u);
}

TEST_F(PeerProtocol, DirectModeSurvivesChurn) {
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  opts.watchmen.direct_updates = true;
  WatchmenSession session(*trace_, *map_, opts);
  session.run_frames(80);
  session.disconnect(3);
  session.run_frames(240);

  for (PlayerId p = 0; p < 12; ++p) {
    if (p == 3) continue;
    EXPECT_FALSE(session.peer(p).schedule().in_pool(3));
    EXPECT_GT(session.peer(p).metrics().updates_received, 800u);
  }
}

TEST_F(PeerProtocol, MetricsAccounting) {
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  WatchmenSession session(*trace_, *map_, opts);
  session.run();

  for (PlayerId p = 0; p < 12; ++p) {
    const PeerMetrics& m = session.peer(p).metrics();
    // 400 frames: one state update per frame, guidance+pos every 20.
    EXPECT_EQ(m.sent_by_type[static_cast<int>(MsgType::kStateUpdate)], 400u);
    EXPECT_EQ(m.sent_by_type[static_cast<int>(MsgType::kGuidance)], 20u);
    EXPECT_EQ(m.sent_by_type[static_cast<int>(MsgType::kPositionUpdate)], 20u);
    EXPECT_EQ(m.sig_rejects, 0u);
    EXPECT_EQ(m.dropped_replays, 0u);
  }
}

TEST_F(PeerProtocol, MalformedSignedBodiesAreDropped) {
  // A player seals malformed bodies under its own key: the signature holds,
  // the body does not decode. Every receiver must drop the message instead
  // of letting the decode error escape the session, on the direct leg
  // (origin -> its proxy) and on the forwarded leg (non-origin -> witness).
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  WatchmenSession session(*trace_, *map_, opts);
  session.run_frames(100);

  const PlayerId origin = 4;
  const PlayerId target = 7;  // the kill victim / subscription target
  const auto truncated = [](std::vector<std::uint8_t> body, std::size_t n) {
    body.resize(std::min(body.size(), n));
    return body;
  };
  KillClaim claim;
  claim.victim = target;
  claim.distance = 300.0;
  auto bad_weapon_kill = encode_kill_body(claim);
  bad_weapon_kill[4] = 0xff;  // after the u32 victim
  interest::Guidance g;
  g.frame = 99;
  g.waypoints = {{1.0, 2.0, 3.0}};
  auto bad_weapon_guidance = encode_guidance_body(g);
  // The weapon byte is where two bodies differing only in weapon differ.
  interest::Guidance railgun = g;
  railgun.weapon = game::WeaponKind::kRailgun;
  const auto other = encode_guidance_body(railgun);
  ASSERT_EQ(other.size(), bad_weapon_guidance.size());
  const auto weapon_at = static_cast<std::size_t>(
      std::mismatch(other.begin(), other.end(), bad_weapon_guidance.begin())
          .first -
      other.begin());
  ASSERT_LT(weapon_at, other.size());
  bad_weapon_guidance[weapon_at] = 0xff;

  struct Case {
    const char* name;
    MsgType type;
    PlayerId subject;
    std::vector<std::uint8_t> body;
  };
  const std::vector<Case> cases = {
      {"kill/truncated", MsgType::kKillClaim, target,
       truncated(encode_kill_body(claim), 3)},
      {"kill/weapon 0xff", MsgType::kKillClaim, target, bad_weapon_kill},
      {"guidance/truncated", MsgType::kGuidance, origin,
       truncated(encode_guidance_body(g), 3)},
      {"guidance/weapon 0xff", MsgType::kGuidance, origin, bad_weapon_guidance},
      {"position/truncated", MsgType::kPositionUpdate, origin,
       truncated(encode_position_body({1.0, 2.0, 3.0}), 3)},
      {"subscribe/truncated", MsgType::kSubscribe, target, {}},
      {"subscribe/set kind 7", MsgType::kSubscribe, target, {7}},
  };

  std::uint32_t seq = 1u << 20;
  for (const Case& c : cases) {
    for (const bool direct : {true, false}) {
      const Frame f = session.current_frame();
      const ProxySchedule& sched = session.peer(0).schedule();
      const PlayerId proxy = sched.proxy_at(origin, f);
      PlayerId from = origin;
      PlayerId to = proxy;
      if (!direct) {
        // A forward from the origin's proxy passes the forwarder check; a
        // second-hop subscribe goes to the target's proxy.
        from = proxy;
        if (c.type == MsgType::kSubscribe) {
          to = sched.proxy_at(c.subject, f);
        } else {
          to = 0;
          while (to == origin || to == proxy) ++to;
        }
        if (from == to) {
          from = 0;
          while (from == origin || from == to) ++from;
        }
      }
      MsgHeader h;
      h.type = c.type;
      h.origin = origin;
      h.subject = c.subject;
      h.frame = f;
      h.seq = seq++;
      session.network().send(
          from, to, seal(h, c.body, session.keys().key_pair(origin)));
      EXPECT_NO_THROW(session.run_frames(2))
          << c.name << (direct ? " on the direct leg" : " on the forwarded leg");
    }
  }

  // The session keeps running: every peer keeps receiving updates.
  std::vector<std::uint64_t> before(12);
  for (PlayerId p = 0; p < 12; ++p) {
    before[p] = session.peer(p).metrics().updates_received;
  }
  session.run_frames(40);
  for (PlayerId p = 0; p < 12; ++p) {
    EXPECT_GT(session.peer(p).metrics().updates_received, before[p])
        << "peer " << p;
  }

  // Control bodies decode before any state changes too, and before the
  // reliable control plane acks them: a malformed handoff makes its
  // successor adopt nobody, a malformed churn notice schedules no removal,
  // and none of them is acked. A well-formed handoff summarizing another
  // player is acked (receipt, not approval) but adopts nobody either.
  opts.watchmen.hardened = true;
  WatchmenSession hardened(*trace_, *map_, opts);
  hardened.run_frames(100);
  const Frame f = hardened.network().clock().frame();
  const ProxySchedule& sched = hardened.peer(0).schedule();
  const std::int64_t r = sched.round_of(f);
  PlayerId subject = 0;  // one whose proxy changes at the next round
  while (sched.proxy_of(subject, r) == sched.proxy_of(subject, r + 1)) {
    ++subject;
  }
  const PlayerId old_proxy = sched.proxy_of(subject, r);
  const PlayerId successor = sched.proxy_of(subject, r + 1);
  AckBody ack;
  ack.acked_origin = successor;
  auto bad_type_ack = encode_ack_body(ack);
  bad_type_ack.back() = 0x7f;
  HandoffPayload elsewhere;
  elsewhere.summary.player = old_proxy;

  struct ControlCase {
    const char* name;
    MsgType type;
    PlayerId origin;
    PlayerId to;
    std::vector<std::uint8_t> body;
    bool well_formed = false;
  };
  const std::vector<ControlCase> control_cases = {
      {"handoff/empty", MsgType::kHandoff, old_proxy, successor, {}},
      {"handoff/truncated", MsgType::kHandoff, old_proxy, successor,
       truncated(encode_handoff_body({}), 5)},
      {"churn/truncated", MsgType::kChurnNotice, old_proxy, successor,
       truncated(encode_churn_body(r + 1), 3)},
      {"rejoin/truncated", MsgType::kRejoinNotice, subject, successor,
       truncated(encode_rejoin_body(r + 2), 3)},
      {"ack/truncated", MsgType::kAck, old_proxy, successor,
       truncated(encode_ack_body(ack), 2)},
      {"ack/type 0x7f", MsgType::kAck, old_proxy, successor, bad_type_ack},
      {"handoff/other player", MsgType::kHandoff, old_proxy, successor,
       encode_handoff_body(elsewhere), true},
  };
  for (const ControlCase& c : control_cases) {
    MsgHeader h;
    h.type = c.type;
    h.origin = c.origin;
    h.subject = subject;
    h.frame = f;
    h.seq = seq++;
    net::Envelope env;
    env.from = c.origin;
    env.to = c.to;
    env.payload = std::make_shared<const std::vector<std::uint8_t>>(
        seal(h, c.body, hardened.keys().key_pair(c.origin)));
    WatchmenPeer& receiver = hardened.peer(c.to);
    const PeerMetrics before_case = receiver.metrics();
    receiver.on_message(env);
    EXPECT_EQ(receiver.metrics().acks_sent,
              before_case.acks_sent + (c.well_formed ? 1 : 0))
        << c.name;
    EXPECT_EQ(receiver.metrics().acks_received, before_case.acks_received)
        << c.name;
    const auto proxied = receiver.proxied_players();
    EXPECT_EQ(std::count(proxied.begin(), proxied.end(), subject), 0)
        << c.name;
  }
  // Past the round boundary the successor adopts the subject as usual, and
  // no peer has dropped it from the pool.
  hardened.run_frames(
      static_cast<std::size_t>(sched.round_start(r + 1) - f + 1));
  const auto adopted = hardened.peer(successor).proxied_players();
  EXPECT_EQ(std::count(adopted.begin(), adopted.end(), subject), 1);
  for (PlayerId p = 0; p < 12; ++p) {
    EXPECT_TRUE(hardened.peer(p).schedule().in_pool(subject)) << "peer " << p;
  }
}

// A 12-player partition once took a peer's own pool view down to itself:
// the floor guarded only a session-wide schedule, while each peer applied
// churn removals and standing exclusions to its own view, and the next
// proxy draw threw "proxy pool is empty". The floor is now a rule of every
// view (authority::pool_keeps_floor).
class PoolFloor : public ::testing::TestWithParam<bool> {
 protected:
  static void SetUpTestSuite() {
    map_ = new game::GameMap(game::make_longest_yard());
    game::SessionConfig cfg;
    cfg.n_players = 48;
    cfg.n_frames = 1200;
    cfg.seed = 3;
    trace_ = new game::GameTrace(game::record_session(*map_, cfg));
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete map_;
    trace_ = nullptr;
    map_ = nullptr;
  }
  static game::GameMap* map_;
  static game::GameTrace* trace_;
};

game::GameMap* PoolFloor::map_ = nullptr;
game::GameTrace* PoolFloor::trace_ = nullptr;

TEST_P(PoolFloor, TwelvePlayerPartitionKeepsEveryViewAtTheFloor) {
  SessionOptions opts;
  opts.seed = 3;
  opts.net = NetProfile::kKing;
  opts.watchmen.hardened = GetParam();
  opts.misbehavior_enforcement = true;
  net::PartitionWindow cut;
  cut.begin = time_of(200);
  cut.end = time_of(260);
  for (PlayerId p = 0; p < 12; ++p) cut.group.push_back(p);
  opts.faults.partitions.push_back(cut);
  WatchmenSession session(*trace_, *map_, opts);

  std::size_t smallest = 48;
  for (Frame f = 0; f < 1200; ++f) {
    ASSERT_NO_THROW(session.run_frames(1)) << "frame " << f;
    for (PlayerId p = 0; p < 48; ++p) {
      smallest = std::min(smallest, session.peer(p).schedule().pool_size());
    }
  }
  EXPECT_EQ(session.current_frame(), 1200);
  EXPECT_GE(smallest, static_cast<std::size_t>(protocol::kMinPoolMembers));
}

INSTANTIATE_TEST_SUITE_P(Profiles, PoolFloor, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Hardened" : "Paper";
                         });

// On the benches' standard trace (trace seed 42) a 40-frame cut of players
// 0–11 used to end with 16 honest players instantly banned for protocol
// violations: stale churn notices retransmitted after the heal removed
// live players, who never heard of it and kept themselves in their own
// views, and peers that refused the notices blamed the rerouted traffic
// as certain schedule violations. A live node now hears its own removal
// and contests it (authority::contest_removal), and a churn notice keeps
// the receiver's transition grace open until the restore delay runs out.
TEST(PartitionHeal, StandardTraceTwelvePlayerCutBansNobody) {
  const game::GameMap map = game::make_longest_yard();
  game::SessionConfig cfg;
  cfg.n_players = 48;
  cfg.n_frames = 1200;
  cfg.seed = 42;
  const game::GameTrace trace = game::record_session(map, cfg);
  SessionOptions opts;
  opts.seed = 3;
  opts.net = NetProfile::kKing;
  opts.watchmen.hardened = true;
  opts.misbehavior_enforcement = true;
  net::PartitionWindow cut;
  cut.begin = time_of(200);
  cut.end = time_of(240);
  for (PlayerId p = 0; p < 12; ++p) cut.group.push_back(p);
  opts.faults.partitions.push_back(cut);
  WatchmenSession session(trace, map, opts);
  session.run();

  const auto& engine = session.misbehavior();
  for (PlayerId p = 0; p < 48; ++p) {
    EXPECT_NE(engine.standing(p), reputation::Standing::kBanned) << p;
  }
  EXPECT_EQ(engine.stats(reputation::PenaltyReason::kProtocolViolation)
                .convictions,
            0u);
  // The views re-converged: every peer holds the same pool.
  for (PlayerId p = 1; p < 48; ++p) {
    for (PlayerId q = 0; q < 48; ++q) {
      EXPECT_EQ(session.peer(p).schedule().in_pool(q),
                session.peer(0).schedule().in_pool(q))
          << "peer " << p << " player " << q;
    }
  }
}

}  // namespace
}  // namespace watchmen::core
