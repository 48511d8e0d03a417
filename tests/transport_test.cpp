// Transport-layer tests: the real-socket UDP backend, SimNetwork carrying
// its seeded decisions over it, and the reliability hardening that rides on
// top.
//
//   * UdpTransport: loopback roundtrip, framing rejection of socket noise,
//     MTU/oversize reporting, bounded-queue shedding under backpressure
//     (control classes never shed);
//   * carrier equivalence: the same FaultPlan + seed + send script yields
//     identical NetStats and an identical delivery log on a SimNetwork with
//     and without a UdpTransport carrier — the property that lets the chaos
//     suite run unchanged over real datagrams (ctest chaos_test_udp) — and
//     the carrier's socket-level counters reach the network's stats();
//   * retransmit jitter: deterministic per (origin, seq, attempt), bounded
//     by half the backoff, and not aligned across origins;
//   * liveness watchdog: silence grades Alive -> Suspect -> Dead, drives
//     emergency failover adoption, and convicts no honest player.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <set>
#include <tuple>
#include <vector>

#include "core/peer.hpp"
#include "core/session.hpp"
#include "game/map.hpp"
#include "game/trace.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"
#include "net/udp_transport.hpp"
#include "util/rng.hpp"

namespace watchmen::net {
namespace {

using DeliveryLog = std::vector<
    std::tuple<PlayerId, PlayerId, TimeMs, TimeMs, std::uint8_t, std::size_t>>;

void log_deliveries(Transport& t, DeliveryLog& log) {
  for (PlayerId p = 0; p < t.size(); ++p) {
    t.set_handler(p, [&log, p](const Envelope& env) {
      const auto bytes = env.bytes();
      log.emplace_back(p, env.from, env.sent_at, env.delivered_at,
                       bytes.empty() ? 0 : bytes[0], bytes.size());
    });
  }
}

std::vector<std::uint8_t> payload_of(std::uint8_t cls, std::size_t len) {
  std::vector<std::uint8_t> v(len, 0xab);
  if (!v.empty()) v[0] = cls;
  return v;
}

TEST(UdpTransport, LoopbackRoundtrip) {
  UdpTransport::Options o;
  o.n_nodes = 4;
  UdpTransport net(std::move(o));
  DeliveryLog log;
  log_deliveries(net, log);

  net.run_until(5);
  net.send(0, 1, payload_of(2, 40));
  net.send(1, 3, payload_of(7, 120));
  net.send(3, 3, payload_of(0, 8));  // self-send works like any other
  net.run_until(6);

  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], (DeliveryLog::value_type{1, 0, 5, 6, 2, 40}));
  EXPECT_EQ(log[1], (DeliveryLog::value_type{3, 1, 5, 6, 7, 120}));
  EXPECT_EQ(log[2], (DeliveryLog::value_type{3, 3, 5, 6, 0, 8}));

  const NetStats s = net.stats();
  EXPECT_EQ(s.sent, 3u);
  EXPECT_EQ(s.delivered, 3u);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.rx_rejects, 0u);
  EXPECT_EQ(s.delivery_age_ms.count(), 3u);
  EXPECT_GT(net.bits_sent_by(0), 0u);
  EXPECT_EQ(net.bits_sent_by(2), 0u);
}

TEST(UdpTransport, RejectsSocketNoise) {
  UdpTransport::Options o;
  o.n_nodes = 2;
  UdpTransport net(std::move(o));
  std::size_t handled = 0;
  for (PlayerId p = 0; p < 2; ++p) {
    net.set_handler(p, [&](const Envelope&) { ++handled; });
  }

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(net.port_of(1));
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  const auto spray = [&](const std::vector<std::uint8_t>& bytes) {
    ASSERT_EQ(::sendto(fd, bytes.data(), bytes.size(), 0,
                       reinterpret_cast<const sockaddr*>(&dst), sizeof dst),
              static_cast<ssize_t>(bytes.size()));
  };
  spray({0xde, 0xad, 0xbe, 0xef});                  // bad magic
  spray({'W', 'M'});                                // truncated header
  spray({'W', 'M', 99, 0, 0, 1, 0, 0, 0, 0, 0, 0,   // wrong version
         0, 0, 0});
  spray({'W', 'M', 1, 9, 0, 1, 0, 0, 0, 0, 0, 0,    // out-of-range origin
         0, 0, 0});
  net.run_until(1);
  ::close(fd);

  EXPECT_EQ(handled, 0u);
  EXPECT_EQ(net.stats().rx_rejects, 4u);
  EXPECT_EQ(net.stats().delivered, 0u);
}

TEST(UdpTransport, OversizeIsReportedNotDelivered) {
  UdpTransport::Options o;
  o.n_nodes = 2;
  UdpTransport net(std::move(o));
  DeliveryLog log;
  log_deliveries(net, log);
  std::vector<std::tuple<PlayerId, PlayerId, std::size_t>> reported;
  net.set_oversize_handler([&](PlayerId from, PlayerId to, std::size_t bytes) {
    reported.emplace_back(from, to, bytes);
  });

  net.set_mtu(100);
  net.send(0, 1, payload_of(1, 101));
  net.send(0, 1, payload_of(1, 100));  // exactly at the limit still goes
  net.set_mtu(0);                      // hard datagram ceiling stays on
  net.send(0, 1, payload_of(1, kMaxDatagramPayload + 1));
  net.run_until(1);

  ASSERT_EQ(reported.size(), 2u);
  EXPECT_EQ(reported[0], (std::tuple<PlayerId, PlayerId, std::size_t>{
                             0, 1, 101}));
  EXPECT_EQ(std::get<2>(reported[1]), kMaxDatagramPayload + 1);
  EXPECT_EQ(net.stats().oversize, 2u);
  EXPECT_EQ(net.stats().sent, 1u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(std::get<5>(log[0]), 100u);
}

TEST(UdpTransport, BoundedQueueShedsOldestUnreliableFirst) {
  UdpTransport::Options o;
  o.n_nodes = 2;
  o.max_queue = 4;
  o.control_class_mask = 1u << 8;  // class 8 (acks) is the control plane
  UdpTransport net(std::move(o));
  DeliveryLog log;
  log_deliveries(net, log);

  net.set_test_block_sends(true);
  // Two control datagrams land in the middle of six unreliable ones; the
  // queue holds four, so four unreliable sends must be shed — never the
  // control ones, regardless of age.
  net.send(0, 1, payload_of(0, 10));  // shed (oldest unreliable)
  net.send(0, 1, payload_of(8, 10));  // control, survives
  net.send(0, 1, payload_of(1, 10));  // shed
  net.send(0, 1, payload_of(2, 10));  // shed
  net.send(0, 1, payload_of(8, 10));  // control, survives
  net.send(0, 1, payload_of(3, 10));  // shed
  net.send(0, 1, payload_of(4, 10));  // survives (queue no longer full)
  net.send(0, 1, payload_of(5, 10));  // survives
  net.set_test_block_sends(false);
  net.run_until(1);

  EXPECT_EQ(net.stats().shed, 4u);
  EXPECT_EQ(net.stats().sent, 8u);
  EXPECT_EQ(net.stats().delivered, 4u);
  std::vector<std::uint8_t> classes;
  for (const auto& d : log) classes.push_back(std::get<4>(d));
  EXPECT_EQ(classes, (std::vector<std::uint8_t>{8, 8, 4, 5}));
}

TEST(UdpTransport, NeverShedsAnAllControlQueue) {
  UdpTransport::Options o;
  o.n_nodes = 2;
  o.max_queue = 2;
  o.control_class_mask = 1u << 8;
  UdpTransport net(std::move(o));
  DeliveryLog log;
  log_deliveries(net, log);

  net.set_test_block_sends(true);
  for (int i = 0; i < 5; ++i) net.send(0, 1, payload_of(8, 10));
  net.send(0, 1, payload_of(0, 10));  // unreliable newcomer: shed on arrival
  net.set_test_block_sends(false);
  net.run_until(1);

  EXPECT_EQ(net.stats().shed, 1u);
  EXPECT_EQ(log.size(), 5u);  // every control datagram delivered
}

TEST(Transport, FactorySelectsBackend) {
  EXPECT_EQ(transport_kind_from_string("udp"), TransportKind::kUdpLoopback);
  EXPECT_EQ(transport_kind_from_string("udp_loopback"),
            TransportKind::kUdpLoopback);
  EXPECT_EQ(transport_kind_from_string("sim"), TransportKind::kSim);
  EXPECT_EQ(transport_kind_from_string(nullptr), TransportKind::kSim);
  EXPECT_EQ(transport_kind_from_string("garbage"), TransportKind::kSim);

  TransportConfig tc;
  tc.kind = TransportKind::kUdpLoopback;
  tc.n_nodes = 3;
  tc.latency = std::make_unique<FixedLatency>(2.0);
  tc.seed = 7;
  const auto t = make_transport(std::move(tc));
  ASSERT_NE(dynamic_cast<SimNetwork*>(t.get()), nullptr);
  EXPECT_EQ(t->size(), 3u);
  // The UDP backend is a SimNetwork carried over real sockets: a payload no
  // datagram can hold passes the network's verdicts, then the carrier's
  // hard ceiling refuses it, and the merged stats() report that — as
  // oversize, never as a delivery.
  std::size_t handled = 0;
  t->set_handler(1, [&](const Envelope&) { ++handled; });
  t->send(0, 1, payload_of(2, kMaxDatagramPayload + 1));
  t->run_until(10);
  EXPECT_EQ(handled, 0u);
  const NetStats st = t->stats();
  EXPECT_EQ(st.sent, 1u);
  EXPECT_EQ(st.oversize, 1u);
  EXPECT_EQ(st.delivered, 0u);
  EXPECT_EQ(st.delivery_age_ms.count(), 0u);
}

// The chaos-grade FaultPlan used for the equivalence scripts: a bursty-loss
// window, a partition, a latency spike and a targeted class drop, all
// overlapping the send script below.
FaultPlan chaos_plan() {
  FaultPlan plan;
  plan.bursts.push_back({40, 160, GilbertElliott{0.2, 0.3, 0.05, 0.8}});
  plan.partitions.push_back({60, 90, {0, 1}});
  plan.latency_spikes.push_back({100, 140, 15.0});
  plan.class_drops.push_back({30, 170, 2, 0.5});
  return plan;
}

/// Drives an identical pseudo-random send script through `net`: a few
/// hundred sends across all pairs with varying classes and sizes,
/// interleaved with run_until ticks (handlers may be invoked mid-script,
/// exactly as the protocol drives its transport).
void drive_script(Transport& net, std::uint64_t seed) {
  Rng rng(seed);
  TimeMs t = 0;
  for (int step = 0; step < 200; ++step) {
    const int sends = 1 + static_cast<int>(rng.next() % 3);
    for (int i = 0; i < sends; ++i) {
      const auto from = static_cast<PlayerId>(rng.next() % net.size());
      const auto to = static_cast<PlayerId>(rng.next() % net.size());
      const auto cls = static_cast<std::uint8_t>(rng.next() % 6);
      const std::size_t len = 1 + rng.next() % 200;
      net.send(from, to, payload_of(cls, len));
    }
    t += 1 + static_cast<TimeMs>(rng.next() % 3);
    net.run_until(t);
  }
  net.run_until(t + 200);  // drain the delay queue
}

TEST(Carrier, UdpCarrierMatchesInProcessUnderChaosPlan) {
  constexpr std::size_t kNodes = 6;
  constexpr std::uint64_t kSeed = 1234;

  SimNetwork sim(kNodes, std::make_unique<FixedLatency>(3.0), 0.10, kSeed);
  UdpTransport::Options uo;
  uo.n_nodes = kNodes;
  SimNetwork udp(kNodes, std::make_unique<FixedLatency>(3.0), 0.10, kSeed,
                 std::make_unique<UdpTransport>(std::move(uo)));
  sim.set_fault_plan(chaos_plan());
  udp.set_fault_plan(chaos_plan());

  DeliveryLog sim_log, udp_log;
  log_deliveries(sim, sim_log);
  log_deliveries(udp, udp_log);
  drive_script(sim, 99);
  drive_script(udp, 99);

  EXPECT_FALSE(sim_log.empty());
  EXPECT_EQ(sim_log, udp_log);  // same deliveries, same order, same times

  const NetStats a = sim.stats();
  const NetStats b = udp.stats();
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_GT(a.dropped, 0u);  // the plan actually bit
  EXPECT_EQ(a.dropped_by_class, b.dropped_by_class);
  EXPECT_EQ(a.bits_sent_by_class, b.bits_sent_by_class);
  EXPECT_EQ(a.delivery_age_ms.values(), b.delivery_age_ms.values());
  EXPECT_EQ(b.rx_rejects, 0u);  // real datagrams all framed correctly
}

TEST(Carrier, SameSeedSameDecisionsAcrossRuns) {
  const auto run_once = [](TransportKind kind) {
    TransportConfig tc;
    tc.kind = kind;
    tc.n_nodes = 4;
    tc.latency = std::make_unique<FixedLatency>(2.0);
    tc.loss_rate = 0.15;
    tc.seed = 77;
    auto net = make_transport(std::move(tc));
    net->set_fault_plan(chaos_plan());
    DeliveryLog log;
    log_deliveries(*net, log);
    drive_script(*net, 5);
    const NetStats s = net->stats();
    return std::tuple<std::uint64_t, std::uint64_t, DeliveryLog>(
        s.delivered, s.dropped, log);
  };
  const auto sim1 = run_once(TransportKind::kSim);
  const auto sim2 = run_once(TransportKind::kSim);
  const auto udp1 = run_once(TransportKind::kUdpLoopback);
  EXPECT_EQ(sim1, sim2);
  EXPECT_EQ(sim1, udp1);
}

TEST(Carrier, SocketNoiseReachesNetworkStats) {
  UdpTransport::Options uo;
  uo.n_nodes = 2;
  auto carrier = std::make_unique<UdpTransport>(std::move(uo));
  const std::uint16_t port = carrier->port_of(1);
  SimNetwork net(2, std::make_unique<FixedLatency>(1.0), 0.0, 5,
                 std::move(carrier));
  std::size_t handled = 0;
  for (PlayerId p = 0; p < 2; ++p) {
    net.set_handler(p, [&](const Envelope&) { ++handled; });
  }

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(port);
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const std::uint8_t noise[] = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_EQ(::sendto(fd, noise, sizeof noise, 0,
                     reinterpret_cast<const sockaddr*>(&dst), sizeof dst),
            static_cast<ssize_t>(sizeof noise));
  ::close(fd);
  net.run_until(1);  // drains the carrier's sockets

  EXPECT_EQ(handled, 0u);
  const NetStats s = net.stats();
  EXPECT_EQ(s.rx_rejects, 1u);
  EXPECT_EQ(s.sent, 0u);
  EXPECT_EQ(s.delivered, 0u);
}

TEST(RetransmitJitter, DeterministicBoundedAndUnaligned) {
  using core::retransmit_jitter;
  // Deterministic: pure function of (origin, seq, attempt, backoff).
  EXPECT_EQ(retransmit_jitter(3, 41, 1, 8), retransmit_jitter(3, 41, 1, 8));
  // Degenerate backoffs carry no jitter.
  EXPECT_EQ(retransmit_jitter(3, 41, 1, 1), 0);
  EXPECT_EQ(retransmit_jitter(3, 41, 1, 0), 0);
  // Bounded by half the backoff, for a spread of inputs.
  for (std::uint32_t seq = 0; seq < 64; ++seq) {
    for (Frame backoff : {2, 5, 8, 16, 32}) {
      const Frame j = retransmit_jitter(7, seq, seq % 5, backoff);
      EXPECT_GE(j, 0);
      EXPECT_LE(j, backoff / 2);
    }
  }
  // Not aligned across origins: peers retransmitting the same seq with the
  // same backoff must not all pick the same offset (that synchronized burst
  // is what jitter exists to break up).
  std::set<Frame> offsets;
  for (PlayerId origin = 0; origin < 16; ++origin) {
    offsets.insert(retransmit_jitter(origin, 12, 2, 16));
  }
  EXPECT_GT(offsets.size(), 2u);
}

TEST(LivenessWatchdog, GradesSilenceAndDrivesFailover) {
  const game::GameMap map = game::make_longest_yard();
  game::SessionConfig cfg;
  cfg.n_players = 12;
  cfg.n_frames = 400;
  cfg.seed = 23;
  const game::GameTrace trace = game::record_session(map, cfg);

  core::SessionOptions opts;
  opts.watchmen.hardened = true;
  opts.net = core::NetProfile::kFixed;
  opts.fixed_latency_ms = 25.0;
  opts.loss_rate = 0.01;
  // A proxy crashes mid-round and never returns; the watchdog's silence
  // grading triggers the emergency takeover.
  const core::ProxySchedule sched(opts.seed, trace.n_players,
                                  opts.watchmen.renewal_frames);
  const PlayerId victim = sched.proxy_of(0, 2);
  net::FaultPlan plan;
  plan.crashes.push_back({90, victim, -1});
  opts.faults = plan;

  core::WatchmenSession s(trace, map, opts);
  s.run();

  std::uint64_t suspects = 0, deaths = 0, adoptions = 0;
  for (PlayerId p = 0; p < s.num_players(); ++p) {
    const auto& m = s.peer(p).metrics();
    suspects += m.watchdog_suspects;
    deaths += m.watchdog_deaths;
    adoptions += m.failover_adoptions;
  }
  EXPECT_GT(suspects, 0u);
  EXPECT_GT(deaths, 0u);
  EXPECT_GT(adoptions, 0u);  // someone adopted the orphaned players
  // The watchdog grades the relationships its heartbeats cover (proxy and
  // proxied players), so the peers serving or served by the victim at crash
  // time — not necessarily everyone — must have walked it to Dead.
  std::size_t dead_observers = 0;
  for (PlayerId p = 0; p < s.num_players(); ++p) {
    if (!s.connected(p)) continue;
    EXPECT_FALSE(s.detector().flagged(p)) << "honest player " << p;
    if (s.peer(p).link().liveness_of(victim) == core::PeerLiveness::kDead) {
      ++dead_observers;
    }
  }
  EXPECT_GE(dead_observers, 1u);
  // The orphans kept receiving state after the failover window.
  for (PlayerId p = 0; p < s.num_players(); ++p) {
    if (p == victim || !s.connected(p)) continue;
    for (PlayerId q = 0; q < s.num_players(); ++q) {
      if (q == victim || q == p || !s.connected(q)) continue;
      EXPECT_GT(s.peer(p).knowledge_of(q).pos_frame, 300)
          << p << " starved of " << q;
    }
  }
}

TEST(LivenessWatchdog, QuietButAliveLinkHealsBackToAlive) {
  const game::GameMap map = game::make_longest_yard();
  game::SessionConfig cfg;
  cfg.n_players = 8;
  cfg.n_frames = 300;
  cfg.seed = 31;
  const game::GameTrace trace = game::record_session(map, cfg);

  core::SessionOptions opts;
  opts.watchmen.hardened = true;
  opts.net = core::NetProfile::kFixed;
  opts.fixed_latency_ms = 25.0;
  opts.loss_rate = 0.01;
  // A total blackout of one link pair, long enough to pass Suspect, that
  // heals well before the end: heartbeats must bring the peers back to
  // Alive with nobody convicted.
  net::FaultPlan plan;
  plan.link_downs.push_back({time_of(Frame{80}), time_of(Frame{140}), 0, 1});
  opts.faults = plan;

  core::WatchmenSession s(trace, map, opts);
  s.run();

  EXPECT_EQ(s.peer(0).link().liveness_of(1), core::PeerLiveness::kAlive);
  EXPECT_EQ(s.peer(1).link().liveness_of(0), core::PeerLiveness::kAlive);
  for (PlayerId p = 0; p < s.num_players(); ++p) {
    EXPECT_FALSE(s.detector().flagged(p)) << "honest player " << p;
  }
}

}  // namespace
}  // namespace watchmen::net
