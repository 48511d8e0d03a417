// PeerLink driven directly over a fixed-latency SimNetwork, with the shipped
// protocol constants (the wmcheck model runs a smaller retransmit budget):
//
//   * an unacked control wire goes out 1 + kRetransmitBudget times on the
//     backoff-plus-jitter schedule, then expires once;
//   * only an ack matching (to, origin, seq, type) stops it;
//   * over both profiles (LinkProfile): hardened, acks, heartbeats and
//     retransmits flow, heartbeats follow the (f + id) % kHeartbeatPeriod
//     cadence, grades go Alive -> Suspect -> Dead and heal on traffic, and
//     the proxy turns silent exactly past kWatchdogSuspectFrames; paper,
//     none of them is ever sent, and a handoff goes out twice instead.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "core/messages.hpp"
#include "core/peer.hpp"
#include "core/peer_link.hpp"
#include "core/protocol_params.hpp"
#include "crypto/keys.hpp"
#include "net/network.hpp"

namespace watchmen::core {
namespace {

constexpr std::size_t kN = 4;

/// Four links over one SimNetwork (10 ms fixed latency, no loss). Nodes
/// have no handlers unless a test installs one, so nothing is acked by
/// default.
struct Links {
  explicit Links(bool hardened) {
    cfg.hardened = hardened;
    for (PlayerId p = 0; p < kN; ++p) {
      links[p] = std::make_unique<PeerLink>(p, kN, cfg, net, keys, metrics[p]);
    }
  }
  /// Frame f on link p: timers (proxy `proxy`, proxied `proxied`), flush,
  /// then delivery up to the frame's start.
  void frame(PlayerId p, Frame f, PlayerId proxy = kInvalidPlayer,
             std::vector<PlayerId> proxied = {}) {
    links[p]->begin_frame(f);
    links[p]->run_timers(f, proxy, proxied);
    links[p]->flush();
    net.run_until(time_of(f));
  }
  /// Seals a subscribe as link p and sends it to `to` as control traffic.
  MsgHeader send_subscribe(PlayerId p, PlayerId to, Frame f) {
    const auto wire = std::make_shared<const std::vector<std::uint8_t>>(
        links[p]->seal(MsgType::kSubscribe, to, f,
                       encode_subscribe_body(interest::SetKind::kInterest)));
    links[p]->send_control(to, wire);
    links[p]->flush();
    return open(*wire, keys)->header;
  }

  WatchmenConfig cfg;
  net::SimNetwork net{kN, std::make_unique<net::FixedLatency>(10.0), 0.0, 7};
  crypto::KeyRegistry keys{7, kN};
  std::array<PeerMetrics, kN> metrics;
  std::array<std::unique_ptr<PeerLink>, kN> links;
};

/// An ack of `acked` as it arrives from `from`.
void deliver_ack(PeerLink& link, PlayerId from, const MsgHeader& acked,
                 std::uint32_t seq_delta = 0) {
  net::Envelope env;
  env.from = from;
  MsgHeader h;
  h.type = MsgType::kAck;
  h.origin = from;
  AckBody a;
  a.acked_origin = acked.origin;
  a.acked_seq = acked.seq + seq_delta;
  a.acked_type = acked.type;
  link.on_ack(env, h, a);
}

std::size_t subscribe_retransmits(const PeerMetrics& m) {
  return m.retransmits_by_type[static_cast<std::size_t>(MsgType::kSubscribe)];
}

TEST(PeerLink, UnackedControlRetransmitsOnScheduleThenExpires) {
  Links t(/*hardened=*/true);
  t.frame(0, 0);
  const MsgHeader h = t.send_subscribe(0, 1, 0);

  // The schedule the shipped constants imply: backoff doubling from
  // kRetransmitBackoff, plus the (origin, seq, attempt) jitter.
  std::vector<Frame> expected;
  Frame at = 0;
  Frame backoff = protocol::kRetransmitBackoff;
  for (int attempt = 0; attempt <= protocol::kRetransmitBudget; ++attempt) {
    if (attempt > 0) backoff *= 2;
    at += backoff + retransmit_jitter(0, h.seq, static_cast<std::uint32_t>(attempt),
                                      backoff);
    expected.push_back(at);
  }
  const Frame expiry = expected.back();
  expected.pop_back();

  std::vector<Frame> sent_at;
  Frame expired_at = -1;
  for (Frame f = 1; f <= expiry + 50; ++f) {
    const auto before = t.net.stats().sent;
    t.frame(0, f);
    if (t.net.stats().sent > before) sent_at.push_back(f);
    if (expired_at < 0 && t.metrics[0].reliable_expired > 0) expired_at = f;
  }
  EXPECT_EQ(sent_at, expected);
  EXPECT_EQ(expired_at, expiry);
  EXPECT_EQ(t.metrics[0].reliable_expired, 1u);
  EXPECT_EQ(subscribe_retransmits(t.metrics[0]),
            static_cast<std::size_t>(protocol::kRetransmitBudget));
  EXPECT_EQ(t.net.stats().sent, 1u + protocol::kRetransmitBudget);
  EXPECT_EQ(t.metrics[0].messages_sent, 1u + protocol::kRetransmitBudget);
}

TEST(PeerLink, OnlyAMatchingAckStopsRetransmits) {
  Links t(/*hardened=*/true);
  t.frame(0, 0);
  const MsgHeader h = t.send_subscribe(0, 1, 0);

  // Another node's ack, another seq, another type: none match.
  deliver_ack(*t.links[0], 2, h);
  deliver_ack(*t.links[0], 1, h, /*seq_delta=*/1);
  MsgHeader other_type = h;
  other_type.type = MsgType::kHandoff;
  deliver_ack(*t.links[0], 1, other_type);
  Frame f = 1;
  while (subscribe_retransmits(t.metrics[0]) == 0 && f < 20) t.frame(0, f++);
  ASSERT_EQ(subscribe_retransmits(t.metrics[0]), 1u);

  // The matching ack from the destination stops it for good.
  deliver_ack(*t.links[0], 1, h);
  for (; f < 200; ++f) t.frame(0, f);
  EXPECT_EQ(subscribe_retransmits(t.metrics[0]), 1u);
  EXPECT_EQ(t.metrics[0].reliable_expired, 0u);
  EXPECT_EQ(t.metrics[0].acks_received, 4u);
}

class LinkProfile : public ::testing::TestWithParam<bool> {};

TEST_P(LinkProfile, ControlPlaneFollowsTheSwitch) {
  const bool hardened = GetParam();
  Links t(hardened);
  const PlayerId self = 1, proxy = 2, proxied = 3;
  PeerLink& link = *t.links[self];
  const PeerMetrics& m = t.metrics[self];
  // The proxy acks what reaches it and `self` consumes the acks, as a
  // peer's receive path does; the proxied player never answers.
  t.net.set_handler(proxy, [&](const net::Envelope& env) {
    const auto msg = open(env.bytes(), t.keys);
    ASSERT_TRUE(msg);
    t.links[proxy]->maybe_ack(env, msg->header);
    t.links[proxy]->flush();
  });
  t.net.set_handler(self, [&](const net::Envelope& env) {
    const auto msg = open(env.bytes(), t.keys);
    ASSERT_TRUE(msg);
    ASSERT_EQ(msg->header.type, MsgType::kAck);
    link.on_ack(env, msg->header, decode_ack_body(msg->body));
  });
  t.frame(self, 0);
  t.send_subscribe(self, proxy, 0);
  const auto handoff = std::make_shared<const std::vector<std::uint8_t>>(
      link.seal(MsgType::kHandoff, 3, 0, encode_handoff_body({})));
  link.send_control(proxied, handoff);
  link.flush();
  // Hardened, the handoff is tracked; paper, it goes out twice: queued, and
  // once more bare.
  EXPECT_EQ(t.net.stats().sent, hardened ? 2u : 3u);

  // Nothing is ever heard from the proxy or the proxied player: silence is
  // f frames.
  const auto beats = [&] {
    return m.sent_by_type[static_cast<std::size_t>(MsgType::kHeartbeat)];
  };
  for (Frame f = 1; f <= 200; ++f) {
    const auto before = beats();
    t.frame(self, f, proxy, {proxied});
    const bool due = (f + self) % protocol::kHeartbeatPeriod == 0;
    EXPECT_EQ(beats() - before, hardened && due ? 2u : 0u) << "frame " << f;
    const PeerLiveness want = !hardened ? PeerLiveness::kAlive
                              : f > protocol::kWatchdogDeadFrames
                                  ? PeerLiveness::kDead
                              : f > protocol::kWatchdogSuspectFrames
                                  ? PeerLiveness::kSuspect
                                  : PeerLiveness::kAlive;
    EXPECT_EQ(link.liveness_of(proxy), want) << "frame " << f;
    EXPECT_EQ(link.liveness_of(proxied), want) << "frame " << f;
    EXPECT_EQ(link.proxy_silent(proxy),
              hardened && f > protocol::kWatchdogSuspectFrames)
        << "frame " << f;
  }
  EXPECT_EQ(link.failover_on(), hardened);
  // Hardened: the subscribe was acked once, the unanswered handoff ran its
  // retransmit budget and expired. Paper: nothing after the first frame.
  EXPECT_EQ(t.metrics[proxy].acks_sent, hardened ? 1u : 0u);
  EXPECT_EQ(m.acks_received, hardened ? 1u : 0u);
  EXPECT_EQ(subscribe_retransmits(m), 0u);
  EXPECT_EQ(m.retransmits_by_type[static_cast<std::size_t>(MsgType::kHandoff)],
            hardened ? static_cast<std::uint64_t>(protocol::kRetransmitBudget)
                     : 0u);
  EXPECT_EQ(m.reliable_expired, hardened ? 1u : 0u);
  EXPECT_EQ(m.watchdog_suspects, hardened ? 2u : 0u);
  EXPECT_EQ(m.watchdog_deaths, hardened ? 2u : 0u);
  if (!hardened) {
    EXPECT_EQ(t.net.stats().sent, 3u);
  }

  // Traffic from the proxy heals its grade; the proxied player stays Dead.
  link.heard(proxy, 200);
  t.frame(self, 201, proxy, {proxied});
  EXPECT_FALSE(link.proxy_silent(proxy));
  EXPECT_EQ(link.liveness_of(proxy), PeerLiveness::kAlive);
  EXPECT_EQ(link.liveness_of(proxied),
            hardened ? PeerLiveness::kDead : PeerLiveness::kAlive);
  EXPECT_EQ(m.watchdog_suspects, hardened ? 2u : 0u);
}

INSTANTIATE_TEST_SUITE_P(Profiles, LinkProfile, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Hardened" : "Paper";
                         });

}  // namespace
}  // namespace watchmen::core
