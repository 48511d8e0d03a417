// Tests for src/core: proxy schedule, wire protocol, handoff, and the full
// peer/session integration on honest traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "core/handoff.hpp"
#include "core/messages.hpp"
#include "interest/delta.hpp"
#include "core/proxy_schedule.hpp"
#include "core/session.hpp"
#include "game/map.hpp"
#include "game/trace.hpp"
#include "util/rng.hpp"

namespace watchmen::core {
namespace {

// ------------------------------------------------------------ ProxySchedule

TEST(ProxySchedule, NeverSelf) {
  const ProxySchedule sched(42, 48);
  for (PlayerId p = 0; p < 48; ++p) {
    for (std::int64_t r = 0; r < 50; ++r) {
      EXPECT_NE(sched.proxy_of(p, r), p);
    }
  }
}

TEST(ProxySchedule, DeterministicAndVerifiable) {
  // Any node computes any other node's proxy with no communication.
  const ProxySchedule a(42, 48);
  const ProxySchedule b(42, 48);
  for (PlayerId p = 0; p < 48; ++p) {
    for (std::int64_t r = 0; r < 20; ++r) {
      EXPECT_EQ(a.proxy_of(p, r), b.proxy_of(p, r));
    }
  }
}

TEST(ProxySchedule, DifferentSeedsDiffer) {
  const ProxySchedule a(42, 48);
  const ProxySchedule b(43, 48);
  int same = 0;
  for (PlayerId p = 0; p < 48; ++p) same += (a.proxy_of(p, 0) == b.proxy_of(p, 0));
  EXPECT_LT(same, 10);
}

TEST(ProxySchedule, RenewedAcrossRounds) {
  // Dynamic: assignments change; a fixed proxy would keep its player forever.
  const ProxySchedule sched(42, 48);
  int changed = 0;
  for (PlayerId p = 0; p < 48; ++p) {
    changed += (sched.proxy_of(p, 0) != sched.proxy_of(p, 1));
  }
  EXPECT_GT(changed, 40);  // ~47/48 expected
}

TEST(ProxySchedule, RoundOfFrame) {
  const ProxySchedule sched(1, 4, 40);
  EXPECT_EQ(sched.round_of(0), 0);
  EXPECT_EQ(sched.round_of(39), 0);
  EXPECT_EQ(sched.round_of(40), 1);
  EXPECT_EQ(sched.round_start(2), 80);
  EXPECT_EQ(sched.proxy_at(0, 39), sched.proxy_of(0, 0));
}

TEST(ProxySchedule, UniformLoadOverTime) {
  // Fairness: across many rounds every player serves roughly equally.
  const std::size_t n = 16;
  const ProxySchedule sched(7, n);
  std::vector<int> load(n, 0);
  const int rounds = 2000;
  for (std::int64_t r = 0; r < rounds; ++r) {
    for (PlayerId p = 0; p < n; ++p) ++load[sched.proxy_of(p, r)];
  }
  const double expect = static_cast<double>(rounds);  // n players / n proxies
  for (PlayerId p = 0; p < n; ++p) {
    EXPECT_NEAR(load[p], expect, expect * 0.10) << "player " << p;
  }
}

TEST(ProxySchedule, ProxiedByIsInverse) {
  const ProxySchedule sched(42, 24);
  for (std::int64_t r = 0; r < 5; ++r) {
    for (PlayerId proxy = 0; proxy < 24; ++proxy) {
      for (PlayerId p : sched.proxied_by(proxy, r)) {
        EXPECT_EQ(sched.proxy_of(p, r), proxy);
      }
    }
  }
}

TEST(ProxySchedule, ProxiedByIsInverseAt256) {
  constexpr std::size_t n = 256;
  ProxySchedule sched(42, n);
  sched.remove_from_pool(17);
  sched.set_weight(200, 2.5);
  for (std::int64_t r = 0; r < 6; ++r) {
    std::vector<int> covered(n, 0);
    for (PlayerId proxy = 0; proxy < n; ++proxy) {
      for (PlayerId p : sched.proxied_by(proxy, r)) {
        EXPECT_EQ(sched.proxy_of(p, r), proxy);
        ++covered[p];
      }
    }
    // Every player has exactly one proxy per round.
    for (PlayerId p = 0; p < n; ++p) EXPECT_EQ(covered[p], 1) << "player " << p;
    EXPECT_TRUE(sched.proxied_by(17, r).empty());
  }
}

// The memo is a cache, never a second source of truth: every answer must
// equal the weighted draw. The reference is a schedule built fresh with the
// same weights, whose first query is a memo miss and so runs the draw.
class ScheduleModel {
 public:
  ScheduleModel(std::uint64_t seed, std::size_t n) : seed_(seed), w_(n, 1.0) {}

  void remove(PlayerId p) { w_[p] = 0.0; }
  void restore(PlayerId p) {
    if (w_[p] <= 0.0) w_[p] = 1.0;
  }
  void set_weight(PlayerId p, double w) { w_[p] = w; }
  std::size_t pool_size() const {
    return static_cast<std::size_t>(
        std::count_if(w_.begin(), w_.end(), [](double w) { return w > 0.0; }));
  }
  std::size_t n() const { return w_.size(); }

  PlayerId proxy_of(PlayerId p, std::int64_t round) const {
    ProxySchedule fresh(seed_, w_.size());
    for (PlayerId q = 0; q < w_.size(); ++q) {
      if (w_[q] != 1.0) fresh.set_weight(q, w_[q]);
    }
    return fresh.proxy_of(p, round);
  }

 private:
  std::uint64_t seed_;
  std::vector<double> w_;
};

/// One random step against both the schedule and its model: a query
/// (checked), or a pool / weight change applied to both.
void random_step(Rng& rng, ProxySchedule& sched, ScheduleModel& model,
                 std::int64_t& round) {
  const auto n = static_cast<std::uint64_t>(model.n());
  const auto p = static_cast<PlayerId>(rng.below(n));
  const std::uint64_t op = rng.below(100);
  std::int64_t q = round;
  if (op < 50) {
    q = round + rng.between(-1, 1);  // the delivery checks' r−1 / r / r+1
  } else if (op < 60) {
    q = round + 4 * rng.between(-2, 2);  // same memo slot, other round
  } else if (op < 65) {
    q = rng.between(-1000000, 1000000);  // far, possibly negative
  } else if (op < 75) {
    ++round;
    return;
  } else if (op < 82) {
    if (model.pool_size() > 2) {
      sched.remove_from_pool(p);
      model.remove(p);
    }
    return;
  } else if (op < 90) {
    sched.restore_to_pool(p);
    model.restore(p);
    return;
  } else {
    // Non-integer weights, and now and then a zero.
    const double w = rng.chance(0.2) ? 0.0 : rng.uniform(0.05, 4.0);
    if (w > 0.0 || model.pool_size() > 2) {
      sched.set_weight(p, w);
      model.set_weight(p, w);
    }
    return;
  }
  ASSERT_EQ(sched.proxy_of(p, q), model.proxy_of(p, q))
      << "player " << p << " round " << q;
}

TEST(ProxySchedule, MemoMatchesFreshDraw) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    constexpr std::size_t n = 40;
    ProxySchedule sched(seed, n);
    ScheduleModel model(seed, n);
    Rng rng(seed * 7919);
    std::int64_t round = 0;
    for (int step = 0; step < 3000; ++step) {
      random_step(rng, sched, model, round);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ProxySchedule, CopiedMemoEvolvesIndependently) {
  constexpr std::size_t n = 48;
  ProxySchedule source(5, n);
  ScheduleModel source_model(5, n);
  const auto check_warm = [&](const ProxySchedule& s, const ScheduleModel& m) {
    for (std::int64_t r = 0; r < 3; ++r) {
      for (PlayerId p = 0; p < n; ++p) {
        ASSERT_EQ(s.proxy_of(p, r), m.proxy_of(p, r)) << "round " << r;
      }
    }
  };
  check_warm(source, source_model);  // fills rounds 0..2
  ProxySchedule copy = source;
  ScheduleModel copy_model = source_model;
  // A change to the source must not reach the copy's warm table...
  source.set_weight(11, 0.3);
  source_model.set_weight(11, 0.3);
  check_warm(copy, copy_model);
  check_warm(source, source_model);  // re-fills the source
  // ...nor a change to the copy the source's.
  copy.remove_from_pool(copy.proxy_of(0, 1));
  copy_model.remove(copy_model.proxy_of(0, 1));
  copy.set_weight(9, 2.75);
  copy_model.set_weight(9, 2.75);
  check_warm(source, source_model);
  check_warm(copy, copy_model);
  // And random interleavings on the two afterwards.
  Rng rng(77);
  std::int64_t round_a = 2;
  std::int64_t round_b = 2;
  for (int step = 0; step < 1500; ++step) {
    random_step(rng, source, source_model, round_a);
    if (HasFatalFailure()) return;
    random_step(rng, copy, copy_model, round_b);
    if (HasFatalFailure()) return;
  }
}

TEST(ProxySchedule, ProxyNearMatchesThreeWayExpression) {
  // proxy_near is the one definition of the delivery checks' one-round
  // tolerance; the reference is the explicit expression, on a separate
  // schedule so the memo of one cannot shape the other's answers.
  constexpr std::size_t n = 256;
  const ProxySchedule sched(42, n);
  const ProxySchedule ref(42, n);
  const auto explicit_near = [&](PlayerId node, PlayerId p, std::int64_t r) {
    return node == ref.proxy_of(p, r) || node == ref.proxy_of(p, r + 1) ||
           (r > 0 && node == ref.proxy_of(p, r - 1));
  };
  Rng rng(256);
  std::size_t hits = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::int64_t r = i % 8 == 0 ? 0 : static_cast<std::int64_t>(rng.below(1000));
    const auto p = static_cast<PlayerId>(rng.below(n));
    // The three candidate proxies (round r−1 too, even at round 0) and a
    // random node.
    std::vector<PlayerId> nodes = {static_cast<PlayerId>(rng.below(n)),
                                   ref.proxy_of(p, r), ref.proxy_of(p, r + 1),
                                   ref.proxy_of(p, r - 1)};
    for (const PlayerId node : nodes) {
      const bool want = explicit_near(node, p, r);
      ASSERT_EQ(sched.proxy_near(node, p, r), want)
          << "node " << node << " player " << p << " round " << r;
      if (want) ++hits;
    }
  }
  EXPECT_GE(hits, 2u * 4000);  // the proxies of rounds r and r+1 always hit
}

TEST(SubjectTrack, KillClaimRefireBookkeeping) {
  SubjectTrack t;
  // The first claim measures its gap from the -1000 sentinel.
  EXPECT_EQ(t.note_kill_claim(500), 1500);
  // Splash: claims 2 to 5 on the same frame read as a long gap...
  for (int claim = 2; claim <= 5; ++claim) {
    EXPECT_EQ(t.note_kill_claim(500), 1000) << "claim " << claim;
  }
  // ...and the 6th as an instant refire.
  EXPECT_EQ(t.note_kill_claim(500), 0);
  EXPECT_EQ(t.kill_claims_same_frame, 6);
  // The next distinct frame gives the real gap and resets the count.
  EXPECT_EQ(t.note_kill_claim(512), 12);
  EXPECT_EQ(t.kill_claims_same_frame, 1);
  EXPECT_EQ(t.last_kill_claim, 512);
  EXPECT_EQ(t.note_kill_claim(512), 1000);
}

TEST(ProxySchedule, RemovedPlayersNeverServe) {
  ProxySchedule sched(42, 16);
  sched.remove_from_pool(3);
  sched.remove_from_pool(7);
  for (PlayerId p = 0; p < 16; ++p) {
    for (std::int64_t r = 0; r < 100; ++r) {
      const PlayerId proxy = sched.proxy_of(p, r);
      EXPECT_NE(proxy, 3u);
      EXPECT_NE(proxy, 7u);
    }
  }
  // Removed players still have proxies themselves.
  EXPECT_NE(sched.proxy_of(3, 0), 3u);
}

TEST(ProxySchedule, RestoreReturnsToPool) {
  ProxySchedule sched(42, 8);
  sched.remove_from_pool(2);
  sched.restore_to_pool(2);
  bool serves = false;
  for (std::int64_t r = 0; r < 200 && !serves; ++r) {
    for (PlayerId p = 0; p < 8; ++p) serves |= (sched.proxy_of(p, r) == 2);
  }
  EXPECT_TRUE(serves);
}

TEST(ProxySchedule, WeightsSkewSelection) {
  ProxySchedule sched(42, 8);
  sched.set_weight(5, 8.0);  // powerful node serves more
  std::vector<int> load(8, 0);
  for (std::int64_t r = 0; r < 4000; ++r) {
    for (PlayerId p = 0; p < 8; ++p) ++load[sched.proxy_of(p, r)];
  }
  for (PlayerId q = 0; q < 8; ++q) {
    if (q != 5) {
      EXPECT_GT(load[5], 3 * load[q]);
    }
  }
}

TEST(ProxySchedule, RejectsDegenerateInputs) {
  EXPECT_THROW(ProxySchedule(1, 1), std::invalid_argument);
  EXPECT_THROW(ProxySchedule(1, 8, 0), std::invalid_argument);
  ProxySchedule s(1, 8);
  EXPECT_THROW(s.set_weight(0, -1.0), std::invalid_argument);
  EXPECT_THROW(s.set_weight(0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(s.set_weight(0, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

// The reference for the cumulative search: the O(n) scan it replaced,
// verbatim but for taking the weights as an argument. With integer weights
// every subtraction here is exact, so it returns the first member whose
// running sum reaches the pick, which is what the search finds.
PlayerId reference_scan(std::uint64_t seed, const std::vector<double>& weights,
                        PlayerId player, std::int64_t round) {
  const std::size_t n = weights.size();
  double total = 0.0;
  for (PlayerId q = 0; q < n; ++q) {
    if (q != player) total += weights[q];
  }
  if (total <= 0.0) throw std::logic_error("proxy pool is empty");

  for (std::uint64_t attempt = 0;; ++attempt) {
    const std::uint64_t h =
        mix64(seed ^ mix64(0x70726f78ULL + player) ^
              mix64(static_cast<std::uint64_t>(round)) ^ mix64(attempt));
    double pick = (static_cast<double>(h >> 11) * 0x1.0p-53) * total;
    for (PlayerId q = 0; q < n; ++q) {
      if (q == player || weights[q] <= 0.0) continue;
      pick -= weights[q];
      if (pick <= 0.0) return q;
    }
    // Floating-point edge: fall through and redraw.
  }
}

/// Runs `draw` and maps an empty-pool throw to kInvalidPlayer.
template <typename Draw>
PlayerId or_empty(Draw&& draw) {
  try {
    return draw();
  } catch (const std::logic_error&) {
    return kInvalidPlayer;
  }
}

TEST(ProxySchedule, SearchMatchesScanOnIntegerWeights) {
  Rng rng(1198);
  std::size_t queries = 0;
  std::size_t empty = 0;
  while (queries < 1'200'000) {
    const std::size_t n = 2 + rng.below(300);  // 2..301
    const double zero_share = rng.chance(0.25) ? 0.0 : rng.uniform(0.0, 0.9);
    const bool unit = rng.chance(0.2);  // the shipped default: all 1.0
    std::vector<double> w(n, 1.0);
    for (double& x : w) {
      if (rng.chance(zero_share)) {
        x = 0.0;
      } else if (!unit) {
        x = static_cast<double>(1 + rng.below(9));
      }
    }
    // Removed first and last players: the edges of the running sums.
    const std::uint64_t edges = rng.below(4);
    if (edges & 1u) w.front() = 0.0;
    if (edges & 2u) w.back() = 0.0;

    const std::uint64_t seed = rng.next();
    ProxySchedule sched(seed, n);
    for (PlayerId q = 0; q < n; ++q) {
      if (w[q] != 1.0) sched.set_weight(q, w[q]);
    }
    for (int i = 0; i < 400; ++i, ++queries) {
      // Mostly session ids, and some forged ones at or past n.
      const std::uint64_t past = rng.chance(0.5) ? 4 : 1u << 31;
      const PlayerId p = rng.chance(0.95)
                             ? static_cast<PlayerId>(rng.below(n))
                             : static_cast<PlayerId>(n + rng.below(past));
      const std::int64_t r = rng.between(-1000, 100000);
      const PlayerId want =
          or_empty([&] { return reference_scan(seed, w, p, r); });
      ASSERT_EQ(or_empty([&] { return sched.proxy_of(p, r); }), want)
          << "n " << n << " player " << p << " round " << r;
      empty += (want == kInvalidPlayer);
    }
  }
  EXPECT_GT(empty, 0u);  // the empty-pool throw is exercised as well
}

TEST(ProxySchedule, GoldenAssignment) {
  // proxy_of(p, r) for seed 42, 48 players, rounds 0..3: the schedule every
  // recording, anchor and wire capture of a 48-player session depends on.
  constexpr std::size_t n = 48;
  static constexpr PlayerId kGolden[4][n] = {
      {28, 28, 40, 34, 45, 9, 16, 45, 33, 24, 45, 27, 2, 26, 18, 35,
       30, 26, 13, 5, 22, 25, 19, 13, 27, 2, 35, 36, 21, 40, 14, 22,
       46, 35, 14, 39, 31, 15, 21, 32, 37, 23, 44, 45, 8, 43, 2, 19},
      {44, 30, 5, 38, 9, 26, 23, 22, 32, 13, 40, 8, 2, 2, 13, 30,
       19, 26, 31, 47, 24, 2, 28, 12, 1, 5, 29, 8, 38, 8, 14, 6,
       19, 24, 2, 41, 38, 29, 22, 18, 46, 0, 28, 37, 15, 17, 39, 43},
      {24, 7, 22, 31, 9, 44, 24, 41, 29, 29, 16, 4, 4, 40, 34, 20,
       38, 20, 8, 39, 21, 32, 21, 14, 39, 19, 7, 7, 1, 5, 32, 44,
       28, 29, 42, 15, 12, 13, 4, 41, 43, 3, 24, 30, 20, 12, 31, 0},
      {42, 31, 6, 2, 6, 2, 23, 30, 17, 26, 33, 14, 7, 41, 16, 36,
       0, 23, 19, 18, 10, 5, 5, 0, 32, 13, 5, 13, 17, 2, 29, 45,
       20, 7, 38, 16, 35, 39, 21, 35, 35, 16, 24, 5, 29, 18, 25, 13},
  };
  const ProxySchedule sched(42, n);
  for (std::int64_t r = 0; r < 4; ++r) {
    for (PlayerId p = 0; p < n; ++p) {
      EXPECT_EQ(sched.proxy_of(p, r), kGolden[r][p])
          << "player " << p << " round " << r;
    }
  }
}

TEST(ProxySchedule, FractionalWeightsStayValid) {
  // Fractional weights may round differently from the scan, but a draw
  // never returns the player itself or a zero-weight node, and never
  // throws while another member has weight > 0.
  const auto check = [](const std::vector<double>& w, std::int64_t rounds) {
    const std::size_t n = w.size();
    ProxySchedule sched(99, n);
    for (PlayerId q = 0; q < n; ++q) sched.set_weight(q, w[q]);
    for (PlayerId p = 0; p < n; ++p) {
      bool others = false;
      for (PlayerId q = 0; q < n; ++q) others |= (q != p && w[q] > 0.0);
      for (std::int64_t r = -2; r < rounds; ++r) {
        if (!others) {
          ASSERT_THROW(sched.proxy_of(p, r), std::logic_error);
          continue;
        }
        PlayerId proxy = kInvalidPlayer;
        ASSERT_NO_THROW(proxy = sched.proxy_of(p, r)) << "player " << p;
        ASSERT_LT(proxy, n);
        ASSERT_NE(proxy, p) << "round " << r;
        ASSERT_GT(w[proxy], 0.0) << "player " << p << " round " << r;
      }
    }
  };
  // hybrid_server's pattern: the server at 1.0, player 0 at 1e-6, the rest
  // out of the pool.
  for (const std::size_t n : {2u, 3u, 17u, 48u}) {
    std::vector<double> w(n, 0.0);
    w.back() = 1.0;
    w.front() = 1e-6;
    check(w, 300);
  }
  // A heavy player next to tiny ones: its own weight dwarfs the sums after it.
  for (const double heavy : {1e6, 1e12, 1e15, 1e300}) {
    check({1e-9, heavy, 1e-9, 0.0, 3e-9}, 300);
    check({heavy, 1e-12, 0.0, 1e-12}, 300);
    check({0.0, 1e-12, heavy}, 300);
    check({heavy, 0.0, 1e-300}, 300);
  }
  // Finite weights whose sum overflows to infinity.
  check({1e308, 1e308, 1.0}, 40);
  check({1.0, 1e308, 0.0, 1e308}, 40);
  // Random magnitudes, zeros and first/last removals.
  Rng rng(6);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> w(2 + rng.below(40));
    for (double& x : w) {
      x = rng.chance(0.3) ? 0.0 : std::pow(10.0, rng.uniform(-15.0, 15.0));
    }
    if (rng.chance(0.3)) w.front() = 0.0;
    if (rng.chance(0.3)) w.back() = 0.0;
    check(w, 40);
  }
}

TEST(ProxySchedule, FractionalWeightsStayProportional) {
  const std::vector<double> w = {0.5, 1.5, 0.0, 0.25, 3.0, 0.75, 2.0};
  ProxySchedule sched(3, w.size());
  for (PlayerId q = 0; q < w.size(); ++q) sched.set_weight(q, w[q]);
  // Player 2 is out of the pool, so its draws cover the whole pool.
  std::vector<int> load(w.size(), 0);
  constexpr int kRounds = 80000;
  for (std::int64_t r = 0; r < kRounds; ++r) ++load[sched.proxy_of(2, r)];
  const double total = 8.0;
  for (PlayerId q = 0; q < w.size(); ++q) {
    const double expect = kRounds * w[q] / total;
    EXPECT_NEAR(load[q], expect, 0.05 * expect + 1.0) << "node " << q;
  }
}

// ------------------------------------------------------------ messages

TEST(Messages, SealOpenRoundTrip) {
  const crypto::KeyRegistry keys(9, 4);
  MsgHeader h;
  h.type = MsgType::kStateUpdate;
  h.origin = 2;
  h.subject = 2;
  h.frame = 123;
  h.seq = 7;
  game::AvatarState s;
  s.pos = {100, 200, 0};
  s.health = 88;
  const auto wire = seal(h, encode_state_body(s), keys.key_pair(2));

  const auto parsed = open(wire, keys);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header.type, MsgType::kStateUpdate);
  EXPECT_EQ(parsed->header.origin, 2u);
  EXPECT_EQ(parsed->header.subject, 2u);
  EXPECT_EQ(parsed->header.frame, 123);
  EXPECT_EQ(parsed->header.seq, 7u);
  const auto back = decode_state_body(parsed->body);
  EXPECT_EQ(back.health, 88);
  EXPECT_NEAR(back.pos.x, 100, 0.2);

  // Negative frames (pre-session sentinels) survive the zigzag coding.
  h.frame = -3;
  const auto neg = open(seal(h, encode_state_body(s), keys.key_pair(2)), keys);
  ASSERT_TRUE(neg.has_value());
  EXPECT_EQ(neg->header.frame, -3);
}

TEST(Messages, BatchContainerRoundTrip) {
  // Sub-messages share one container; each survives intact with its origin
  // signature verifiable after the split.
  const crypto::KeyRegistry keys(9, 4);
  MsgHeader h;
  h.type = MsgType::kStateUpdate;
  h.origin = 2;
  h.subject = 2;
  h.frame = 50;
  h.seq = 1;
  game::AvatarState s;
  s.health = 77;
  const auto a = seal(h, encode_state_body(s), keys.key_pair(2));
  h.type = MsgType::kPositionUpdate;
  h.seq = 2;
  const auto b = seal(h, encode_position_body({1, 2, 3}), keys.key_pair(2));
  const auto batch = encode_batch({a, b});
  ASSERT_TRUE(is_batch_wire(batch));
  EXPECT_FALSE(is_batch_wire(a));
  EXPECT_FALSE(is_batch_wire(b));  // the header tag bit never reads as kBatch
  const BatchPrefix decoded = decode_batch_prefix(batch);
  EXPECT_TRUE(decoded.complete);
  const auto& subs = decoded.wires;
  ASSERT_EQ(subs.size(), 2u);
  const auto pa = open(subs[0], keys);
  const auto pb = open(subs[1], keys);
  ASSERT_TRUE(pa.has_value());
  ASSERT_TRUE(pb.has_value());
  EXPECT_EQ(decode_state_body(pa->body).health, 77);
  EXPECT_EQ(pb->header.type, MsgType::kPositionUpdate);
}

TEST(Messages, SubscriberDiffRoundTrip) {
  // Typical steady state: a long membership list changes by one or two ids
  // per push, so the diff beats re-sending the full list.
  const std::vector<PlayerId> base = {1, 2, 5, 8, 13, 21, 34, 55, 89, 144};
  std::vector<PlayerId> next = base;
  next.push_back(233);
  const auto diff = encode_subscriber_list_diff_body(base, next);
  const auto full = encode_subscriber_list_body(next);
  EXPECT_LT(diff.size(), full.size());
  const auto applied = decode_subscriber_list_body(diff, base);
  ASSERT_TRUE(applied.has_value());
  EXPECT_EQ(*applied, next);
  // Wrong baseline: the hash check fails closed and the receiver keeps its
  // list until the periodic full refresh.
  const std::vector<PlayerId> stale = {1, 2, 5, 8};
  EXPECT_FALSE(decode_subscriber_list_body(diff, stale).has_value());
}

TEST(Messages, TamperedWireRejected) {
  const crypto::KeyRegistry keys(9, 4);
  MsgHeader h;
  h.origin = 1;
  h.subject = 1;
  auto wire = seal(h, encode_position_body({1, 2, 3}), keys.key_pair(1));
  wire[wire.size() / 2] ^= 0x01;
  EXPECT_FALSE(open(wire, keys).has_value());
}

TEST(Messages, SpoofedOriginRejected) {
  // Player 3 seals a message claiming origin=1: signature check fails.
  const crypto::KeyRegistry keys(9, 4);
  MsgHeader h;
  h.origin = 1;
  h.subject = 1;
  const auto wire = seal(h, encode_position_body({1, 2, 3}), keys.key_pair(3));
  EXPECT_FALSE(open(wire, keys).has_value());
}

TEST(Messages, UnknownOriginRejected) {
  const crypto::KeyRegistry keys(9, 4);
  MsgHeader h;
  h.origin = 99;  // not in this session
  h.subject = 1;
  const auto wire = seal(h, encode_position_body({1, 2, 3}), crypto::KeyPair::generate(5));
  EXPECT_FALSE(open(wire, keys).has_value());
}

TEST(Messages, TruncatedWireRejected) {
  const crypto::KeyRegistry keys(9, 4);
  MsgHeader h;
  h.origin = 1;
  h.subject = 1;
  const auto wire = seal(h, encode_position_body({1, 2, 3}), keys.key_pair(1));
  for (std::size_t cut : {std::size_t{0}, std::size_t{5}, wire.size() - 1}) {
    EXPECT_FALSE(open(std::span(wire).first(cut), keys).has_value());
  }
}

TEST(Messages, GuidanceBodyRoundTrip) {
  interest::Guidance g;
  g.frame = 40;
  g.pos = {1, 2, 3};
  g.vel = {320, 0, 0};
  g.yaw = 0.5;
  g.health = 77;
  g.weapon = game::WeaponKind::kRailgun;
  g.waypoints = {{17, 18, 19}, {33, 34, 35}};
  const auto back = decode_guidance_body(encode_guidance_body(g));
  EXPECT_EQ(back.frame, 40);
  EXPECT_NEAR(back.vel.x, 320, 1e-3);
  EXPECT_EQ(back.health, 77);
  ASSERT_EQ(back.waypoints.size(), 2u);
  EXPECT_NEAR(back.waypoints[1].z, 35, 1e-3);
}

TEST(Messages, KillBodyRoundTrip) {
  KillClaim k;
  k.victim = 9;
  k.weapon = game::WeaponKind::kRocketLauncher;
  k.distance = 512.5;
  k.victim_pos = {10, 20, 30};
  const auto back = decode_kill_body(encode_kill_body(k));
  EXPECT_EQ(back.victim, 9u);
  EXPECT_EQ(back.weapon, game::WeaponKind::kRocketLauncher);
  EXPECT_NEAR(back.distance, 512.5, 1e-3);
}

TEST(Messages, StateUpdateWireUndercutsPaperLayout) {
  // The paper-scale figure (~700-bit updates, ~100-bit signatures) belongs
  // to the paper wire, modelled by sim::WireSizes. The shipped varint
  // header saves 16 of the paper layout's 21 header bytes on this update;
  // the shipped body also drops the paper body's kind byte and, since it
  // ends at the signature, its 1-byte length prefix.
  const crypto::KeyRegistry keys(9, 2);
  game::AvatarState s;
  s.pos = {1024.125, 512.5, 96};
  s.vel = {320, -100, 12};
  s.yaw = 1.5;
  s.pitch = 0.2;
  s.health = 92;
  s.armor = 50;
  s.ammo = 77;
  s.frags = 3;
  MsgHeader h;
  h.origin = 0;
  h.subject = 0;
  const auto body = encode_state_body(s);
  const auto wire = seal(h, body, keys.key_pair(0));
  const std::size_t paper_layout =
      21 + 1 + 1 + body.size() + crypto::kSignatureBytes;
  EXPECT_EQ(wire.size() + 18, paper_layout);
}

// ------------------------------------------------------------ handoff

TEST(Handoff, RoundTripWithPredecessor) {
  HandoffPayload p;
  p.summary.player = 5;
  p.summary.round = 12;
  p.summary.has_state = true;
  p.summary.last_state.pos = {1, 2, 3};
  p.summary.last_state_frame = 479;
  p.summary.updates_received = 38;
  p.summary.suspicious_events = 2;
  p.summary.subscriptions = {
      {1, {interest::SetKind::kInterest, 520}},
      {9, {interest::SetKind::kVision, 510}},
  };
  PlayerSummary pred;
  pred.player = 5;
  pred.round = 11;
  pred.updates_received = 40;
  p.predecessor = pred;

  const auto back = decode_handoff_body(encode_handoff_body(p));
  EXPECT_EQ(back.summary.player, 5u);
  EXPECT_EQ(back.summary.updates_received, 38u);
  EXPECT_EQ(back.summary.suspicious_events, 2u);
  ASSERT_EQ(back.summary.subscriptions.size(), 2u);
  ASSERT_TRUE(back.predecessor.has_value());
  EXPECT_EQ(back.predecessor->round, 11);
}

TEST(Handoff, RoundTripWithoutState) {
  HandoffPayload p;
  p.summary.player = 2;
  p.summary.round = 1;
  const auto back = decode_handoff_body(encode_handoff_body(p));
  EXPECT_FALSE(back.summary.has_state);
  EXPECT_FALSE(back.predecessor.has_value());
}

// ------------------------------------------------------------ integration

class HonestSession : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    map_ = new game::GameMap(game::make_longest_yard());
    game::SessionConfig cfg;
    cfg.n_players = 16;
    cfg.n_frames = 300;  // 15 s
    cfg.seed = 42;
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

game::GameMap* HonestSession::map_ = nullptr;
game::GameTrace* HonestSession::trace_ = nullptr;

TEST_F(HonestSession, UpdatesFlowOverLan) {
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  WatchmenSession session(*trace_, *map_, opts);
  session.run();

  // Every peer received updates; most of them fresh.
  for (PlayerId p = 0; p < 16; ++p) {
    EXPECT_GT(session.peer(p).metrics().updates_received, 100u) << "peer " << p;
    EXPECT_EQ(session.peer(p).metrics().sig_rejects, 0u);
  }
  const Samples ages = session.merged_update_ages();
  EXPECT_GT(ages.count(), 1000u);
  // On a LAN the 2-hop relay is sub-frame: almost everything age <= 1.
  EXPECT_LE(ages.quantile(0.9), 1.0);
}

TEST_F(HonestSession, FewFalsePositivesOnHonestTraffic) {
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  WatchmenSession session(*trace_, *map_, opts);
  session.run();

  // Honest play must generate (almost) no high-confidence detections.
  std::size_t flagged = 0;
  for (PlayerId p = 0; p < 16; ++p) flagged += session.detector().flagged(p);
  EXPECT_LE(flagged, 1u);
}

TEST_F(HonestSession, InternetLatencyAgesStayPlayable) {
  SessionOptions opts;
  opts.net = NetProfile::kKing;
  opts.loss_rate = 0.01;
  WatchmenSession session(*trace_, *map_, opts);
  session.run();

  const Samples ages = session.merged_update_ages();
  ASSERT_GT(ages.count(), 500u);
  // 2-hop relay over ~62 ms links: median around 2-3 frames, and the paper's
  // playability criterion (messages < 3 frames late, 150 ms) holds for the
  // overwhelming majority.
  EXPECT_LE(ages.quantile(0.5), 3.0);
  double late = 0;
  for (double v : ages.values()) late += (v > 4.0);
  EXPECT_LT(late / static_cast<double>(ages.count()), 0.10);
}

TEST_F(HonestSession, ProxiesServeAndRotate) {
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  WatchmenSession session(*trace_, *map_, opts);

  session.run_frames(39);  // stay within round 0
  std::map<PlayerId, std::vector<PlayerId>> round0;
  for (PlayerId p = 0; p < 16; ++p) round0[p] = session.peer(p).proxied_players();

  // Every player is proxied by exactly one peer.
  std::set<PlayerId> covered;
  for (const auto& [proxy, players] : round0) {
    for (PlayerId q : players) {
      EXPECT_TRUE(covered.insert(q).second) << "player proxied twice";
      EXPECT_EQ(session.peer(q).schedule().proxy_of(q, 0), proxy);
    }
  }
  EXPECT_EQ(covered.size(), 16u);

  session.run_frames(41);  // into round 2
  int moved = 0;
  for (PlayerId q = 0; q < 16; ++q) {
    const ProxySchedule& view = session.peer(q).schedule();
    moved += view.proxy_of(q, 0) != view.proxy_of(q, 2);
  }
  EXPECT_GT(moved, 10);
}

TEST_F(HonestSession, SubscriptionTablesPopulated) {
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  WatchmenSession session(*trace_, *map_, opts);
  session.run_frames(100);

  // Somebody must hold IS subscriptions at their proxy by now.
  std::size_t is_subs = 0;
  for (PlayerId proxy = 0; proxy < 16; ++proxy) {
    for (PlayerId subject : session.peer(proxy).proxied_players()) {
      for (PlayerId sub = 0; sub < 16; ++sub) {
        if (sub == subject) continue;
        if (session.peer(proxy).proxy_table_level(subject, sub) ==
            interest::SetKind::kInterest) {
          ++is_subs;
        }
      }
    }
  }
  EXPECT_GT(is_subs, 0u);
}

TEST_F(HonestSession, BeaconBudgetSavesBitsWithoutBreakingDetection) {
  // A beacon budget against the default configuration, same trace, same
  // lossy network: fewer bits, same healthy protocol (no signature rejects,
  // no false-positive storm, update stream intact).
  auto run_with = [&](bool scaled) {
    SessionOptions opts;
    opts.net = NetProfile::kKing;
    opts.loss_rate = 0.01;
    if (scaled) opts.watchmen.other_update_budget = 4;
    WatchmenSession session(*trace_, *map_, opts);
    session.run();
    double bits = 0;
    std::uint64_t updates = 0, sig_rejects = 0;
    for (PlayerId p = 0; p < 16; ++p) {
      bits += static_cast<double>(session.network().bits_sent_by(p));
      updates += session.peer(p).metrics().updates_received;
      sig_rejects += session.peer(p).metrics().sig_rejects;
    }
    std::size_t flagged = 0;
    for (PlayerId p = 0; p < 16; ++p) flagged += session.detector().flagged(p);
    EXPECT_EQ(sig_rejects, 0u);
    return std::make_tuple(bits, flagged, updates);
  };
  const auto [old_bits, old_flagged, old_updates] = run_with(false);
  const auto [new_bits, new_flagged, new_updates] = run_with(true);
  // ~1 % at 16 players, where few Others exceed a budget of 4; the budget
  // bites at hundreds of players (bench/sec6_bandwidth_scaling). Gate on
  // 1 % so the test catches a broken lever without being a bandwidth
  // benchmark.
  EXPECT_LT(new_bits, old_bits * 0.99) << "the budget must save bits";
  EXPECT_LE(new_flagged, old_flagged + 1);
  // Fewer beacons reach Others, but the frequent stream stays intact.
  EXPECT_GT(static_cast<double>(new_updates),
            0.8 * static_cast<double>(old_updates));
}

TEST_F(HonestSession, BeaconBudgetStillReachesEveryReceiver) {
  // A tight budget (2 forwards per beacon at 16 players) must not starve
  // anyone permanently: the round-robin window rotates, so over a session
  // every peer still learns every Other's position.
  SessionOptions opts;
  opts.net = NetProfile::kLan;
  opts.loss_rate = 0.0;
  opts.watchmen.other_update_budget = 2;
  WatchmenSession session(*trace_, *map_, opts);
  session.run();
  for (PlayerId p = 0; p < 16; ++p) {
    std::size_t known = 0;
    for (PlayerId q = 0; q < 16; ++q) {
      if (q == p) continue;
      if (session.peer(p).knowledge_of(q).pos_frame >= 0) ++known;
    }
    EXPECT_GE(known, 14u) << "peer " << p;
  }
}

TEST(StateBody, FullStateFramingRoundTrip) {
  game::AvatarState base;
  base.pos = {100, 200, 50};
  base.vel = {320, -40, 0};
  base.yaw = 1.25;
  base.pitch = -0.1;
  base.health = 90;
  base.armor = 30;
  base.ammo = 55;
  base.frags = 4;

  const auto key = encode_state_body(base);
  const auto back = decode_state_body(key);
  EXPECT_EQ(back.health, 90);
  EXPECT_NEAR(back.pos.x, 100.0, 0.2);
  EXPECT_THROW(decode_state_body({}), DecodeError);
}

TEST_F(HonestSession, DirectUpdateModeHalvesFrequentLatency) {
  // §VI optimization 3: pushing state updates 1-hop to IS subscribers
  // (with a verification copy to the proxy) must cut their delivery age
  // versus the 2-hop relay, without false-positive storms.
  auto run_with = [&](bool direct) {
    SessionOptions opts;
    opts.net = NetProfile::kKing;
    opts.loss_rate = 0.01;
    opts.watchmen.direct_updates = direct;
    WatchmenSession session(*trace_, *map_, opts);
    session.run();
    const Samples ages = session.merged_update_ages();
    std::size_t flagged = 0;
    for (PlayerId p = 0; p < 16; ++p) flagged += session.detector().flagged(p);
    return std::make_tuple(ages.mean(), ages.count(), flagged);
  };
  const auto [two_hop_age, two_hop_n, two_hop_flagged] = run_with(false);
  const auto [one_hop_age, one_hop_n, one_hop_flagged] = run_with(true);

  EXPECT_LT(one_hop_age, two_hop_age * 0.85)
      << "direct mode should clearly cut mean update age";
  EXPECT_GT(static_cast<double>(one_hop_n), 0.7 * static_cast<double>(two_hop_n))
      << "the frequent stream must keep flowing via subscriber lists";
  EXPECT_LE(one_hop_flagged, 2u);
  (void)two_hop_flagged;
}

TEST_F(HonestSession, ChurnRemovesDepartedPlayersFromPool) {
  SessionOptions opts;
  opts.net = NetProfile::kKing;
  opts.loss_rate = 0.01;
  WatchmenSession session(*trace_, *map_, opts);

  session.run_frames(120);          // 3 rounds of normal play
  session.disconnect(5);
  session.run_frames(180);          // silence detected + removal agreed

  // Every connected peer's local schedule has evicted player 5 from the
  // proxy pool; nobody will route through a ghost.
  for (PlayerId p = 0; p < 16; ++p) {
    if (p == 5) continue;
    EXPECT_FALSE(session.peer(p).schedule().in_pool(5)) << "peer " << p;
    // ...and the departed player still *has* proxies in everyone's view.
    EXPECT_NE(session.peer(p).schedule().proxy_at(5, 299), 5u);
  }

  // The churn must not trigger a wave of false accusations against the
  // innocent: only the departed player draws escape reports.
  std::size_t flagged_honest = 0;
  for (PlayerId p = 0; p < 16; ++p) {
    if (p != 5 && session.detector().flagged(p)) ++flagged_honest;
  }
  EXPECT_LE(flagged_honest, 2u);
  EXPECT_TRUE(session.detector().flagged(5)) << "escape reports expected";

  // Gameplay for the remaining players keeps flowing.
  session.run_frames(100);
  for (PlayerId p = 0; p < 16; ++p) {
    if (p == 5) continue;
    EXPECT_GT(session.peer(p).metrics().updates_received, 500u);
  }
}

TEST_F(HonestSession, DeterministicAcrossRuns) {
  auto run_once = [&]() {
    SessionOptions opts;
    opts.net = NetProfile::kKing;
    opts.loss_rate = 0.01;
    WatchmenSession session(*trace_, *map_, opts);
    session.run();
    return std::make_tuple(session.network().stats().sent,
                           session.network().stats().delivered,
                           session.detector().total_reports());
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace watchmen::core
