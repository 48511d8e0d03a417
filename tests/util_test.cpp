// Tests for src/util: vectors, RNG, stats, serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/vec.hpp"

namespace watchmen {
namespace {

constexpr double kPi = 3.14159265358979323846;

// ---------------------------------------------------------------- Vec3

TEST(Vec3, BasicArithmetic) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_EQ(2.0 * a, Vec3(2, 4, 6));
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
}

TEST(Vec3, CrossProductIsOrthogonal) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{-4, 1, 2};
  const Vec3 c = a.cross(b);
  EXPECT_NEAR(c.dot(a), 0.0, 1e-12);
  EXPECT_NEAR(c.dot(b), 0.0, 1e-12);
}

TEST(Vec3, NormAndNormalize) {
  const Vec3 v{3, 4, 0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-12);
  EXPECT_EQ(Vec3{}.normalized(), Vec3{});
}

TEST(Vec3, AngleBetween) {
  EXPECT_NEAR(angle_between({1, 0, 0}, {0, 1, 0}), kPi / 2, 1e-12);
  EXPECT_NEAR(angle_between({1, 0, 0}, {1, 0, 0}), 0.0, 1e-9);
  EXPECT_NEAR(angle_between({1, 0, 0}, {-1, 0, 0}), kPi, 1e-9);
}

TEST(Vec3, DirectionFromAngles) {
  const Vec3 east = direction_from_angles(0.0, 0.0);
  EXPECT_NEAR(east.x, 1.0, 1e-12);
  EXPECT_NEAR(east.norm(), 1.0, 1e-12);
  const Vec3 up = direction_from_angles(0.0, kPi / 2);
  EXPECT_NEAR(up.z, 1.0, 1e-12);
}

TEST(Vec3, WrapAngle) {
  EXPECT_NEAR(wrap_angle(3 * kPi), kPi, 1e-9);
  EXPECT_NEAR(wrap_angle(-3 * kPi), -kPi, 1e-9);
  EXPECT_NEAR(wrap_angle(0.5), 0.5, 1e-12);
}

TEST(Vec3, Lerp) {
  EXPECT_EQ(lerp({0, 0, 0}, {10, 20, 30}, 0.5), Vec3(5, 10, 15));
  EXPECT_EQ(lerp({1, 1, 1}, {2, 2, 2}, 0.0), Vec3(1, 1, 1));
  EXPECT_EQ(lerp({1, 1, 1}, {2, 2, 2}, 1.0), Vec3(2, 2, 2));
}

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(99);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMoments) {
  Rng rng(21);
  RunningStats st;
  for (int i = 0; i < 100000; ++i) st.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(st.mean(), 10.0, 0.1);
  EXPECT_NEAR(st.stddev(), 3.0, 0.1);
}

TEST(Rng, LognormalMeanMatchesFormula) {
  // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2)
  Rng rng(77);
  const double mu = std::log(62.0) - 0.45 * 0.45 / 2.0;
  RunningStats st;
  for (int i = 0; i < 200000; ++i) st.add(rng.lognormal(mu, 0.45));
  EXPECT_NEAR(st.mean(), 62.0, 1.0);
}

TEST(Rng, SubstreamSeedsAreDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t id = 0; id < 100; ++id) {
    seeds.insert(substream_seed(42, 1, id));
    seeds.insert(substream_seed(42, 2, id));
  }
  EXPECT_EQ(seeds.size(), 200u);
}

// ---------------------------------------------------------------- Stats

TEST(RunningStats, MeanVarMinMax) {
  RunningStats st;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(x);
  EXPECT_EQ(st.count(), 8u);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
}

TEST(RunningStats, MergeEqualsCombined) {
  RunningStats a, b, all;
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-5.0);   // clamps to first bin
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.5);
}

TEST(Histogram, BinCenters) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_center(9), 9.5);
}

TEST(Histogram, NonFiniteSamplesClamp) {
  // Regression: NaN fell through `x < lo_` and was cast to size_t (UB);
  // +inf produced an inf-valued bin index. Both must clamp like other
  // out-of-range samples and keep the total preserved.
  Histogram h(0.0, 10.0, 10);
  h.add(std::nan(""));
  h.add(-std::numeric_limits<double>::infinity());
  h.add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(0), 2u);  // NaN and -inf
  EXPECT_EQ(h.count(9), 1u);  // +inf
  EXPECT_EQ(h.total(), 3u);
}

TEST(Samples, Quantiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-9);
}

TEST(Samples, QuantileKeepsInsertionOrder) {
  Samples s;
  for (double x : {5.0, 1.0, 3.0}) s.add(x);
  EXPECT_NEAR(s.quantile(0.5), 3.0, 1e-9);
  // quantile() must not reorder the underlying storage.
  const std::vector<double> expect{5.0, 1.0, 3.0};
  EXPECT_EQ(s.values(), expect);
}

TEST(Samples, QuantilesBatchMatchesSingle) {
  Samples s;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) s.add(rng.normal(0.0, 1.0));
  const auto q = s.quantiles({0.5, 0.95, 0.99});
  EXPECT_DOUBLE_EQ(q[0], s.quantile(0.5));
  EXPECT_DOUBLE_EQ(q[1], s.quantile(0.95));
  EXPECT_DOUBLE_EQ(q[2], s.quantile(0.99));
}

/// The sort-based quantile that Samples' selection must match bit for bit.
double sorted_quantile(std::vector<double> ys, double q) {
  std::sort(ys.begin(), ys.end());
  const double pos = q * static_cast<double>(ys.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  if (i + 1 >= ys.size()) return ys.back();
  return ys[i] * (1.0 - frac) + ys[i + 1] * frac;
}

void expect_matches_sort(const Samples& s, std::initializer_list<double> qs) {
  const auto got = s.quantiles(qs);
  ASSERT_EQ(got.size(), qs.size());
  std::size_t k = 0;
  for (const double q : qs) {
    const double want = sorted_quantile(s.values(), q);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
              std::bit_cast<std::uint64_t>(want))
        << "n=" << s.count() << " q=" << q << " got " << got[k] << " want "
        << want;
    ++k;
  }
  for (const double q : qs) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.quantile(q)),
              std::bit_cast<std::uint64_t>(sorted_quantile(s.values(), q)));
  }
}

TEST(Samples, SelectionMatchesSortBitForBit) {
  // Differential check of the selection-based quantiles against a full
  // sort: sizes from 1, continuous values and heavy ties, the extreme
  // ranks, repeated qs and an unsorted q list.
  Rng rng(21);
  for (int trial = 0; trial < 4000; ++trial) {
    Samples s;
    const std::size_t n = trial < 50 ? 1 : 1 + rng.next() % 200;
    const bool ties = trial % 2 == 0;
    for (std::size_t i = 0; i < n; ++i) {
      s.add(ties ? static_cast<double>(rng.next() % 6) : rng.normal(5.0, 3.0));
    }
    expect_matches_sort(s, {0.0});
    expect_matches_sort(s, {1.0});
    expect_matches_sort(s, {0.50, 0.95, 0.99});
    expect_matches_sort(s, {0.99, 0.5, 1.0});
    expect_matches_sort(s, {0.9, 0.25, 0.25, 0.0, 0.9});
    if (HasFailure()) return;
  }
}

TEST(Samples, ConcurrentConstQuantileReads) {
  // The old implementation lazily sorted `mutable` storage inside the
  // const quantile(), so two const readers raced (TSan-visible). The
  // fixed version sorts a local copy; this test documents the contract.
  Samples s;
  for (int i = 1; i <= 1000; ++i) s.add(1000 - i);
  const Samples& cs = s;
  double a = 0.0, b = 0.0;
  std::thread t1([&] { a = cs.quantile(0.9); });
  std::thread t2([&] { b = cs.quantile(0.9); });
  t1.join();
  t2.join();
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_NEAR(a, 899.1, 1e-9);  // values 0..999, pos = 0.9 * 999
}

TEST(Gini, UniformIsZero) {
  EXPECT_NEAR(gini({1, 1, 1, 1}), 0.0, 1e-12);
}

TEST(Gini, ConcentratedIsHigh) {
  EXPECT_GT(gini({0, 0, 0, 100}), 0.7);
}

TEST(Gini, EmptyAndZeroSafe) {
  EXPECT_DOUBLE_EQ(gini({}), 0.0);
  EXPECT_DOUBLE_EQ(gini({0, 0, 0}), 0.0);
}

// ---------------------------------------------------------------- Bytes

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.f32(3.5f);
  w.f64(-2.25);

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_EQ(r.f32(), 3.5f);
  EXPECT_EQ(r.f64(), -2.25);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, VarintRoundTrip) {
  ByteWriter w;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 1u << 20,
                                  0xffffffffffffffffULL};
  for (auto v : values) w.varint(v);
  ByteReader r(w.data());
  for (auto v : values) EXPECT_EQ(r.varint(), v);
}

TEST(Bytes, VarintCompact) {
  ByteWriter w;
  w.varint(5);
  EXPECT_EQ(w.size(), 1u);
}

TEST(Bytes, StringAndBlob) {
  ByteWriter w;
  w.str("hello watchmen");
  const std::vector<std::uint8_t> blob = {1, 2, 3, 255};
  w.blob(blob);
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "hello watchmen");
  EXPECT_EQ(r.blob(), blob);
}

TEST(Bytes, ReadPastEndThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  r.u8();
  r.u8();
  EXPECT_THROW(r.u8(), DecodeError);
}

TEST(Bytes, TruncatedVarintThrows) {
  const std::vector<std::uint8_t> bad = {0x80, 0x80};  // never terminates
  ByteReader r(bad);
  EXPECT_THROW(r.varint(), DecodeError);
}

TEST(Bytes, VarintTenByteBoundary) {
  // UINT64_MAX is the largest 10-byte encoding: nine 0xff continuation bytes
  // and a final byte of exactly 0x01 (the 64th bit).
  ByteWriter w;
  w.varint(0xffffffffffffffffULL);
  EXPECT_EQ(w.size(), 10u);
  EXPECT_EQ(w.data().back(), 0x01);
  ByteReader r(w.data());
  EXPECT_EQ(r.varint(), 0xffffffffffffffffULL);

  // 2^63 also needs all ten bytes; its final byte is 0x01 too.
  ByteWriter w2;
  w2.varint(1ULL << 63);
  EXPECT_EQ(w2.size(), 10u);
  ByteReader r2(w2.data());
  EXPECT_EQ(r2.varint(), 1ULL << 63);
}

TEST(Bytes, VarintOverflowingTenthByteThrows) {
  // A 10th byte above 1 encodes bits beyond the 64th. The old decoder
  // silently truncated them (0x02 at shift 63 shifted to zero), decoding
  // this as if the high bits never existed; it must be rejected instead.
  for (const std::uint8_t last : {0x02, 0x03, 0x7f, 0x42}) {
    std::vector<std::uint8_t> bad(9, 0xff);
    bad.push_back(last);
    ByteReader r(bad);
    EXPECT_THROW(r.varint(), DecodeError) << "10th byte " << int(last);
  }
  // And a 10th byte with its continuation bit set can never terminate a
  // 64-bit value, even if its payload bits are in range.
  std::vector<std::uint8_t> unterminated(9, 0xff);
  unterminated.push_back(0x81);
  ByteReader r(unterminated);
  EXPECT_THROW(r.varint(), DecodeError);
}

TEST(Bytes, VarintNonCanonicalStillDecodes) {
  // Trailing-zero (non-canonical) encodings of small values stay accepted:
  // decoders are lenient about padding but strict about overflow.
  const std::vector<std::uint8_t> padded = {0x85, 0x00};  // 5 with a pad byte
  ByteReader r(padded);
  EXPECT_EQ(r.varint(), 5u);
}

}  // namespace
}  // namespace watchmen
