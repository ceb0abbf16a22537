#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "common/types.hpp"

namespace synergy {
namespace {

TEST(DurationTest, ArithmeticAndComparison) {
  const Duration a = Duration::seconds(2);
  const Duration b = Duration::millis(500);
  EXPECT_EQ((a + b).count(), 2'500'000);
  EXPECT_EQ((a - b).count(), 1'500'000);
  EXPECT_EQ((a * 3).count(), 6'000'000);
  EXPECT_EQ((a / 2).count(), 1'000'000);
  EXPECT_LT(b, a);
  EXPECT_EQ((-b).count(), -500'000);
}

TEST(DurationTest, FromSecondsRounds) {
  EXPECT_EQ(Duration::from_seconds(1.5).count(), 1'500'000);
  EXPECT_EQ(Duration::from_seconds(-0.25).count(), -250'000);
  EXPECT_EQ(Duration::from_seconds(1e-6).count(), 1);
}

TEST(TimePointTest, AffineArithmetic) {
  const TimePoint t0 = TimePoint::origin();
  const TimePoint t1 = t0 + Duration::seconds(10);
  EXPECT_EQ((t1 - t0).count(), 10'000'000);
  EXPECT_EQ((t1 - Duration::seconds(4)).count(), 6'000'000);
  EXPECT_GT(TimePoint::max(), t1);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1'000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(RngTest, SplitStreamsIndependent) {
  Rng root(5);
  Rng a = root.split();
  Rng b = root.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(SerializeTest, RoundTripPrimitives) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");
  w.bytes(Bytes{1, 2, 3});

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.exhausted());
}

TEST(SerializeTest, FingerprintDistinguishesContent) {
  EXPECT_NE(fingerprint(Bytes{1, 2, 3}), fingerprint(Bytes{1, 2, 4}));
  EXPECT_EQ(fingerprint(Bytes{1, 2, 3}), fingerprint(Bytes{1, 2, 3}));
}

TEST(SerializeTest, WriterClearKeepsEncodingIdentical) {
  ByteWriter w;
  w.u64(1);
  w.str("warmup");
  const Bytes first = [] {
    ByteWriter fresh;
    fresh.u32(7);
    fresh.str("abc");
    return fresh.take();
  }();
  w.clear();
  w.u32(7);
  w.str("abc");
  EXPECT_EQ(w.data(), first);  // scratch reuse never changes the bytes
  w.clear();
  EXPECT_EQ(w.size(), 0u);
}

TEST(SerializeTest, ViewReadsMatchCopyingReads) {
  ByteWriter w;
  w.bytes(Bytes{9, 8, 7});
  w.str("view");
  w.u8(0x5A);
  w.u32(123);

  ByteReader copy(w.data());
  ByteReader view(w.data());
  EXPECT_EQ(copy.bytes(), (Bytes{9, 8, 7}));
  const ByteView bv = view.bytes_view();
  EXPECT_EQ(Bytes(bv.begin(), bv.end()), (Bytes{9, 8, 7}));
  EXPECT_EQ(copy.str(), "view");
  EXPECT_EQ(view.str_view(), "view");
  (void)copy.u8();
  view.skip(1);  // inspection paths may skip fields they ignore
  EXPECT_EQ(copy.u32(), view.u32());
  const ByteView rest = view.rest_view();
  EXPECT_TRUE(rest.empty());
  EXPECT_TRUE(view.exhausted());
  EXPECT_TRUE(view.ok());
}

TEST(SerializeTest, SharedBytesAliasesWithoutCopying) {
  const SharedBytes a{Bytes{1, 2, 3}};
  const SharedBytes b = a;  // refcount bump, same buffer
  EXPECT_TRUE(a.shares_buffer_with(b));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, (Bytes{1, 2, 3}));
  EXPECT_EQ((Bytes{1, 2, 3}), b);
  EXPECT_EQ(a.get().data(), b.get().data());

  const SharedBytes c{Bytes{1, 2, 3}};  // equal content, distinct buffer
  EXPECT_EQ(a, c);
  EXPECT_FALSE(a.shares_buffer_with(c));

  SharedBytes empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_FALSE(empty.shares_buffer_with(empty));  // null never "shares"
}

// ---- CRC-32 ----------------------------------------------------------------

TEST(Crc32Test, KnownAnswerVector) {
  // The IEEE 802.3 check value: CRC-32("123456789") = 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
}

TEST(Crc32Test, SlicedMatchesReferenceAcrossLengthsAndAlignments) {
  // The slicing-by-8 hot path must be bit-identical to the byte-at-a-time
  // reference for every tail length (0..7 residues) and for unaligned
  // starts, or existing stable blobs would stop verifying.
  Rng rng(21);
  Bytes buf(4096 + 16);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t len : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 63u,
                          64u, 65u, 255u, 1024u, 4095u, 4096u}) {
    for (std::size_t offset : {0u, 1u, 3u, 5u}) {
      EXPECT_EQ(crc32(buf.data() + offset, len),
                crc32_reference(buf.data() + offset, len))
          << "len=" << len << " offset=" << offset;
    }
  }
}

TEST(Crc32Test, DetectsSingleBitCorruption) {
  Rng rng(33);
  Bytes buf(512);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  const std::uint32_t clean = crc32(buf);
  for (std::size_t byte : {0u, 255u, 511u}) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes corrupted = buf;
      corrupted[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc32(corrupted), clean) << "byte=" << byte << " bit=" << bit;
    }
  }
}

TEST(Crc32Test, DetectsTruncation) {
  Rng rng(34);
  Bytes buf(512);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  const std::uint32_t clean = crc32(buf);
  for (std::size_t keep : {0u, 1u, 256u, 511u}) {
    EXPECT_NE(crc32(buf.data(), keep), clean) << "keep=" << keep;
  }
}

TEST(StatsTest, RunningStatsMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_GT(s.ci95_halfwidth(), 0.0);
}

TEST(StatsTest, HistogramQuantiles) {
  Histogram h(0.0, 100.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.total(), 100u);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 10.0);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 10.0);
}

TEST(StatsTest, HistogramClampsOutOfRange) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
}

TEST(StatsTest, RunningStatsEmptyMinMaxAborts) {
  RunningStats s;
  EXPECT_DEATH(static_cast<void>(s.min()), "precondition");
  EXPECT_DEATH(static_cast<void>(s.max()), "precondition");
  s.add(1.0);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 1.0);
}

TEST(StatsTest, HistogramRejectsNonFiniteSamples) {
  Histogram h(0.0, 10.0, 5);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.rejected(), 3u);
  h.add(5.0);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.rejected(), 3u);
  EXPECT_EQ(h.bin_count(2), 1u);  // finite samples still bin normally
}

TEST(StatsTest, HistogramQuantileClampsToLastNonEmptyBin) {
  // Bottom-heavy: all mass in the first bin of [0, 100). The extreme
  // quantile must report the top of that bin, never hi_ = 100.
  Histogram h(0.0, 100.0, 10);
  for (int i = 0; i < 50; ++i) h.add(3.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
  EXPECT_LE(h.quantile(0.999), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
}

TEST(TypesTest, RolesAndCanonicalIds) {
  EXPECT_EQ(role_of(kP1Act), Role::kP1Act);
  EXPECT_EQ(role_of(kP1Sdw), Role::kP1Sdw);
  EXPECT_EQ(role_of(kP2), Role::kP2);
  EXPECT_STREQ(to_string(Role::kP1Act), "P1act");
  EXPECT_EQ(to_string(kP2), "P2");
  EXPECT_NE(kP1Act, kP1Sdw);
}

}  // namespace
}  // namespace synergy
