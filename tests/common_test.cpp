#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "common/serialize.hpp"
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
  w.bytes(Bytes{1, 2, 3});
  const std::uint64_t tail[] = {7, 0xFEDCBA9876543210ull};
  w.u64s(tail);

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.u64(), 7u);
  EXPECT_EQ(r.u64(), 0xFEDCBA9876543210ull);
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(r.ok());
}

TEST(SerializeTest, PrimitivesAreLittleEndian) {
  ByteWriter w;
  w.u32(0x04030201);
  w.u64(0x0C0B0A0908070605ull);
  const std::uint64_t bulk[] = {0x14131211100F0E0Dull};
  w.u64s(bulk);
  const ByteView d = w.data();
  ASSERT_EQ(d.size(), 20u);
  for (std::size_t i = 0; i < d.size(); ++i) EXPECT_EQ(d[i], i + 1);
}

TEST(SerializeTest, RoundTripAcrossCapacityDoubling) {
  // No reserve: the buffer starts empty and doubles many times, with
  // fields straddling every growth point.
  ByteWriter w;
  Bytes blob;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    w.u8(static_cast<std::uint8_t>(i));
    w.u32(static_cast<std::uint32_t>(i * 2654435761u));
    w.u64(i * 0x9E3779B97F4A7C15ull);
    if (i % 97 == 0) {
      blob.assign(i % 300, static_cast<std::uint8_t>(i));
      w.bytes(blob);
      const std::vector<std::uint64_t> tail(i % 41, i);
      w.u64s(tail);
    }
  }
  const Bytes taken = w.take();
  EXPECT_EQ(w.size(), 0u);
  ByteReader r(taken);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    ASSERT_EQ(r.u8(), static_cast<std::uint8_t>(i));
    ASSERT_EQ(r.u32(), static_cast<std::uint32_t>(i * 2654435761u));
    ASSERT_EQ(r.u64(), i * 0x9E3779B97F4A7C15ull);
    if (i % 97 == 0) {
      ASSERT_EQ(r.bytes(), Bytes(i % 300, static_cast<std::uint8_t>(i)));
      for (std::uint64_t k = 0; k < i % 41; ++k) ASSERT_EQ(r.u64(), i);
    }
  }
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(r.ok());
}

TEST(SerializeTest, ReadPastTheEndFailsStickily) {
  ByteWriter w;
  w.u32(5);
  w.u8(9);
  ByteReader r(w.data());
  EXPECT_EQ(r.u64(), 0u);  // 5 bytes left: the read fails, nothing consumed
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // sticky: even a read that would fit fails
  EXPECT_EQ(r.position(), 0u);

  ByteWriter lying;
  lying.u32(100);  // length prefix claims more bytes than follow
  lying.u8(1);
  ByteReader b(lying.data());
  EXPECT_TRUE(b.bytes().empty());
  EXPECT_FALSE(b.ok());
}

TEST(SerializeTest, FingerprintDistinguishesContent) {
  EXPECT_NE(fingerprint(Bytes{1, 2, 3}), fingerprint(Bytes{1, 2, 4}));
  EXPECT_EQ(fingerprint(Bytes{1, 2, 3}), fingerprint(Bytes{1, 2, 3}));
}

TEST(SerializeTest, WriterClearKeepsEncodingIdentical) {
  ByteWriter w;
  w.u64(1);
  w.bytes(Bytes{'w', 'a', 'r', 'm', 'u', 'p'});
  const Bytes first = [] {
    ByteWriter fresh;
    fresh.u32(7);
    fresh.bytes(Bytes{'a', 'b', 'c'});
    return fresh.take();
  }();
  w.clear();
  w.u32(7);
  w.bytes(Bytes{'a', 'b', 'c'});
  // Scratch reuse never changes the bytes.
  EXPECT_EQ(Bytes(w.data().begin(), w.data().end()), first);
  w.clear();
  EXPECT_EQ(w.size(), 0u);
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
