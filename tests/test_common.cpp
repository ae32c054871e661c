/// Tests for the common substrate: byte/bit I/O, CRC-32, RNG, statistics,
/// and the logical-rank partitioner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "ckpt/chunk/chunk_hash.hpp"
#include "common/bit_io.hpp"
#include "common/byte_buffer.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/partitioner.hpp"
#include "sparse/vector_ops.hpp"
#include "support/reference_crc.hpp"

namespace lck {
namespace {

TEST(ByteBuffer, RoundTripPrimitives) {
  ByteWriter w;
  w.put<std::uint32_t>(0xdeadbeefu);
  w.put<double>(3.14159);
  w.put<std::int64_t>(-42);
  w.put_string("hello");
  const auto buf = std::move(w).take();

  ByteReader r(buf);
  EXPECT_EQ(r.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.14159);
  EXPECT_EQ(r.get<std::int64_t>(), -42);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteBuffer, RoundTripArray) {
  std::vector<double> xs(100);
  std::iota(xs.begin(), xs.end(), 0.5);
  ByteWriter w;
  w.put_array(xs.data(), xs.size());
  const auto buf = std::move(w).take();

  ByteReader r(buf);
  std::vector<double> ys(100);
  r.get_array(ys.data(), ys.size());
  EXPECT_EQ(xs, ys);
}

TEST(ByteBuffer, ReadPastEndThrows) {
  ByteWriter w;
  w.put<std::uint16_t>(7);
  const auto buf = std::move(w).take();
  ByteReader r(buf);
  EXPECT_THROW(r.get<std::uint64_t>(), corrupt_stream_error);
}

TEST(ByteBuffer, AdversarialArrayCountDoesNotWrap) {
  // Regression: a corrupt header can claim any element count. For counts
  // where `count * sizeof(T)` wraps std::size_t (e.g. 2^61 doubles on a
  // 64-bit platform wraps to 0), the old `check(count * sizeof(T))` passed
  // and memcpy ran with the un-wrapped length. The guard must compare via
  // division and throw instead.
  const std::size_t wrap_count =
      std::numeric_limits<std::size_t>::max() / sizeof(double) + 2;
  ASSERT_LT(wrap_count * sizeof(double),  // premise: the product truly wraps
            wrap_count);
  std::vector<byte_t> data(64, 0);
  ByteReader r(data);
  double sink[4];
  EXPECT_THROW(r.get_array(sink, wrap_count), corrupt_stream_error);
  // The same count must also be rejected on the write side, where the
  // wrapped product would resize the buffer tiny and emit a short stream.
  ByteWriter w;
  EXPECT_THROW(w.put_array(sink, wrap_count), config_error);
  // Sane counts that merely exceed the buffer still throw (no regression).
  ByteReader r2(data);
  EXPECT_THROW(r2.get_array(sink, 9), corrupt_stream_error);
  // And a huge string length prefix is caught by the plain bounds check.
  ByteWriter w2;
  w2.put<std::uint32_t>(0xffffffffu);
  const auto buf = std::move(w2).take();
  ByteReader r3(buf);
  EXPECT_THROW(r3.get_string(), corrupt_stream_error);
}

TEST(ByteBuffer, GetBytesAdvancesAndBoundsChecks) {
  std::vector<byte_t> data{1, 2, 3, 4, 5};
  ByteReader r(data);
  const auto first = r.get_bytes(3);
  EXPECT_EQ(first[0], 1);
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_THROW(r.get_bytes(3), corrupt_stream_error);
}

TEST(BitIo, EmptyWriterProducesEmptyBuffer) {
  BitWriter w;
  EXPECT_EQ(w.bit_count(), 0u);
  const auto buf = w.finish();
  EXPECT_TRUE(buf.empty());
  BitReader r(buf);
  EXPECT_EQ(r.bits_remaining(), 0u);
  EXPECT_THROW(r.read_bit(), corrupt_stream_error);
}

TEST(BitIo, ZeroWidthWriteIsANoOp) {
  BitWriter w;
  w.write_bits(0xffff, 0);
  EXPECT_EQ(w.bit_count(), 0u);
  w.write_bit(1);
  w.write_bits(0xffff, 0);
  EXPECT_EQ(w.bit_count(), 1u);
  const auto buf = w.finish();
  BitReader r(buf);
  EXPECT_EQ(r.read_bits(0), 0u);  // reads nothing
  EXPECT_EQ(r.read_bit(), 1u);
}

TEST(BitIo, UnalignedTailRoundTrips) {
  // 11 bits: one full byte plus a 3-bit tail padded with zeros.
  BitWriter w;
  w.write_bits(0b10110100101, 11);
  const auto buf = w.finish();
  ASSERT_EQ(buf.size(), 2u);
  BitReader r(buf);
  EXPECT_EQ(r.read_bits(11), 0b10110100101u);
  // The 5 pad bits are zero and readable; one past them throws.
  EXPECT_EQ(r.read_bits(5), 0u);
  EXPECT_THROW(r.read_bit(), corrupt_stream_error);
}

TEST(BitIo, SingleByteRoundTripsBitByBit) {
  BitWriter w;
  const unsigned bits[8] = {1, 0, 1, 1, 0, 0, 1, 0};
  for (const unsigned b : bits) w.write_bit(b);
  const auto buf = w.finish();
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 0b10110010u);
  BitReader r(buf);
  for (const unsigned b : bits) EXPECT_EQ(r.read_bit(), b);
  EXPECT_EQ(r.bits_remaining(), 0u);
}

TEST(BitIo, RoundTripBits) {
  BitWriter w;
  w.write_bits(0b1011, 4);
  w.write_bit(1);
  w.write_bits(0x12345, 20);
  const auto buf = w.finish();

  BitReader r(buf);
  EXPECT_EQ(r.read_bits(4), 0b1011u);
  EXPECT_EQ(r.read_bit(), 1u);
  EXPECT_EQ(r.read_bits(20), 0x12345u);
}

TEST(BitIo, UnaryCoding) {
  BitWriter w;
  for (unsigned v : {0u, 1u, 5u, 13u}) w.write_unary(v);
  const auto buf = w.finish();
  BitReader r(buf);
  EXPECT_EQ(r.read_unary(), 0u);
  EXPECT_EQ(r.read_unary(), 1u);
  EXPECT_EQ(r.read_unary(), 5u);
  EXPECT_EQ(r.read_unary(), 13u);
}

TEST(BitIo, BitCountMatchesWrites) {
  BitWriter w;
  w.write_bits(0, 13);
  EXPECT_EQ(w.bit_count(), 13u);
  const auto buf = w.finish();
  EXPECT_EQ(buf.size(), 2u);  // padded to byte boundary
}

TEST(BitIo, ReadPastEndThrows) {
  BitWriter w;
  w.write_bits(0xff, 8);
  const auto buf = w.finish();
  BitReader r(buf);
  r.read_bits(8);
  EXPECT_THROW(r.read_bit(), corrupt_stream_error);
}

/// Reference MSB-first bit string: bit k of the stream is `bits[k]`.
std::vector<byte_t> pack_bits(const std::vector<unsigned>& bits) {
  std::vector<byte_t> out((bits.size() + 7) / 8, 0);
  for (std::size_t k = 0; k < bits.size(); ++k)
    if (bits[k] != 0) out[k / 8] |= static_cast<byte_t>(0x80u >> (k % 8));
  return out;
}

TEST(BitIo, MixedWidthsRoundTripWithExactCounts) {
  // Widths 0..64 in random order, values with stray bits above the width
  // (which the writer must ignore). Check the stream against a bit-by-bit
  // reference, then read it back through every reader entry point.
  Rng rng(31);
  std::vector<std::pair<std::uint64_t, unsigned>> items;
  for (int k = 0; k < 4000; ++k)
    items.emplace_back(rng(), static_cast<unsigned>(rng.uniform_index(65)));
  BitWriter w;
  std::vector<unsigned> ref;
  for (const auto& [v, width] : items) {
    w.write_bits(v, width);
    for (unsigned b = width; b-- > 0;) ref.push_back((v >> b) & 1u);
    ASSERT_EQ(w.bit_count(), ref.size());
  }
  const auto buf = w.finish();
  ASSERT_EQ(buf, pack_bits(ref));

  BitReader r(buf);
  std::size_t pos = 0;
  for (std::size_t k = 0; k < items.size(); ++k) {
    const auto [v, width] = items[k];
    const std::uint64_t want =
        width == 0 ? 0 : v & (~std::uint64_t{0} >> (64 - width));
    std::uint64_t got;
    if (width <= BitReader::kMaxPeekBits && k % 3 == 0) {
      got = r.peek(width);  // peek twice: it must not consume
      ASSERT_EQ(r.peek(width), got);
      ASSERT_EQ(r.bit_position(), pos);
      r.skip(width);
    } else if (width <= 8 && k % 3 == 1) {
      got = 0;
      for (unsigned b = 0; b < width; ++b) got = (got << 1) | r.read_bit();
    } else {
      got = r.read_bits(width);
    }
    ASSERT_EQ(got, want) << "item " << k << " width " << width;
    pos += width;
    ASSERT_EQ(r.bit_position(), pos);
    ASSERT_EQ(r.bits_remaining(), buf.size() * 8 - pos);
  }
}

TEST(BitIo, ReadsThrowExactlyOneBitPastTheEnd) {
  // For every stream length up to 24 bytes and every width, a read of
  // exactly the remaining bits succeeds and one bit more throws.
  Rng rng(5);
  for (std::size_t nbytes = 0; nbytes <= 24; ++nbytes) {
    std::vector<byte_t> buf(nbytes);
    for (auto& b : buf) b = static_cast<byte_t>(rng());
    for (unsigned lead = 0; lead < 8; ++lead) {
      if (lead > nbytes * 8) break;
      const std::size_t rest = nbytes * 8 - lead;
      if (rest >= 64) continue;
      {
        BitReader r(buf);
        r.skip(lead);
        EXPECT_THROW(r.read_bits(static_cast<unsigned>(rest) + 1),
                     corrupt_stream_error)
            << nbytes << " bytes, lead " << lead;
      }
      BitReader r(buf);
      r.skip(lead);
      (void)r.read_bits(static_cast<unsigned>(rest));
      EXPECT_EQ(r.bits_remaining(), 0u);
      EXPECT_THROW(r.read_bit(), corrupt_stream_error);
      EXPECT_THROW(r.skip(1), corrupt_stream_error);
      EXPECT_EQ(r.peek(BitReader::kMaxPeekBits), 0u);  // zero padding
    }
  }
}

TEST(BitIo, PeekPastTheEndIsZeroPadded) {
  const std::vector<byte_t> buf{0xa5, 0xff};
  BitReader r(buf);
  r.skip(12);
  EXPECT_EQ(r.peek(4), 0xfu);
  EXPECT_EQ(r.peek(10), 0xfu << 6);
  EXPECT_EQ(r.bit_position(), 12u);
  EXPECT_THROW(r.skip(5), corrupt_stream_error);
  r.skip(4);
  EXPECT_EQ(r.bits_remaining(), 0u);
}

TEST(BitIo, LongUnaryRunsCrossWords) {
  BitWriter w;
  const unsigned values[] = {0, 63, 64, 65, 200, 7};
  for (const unsigned v : values) w.write_unary(v);
  const auto buf = w.finish();
  BitReader r(buf);
  for (const unsigned v : values) EXPECT_EQ(r.read_unary(), v);
  EXPECT_LT(r.bits_remaining(), 8u);
}

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE reference value).
  const char* s = "123456789";
  const std::uint32_t c = crc32(
      {reinterpret_cast<const byte_t*>(s), 9});
  EXPECT_EQ(c, 0xcbf43926u);
}

TEST(Crc32, EmptyBufferIsZero) {
  // CRC-32 of the empty message: init ^ final xor = 0.
  EXPECT_EQ(crc32({}), 0u);
  Crc32 inc;
  inc.update({});
  EXPECT_EQ(inc.value(), 0u);
}

TEST(Crc32, SingleByteKnownVectors) {
  // Reference values for 1-byte messages (IEEE 802.3 reflected polynomial).
  const byte_t a = 'a';
  EXPECT_EQ(crc32({&a, 1}), 0xe8b7be43u);
  const byte_t zero = 0x00;
  EXPECT_EQ(crc32({&zero, 1}), 0xd202ef8du);
  const byte_t ff = 0xff;
  EXPECT_EQ(crc32({&ff, 1}), 0xff000000u);
}

TEST(Crc32, IncrementalByteAtATimeEqualsOneShot) {
  const char* s = "checkpoint";
  const auto data = std::span(reinterpret_cast<const byte_t*>(s), 10);
  Crc32 inc;
  for (const byte_t b : data) inc.update({&b, 1});
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32, IncrementalEqualsOneShot) {
  std::vector<byte_t> data(1000);
  Rng rng(3);
  for (auto& b : data) b = static_cast<byte_t>(rng());
  Crc32 inc;
  inc.update(std::span(data).subspan(0, 400));
  inc.update(std::span(data).subspan(400));
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<byte_t> data(64, 0xa5);
  const auto before = crc32(data);
  data[17] ^= 0x04;
  EXPECT_NE(before, crc32(data));
}

TEST(Crc, ByteWiseReferenceKnownAnswers) {
  // Crc32.KnownVector and Crc64.KnownVectorAndIncrementalEquivalence check
  // the library against the same values.
  const char* s = "123456789";
  const std::span<const byte_t> data{reinterpret_cast<const byte_t*>(s), 9};
  EXPECT_EQ(reference_crc<std::uint32_t>(data, 0xedb88320u), 0xcbf43926u);
  EXPECT_EQ(reference_crc<std::uint64_t>(data, 0xc96c5795d7870f42ull),
            0x995dc9bbdf1939faull);
}

TEST(Crc, SlicedUpdatesEqualTheByteWiseReferenceAtEverySplit) {
  // Every split offset 0..64 of every length 0..72, then random lengths
  // with random splits, each from every alignment of the buffer start.
  std::vector<byte_t> buf(6000);
  Rng rng(41);
  for (auto& b : buf) b = static_cast<byte_t>(rng());
  const auto check = [&](std::size_t align, std::size_t len,
                         std::span<const std::size_t> splits) {
    const std::span<const byte_t> data{buf.data() + align, len};
    const auto want32 = reference_crc<std::uint32_t>(data, 0xedb88320u);
    const auto want64 =
        reference_crc<std::uint64_t>(data, 0xc96c5795d7870f42ull);
    for (const std::size_t split : splits) {
      Crc32 c32;
      Crc64 c64;
      c32.update(data.first(split));
      c32.update(data.subspan(split));
      c64.update(data.first(split));
      c64.update(data.subspan(split));
      ASSERT_EQ(c32.value(), want32)
          << "align " << align << " len " << len << " split " << split;
      ASSERT_EQ(c64.value(), want64)
          << "align " << align << " len " << len << " split " << split;
    }
  };
  std::vector<std::size_t> splits;
  for (std::size_t align = 0; align < 8; ++align)
    for (std::size_t len = 0; len <= 72; ++len) {
      splits.clear();
      for (std::size_t split = 0; split <= std::min<std::size_t>(len, 64);
           ++split)
        splits.push_back(split);
      check(align, len, splits);
    }
  for (int k = 0; k < 200; ++k) {
    const std::size_t len = rng.uniform_index(buf.size() - 8);
    const std::size_t split = rng.uniform_index(len + 1);
    check(rng.uniform_index(8), len, {&split, 1});
  }
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a(), b());
  Rng a2(123);
  (void)c;
  EXPECT_NE(a2(), Rng(124)());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(11);
  RunningStats st;
  const double mean = 3600.0;
  for (int i = 0; i < 200000; ++i) st.add(rng.exponential(mean));
  EXPECT_NEAR(st.mean(), mean, mean * 0.02);
  // Exponential: stddev == mean.
  EXPECT_NEAR(st.stddev(), mean, mean * 0.05);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats st;
  for (int i = 0; i < 200000; ++i) st.add(rng.normal(2.0, 0.5));
  EXPECT_NEAR(st.mean(), 2.0, 0.01);
  EXPECT_NEAR(st.stddev(), 0.5, 0.01);
}

TEST(RunningStats, WelfordMatchesDirect) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats st;
  for (double x : xs) st.add(x);
  EXPECT_EQ(st.count(), 5u);
  EXPECT_DOUBLE_EQ(st.mean(), 6.2);
  EXPECT_DOUBLE_EQ(st.min(), 1.0);
  EXPECT_DOUBLE_EQ(st.max(), 16.0);
  // Direct unbiased variance.
  double var = 0.0;
  for (double x : xs) var += (x - 6.2) * (x - 6.2);
  var /= 4.0;
  EXPECT_NEAR(st.variance(), var, 1e-12);
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 0.2);
}

TEST(ParallelFor, DeterministicSumsMatchSerial) {
  const index_t n = 100000;
  std::vector<double> xs(n);
  for (index_t i = 0; i < n; ++i) xs[i] = static_cast<double>(i % 97) * 0.25;
  const double par =
      detail::deterministic_reduce_sum(n, [&](index_t i) { return xs[i]; });
  double ser = 0.0;
  for (const double x : xs) ser += x;
  EXPECT_NEAR(par, ser, 1e-6);
}

TEST(ParallelFor, DeterministicMaxReduction) {
  const index_t n = 9999;
  const double m = detail::deterministic_reduce_max(n, [&](index_t i) {
    return static_cast<double>((i * 37) % 1000);
  });
  EXPECT_DOUBLE_EQ(m, 999.0);
}

class PartitionerTest : public ::testing::TestWithParam<std::pair<index_t, int>> {};

TEST_P(PartitionerTest, CoversRangeExactly) {
  const auto [n, ranks] = GetParam();
  const Partitioner part(n, ranks);
  index_t total = 0;
  for (int r = 0; r < ranks; ++r) {
    EXPECT_EQ(part.offset(r), total);
    total += part.local_size(r);
  }
  EXPECT_EQ(total, n);
}

TEST_P(PartitionerTest, OwnerConsistentWithOffsets) {
  const auto [n, ranks] = GetParam();
  const Partitioner part(n, ranks);
  for (int r = 0; r < ranks; ++r) {
    if (part.local_size(r) == 0) continue;
    EXPECT_EQ(part.owner(part.offset(r)), r);
    EXPECT_EQ(part.owner(part.offset(r) + part.local_size(r) - 1), r);
  }
}

TEST_P(PartitionerTest, BalancedWithinOne) {
  const auto [n, ranks] = GetParam();
  const Partitioner part(n, ranks);
  index_t lo = n, hi = 0;
  for (int r = 0; r < ranks; ++r) {
    lo = std::min(lo, part.local_size(r));
    hi = std::max(hi, part.local_size(r));
  }
  EXPECT_LE(hi - lo, 1);
  EXPECT_EQ(part.max_local_size(), hi);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionerTest,
    ::testing::Values(std::pair<index_t, int>{0, 1},
                      std::pair<index_t, int>{1, 1},
                      std::pair<index_t, int>{10, 3},
                      std::pair<index_t, int>{1000, 7},
                      std::pair<index_t, int>{2160L * 2160 * 2160 % 100000, 2048},
                      std::pair<index_t, int>{65536, 256}));

TEST(Partitioner, RejectsBadArguments) {
  EXPECT_THROW(Partitioner(-1, 4), config_error);
  EXPECT_THROW(Partitioner(10, 0), config_error);
}

}  // namespace
}  // namespace lck
