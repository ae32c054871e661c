/// Lossless codec tests: RLE, byte shuffle, deflate-like LZ77+Huffman, and
/// the Compressor-interface wrappers. Every codec must be bit-exact.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "compress/compressor.hpp"
#include "compress/lossless/byte_codecs.hpp"
#include "compress/lossless/deflate_like.hpp"
#include "compress/lossless_compressors.hpp"
#include "sparse/vector_ops.hpp"

namespace lck {
namespace {

std::vector<byte_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<byte_t> v(n);
  for (auto& b : v) b = static_cast<byte_t>(rng());
  return v;
}

// ----- RLE ------------------------------------------------------------------

TEST(Rle, EmptyInput) {
  const auto enc = rle_encode({});
  EXPECT_TRUE(rle_decode(enc, 0).empty());
}

TEST(Rle, AllSameByte) {
  std::vector<byte_t> in(1000, 0x7e);
  const auto enc = rle_encode(in);
  EXPECT_LT(enc.size(), 32u);  // long runs collapse
  EXPECT_EQ(rle_decode(enc, in.size()), in);
}

TEST(Rle, NoRuns) {
  std::vector<byte_t> in(256);
  std::iota(in.begin(), in.end(), 0);
  const auto enc = rle_encode(in);
  EXPECT_EQ(rle_decode(enc, in.size()), in);
  EXPECT_LE(enc.size(), in.size() + in.size() / 128 + 2);  // bounded expansion
}

TEST(Rle, MixedRunsAndLiterals) {
  std::vector<byte_t> in;
  for (int block = 0; block < 50; ++block) {
    in.insert(in.end(), static_cast<std::size_t>(block % 7 + 1),
              static_cast<byte_t>(block));
    in.push_back(static_cast<byte_t>(255 - block));
  }
  const auto enc = rle_encode(in);
  EXPECT_EQ(rle_decode(enc, in.size()), in);
}

TEST(Rle, RandomRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto in = random_bytes(1000 + seed * 137, seed);
    EXPECT_EQ(rle_decode(rle_encode(in), in.size()), in);
  }
}

TEST(Rle, WrongExpectedSizeThrows) {
  std::vector<byte_t> in(100, 3);
  const auto enc = rle_encode(in);
  EXPECT_THROW(rle_decode(enc, 99), corrupt_stream_error);
  EXPECT_THROW(rle_decode(enc, 101), corrupt_stream_error);
}

// ----- Shuffle ---------------------------------------------------------------

TEST(Shuffle, InverseOfUnshuffle) {
  const auto in = random_bytes(8 * 123, 5);
  const auto sh = shuffle_bytes(in, 8);
  EXPECT_NE(sh, in);
  EXPECT_EQ(unshuffle_bytes(sh, 8), in);
}

TEST(Shuffle, GroupsBytePlanes) {
  // Two 4-byte elements: planes must be contiguous after shuffling.
  std::vector<byte_t> in{0x01, 0x02, 0x03, 0x04, 0x11, 0x12, 0x13, 0x14};
  const auto sh = shuffle_bytes(in, 4);
  const std::vector<byte_t> expected{0x01, 0x11, 0x02, 0x12,
                                     0x03, 0x13, 0x04, 0x14};
  EXPECT_EQ(sh, expected);
}

TEST(Shuffle, RejectsMisalignedInput) {
  std::vector<byte_t> in(10);
  EXPECT_THROW(shuffle_bytes(in, 8), config_error);
  EXPECT_THROW(unshuffle_bytes(in, 3), config_error);
}

// ----- deflate-like -----------------------------------------------------------

/// deflate_decompress into a fresh buffer of `n` bytes.
std::vector<byte_t> inflate(std::span<const byte_t> enc, std::size_t n) {
  std::vector<byte_t> out(n);
  deflate_decompress(enc, out);
  return out;
}

TEST(Deflate, EmptyInput) {
  const auto enc = deflate_compress({});
  EXPECT_TRUE(inflate(enc, 0).empty());
}

TEST(Deflate, ShortInput) {
  std::vector<byte_t> in{42};
  EXPECT_EQ(inflate(deflate_compress(in), 1), in);
  std::vector<byte_t> in2{1, 2};
  EXPECT_EQ(inflate(deflate_compress(in2), 2), in2);
}

TEST(Deflate, HighlyRepetitiveCompressesHard) {
  std::vector<byte_t> in;
  for (int i = 0; i < 2000; ++i) {
    const char* phrase = "abcabcabc-";
    in.insert(in.end(), phrase, phrase + 10);
  }
  const auto enc = deflate_compress(in);
  EXPECT_LT(enc.size() * 20, in.size());  // > 20x on pure repetition
  EXPECT_EQ(inflate(enc, in.size()), in);
}

TEST(Deflate, IncompressibleFallsBackToStored) {
  const auto in = random_bytes(4096, 17);
  const auto enc = deflate_compress(in);
  EXPECT_LE(enc.size(), in.size() + 16);  // worst case: tiny header
  EXPECT_EQ(inflate(enc, in.size()), in);
}

TEST(Deflate, LongRangeMatchesWithinWindow) {
  // Repeat a 1 KiB block at a 20 KiB distance (inside the 32 KiB window).
  const auto block = random_bytes(1024, 23);
  std::vector<byte_t> in = block;
  in.resize(20 * 1024, 0x55);
  in.insert(in.end(), block.begin(), block.end());
  const auto enc = deflate_compress(in);
  EXPECT_EQ(inflate(enc, in.size()), in);
  // The second copy of the block should cost almost nothing.
  EXPECT_LT(enc.size(), in.size() / 2);
}

TEST(Deflate, MatchChoiceIsFirstLongestAlongTheChain) {
  // The hash chain is walked newest first and the first strictly longest
  // match wins: at 9000 the newer copy (5000, differs at byte 210) loses
  // to the older full copy (1000); at 29000 the two copies that match 200
  // bytes tie and the newer one (25000) wins. Size and CRC were recorded
  // with the byte-at-a-time search this one replaced.
  Rng rng(41);
  std::vector<byte_t> in(32000);
  for (auto& b : in) b = static_cast<byte_t>(rng());
  const std::vector<byte_t> block(in.begin() + 1000, in.begin() + 1300);
  const auto place = [&](std::size_t at, std::vector<std::size_t> flips) {
    auto copy = block;
    for (const auto f : flips) copy[f] ^= 0xff;
    std::copy(copy.begin(), copy.end(),
              in.begin() + static_cast<std::ptrdiff_t>(at));
  };
  place(5000, {210});
  place(9000, {});
  place(21000, {100});
  place(25000, {100});
  place(29000, {100, 200});
  const auto enc = deflate_compress(in);
  EXPECT_EQ(enc.size(), 30875u);
  EXPECT_EQ(crc32(enc), 0x3ad23c91u);
  EXPECT_EQ(inflate(enc, in.size()), in);
}

TEST(Deflate, SizeMismatchThrows) {
  std::vector<byte_t> in(100, 9);
  const auto enc = deflate_compress(in);
  EXPECT_THROW(inflate(enc, 101), corrupt_stream_error);
}

TEST(Deflate, TruncatedStreamThrows) {
  std::vector<byte_t> in(5000);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<byte_t>(i % 251);
  auto enc = deflate_compress(in);
  enc.resize(enc.size() / 2);
  EXPECT_THROW(inflate(enc, in.size()), corrupt_stream_error);
}

class DeflateRandomRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeflateRandomRoundTrip, MixedEntropyData) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<byte_t> in(n);
  // Mix of runs, text-like low entropy, and noise.
  std::size_t i = 0;
  while (i < n) {
    const auto kind = rng.uniform_index(3);
    const std::size_t len = std::min<std::size_t>(
        1 + rng.uniform_index(200), n - i);
    if (kind == 0) {
      std::fill_n(in.begin() + static_cast<std::ptrdiff_t>(i), len,
                  static_cast<byte_t>(rng()));
    } else if (kind == 1) {
      for (std::size_t k = 0; k < len; ++k)
        in[i + k] = static_cast<byte_t>('a' + (k % 17));
    } else {
      for (std::size_t k = 0; k < len; ++k)
        in[i + k] = static_cast<byte_t>(rng());
    }
    i += len;
  }
  EXPECT_EQ(inflate(deflate_compress(in), n), in);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeflateRandomRoundTrip,
                         ::testing::Values(3, 64, 1000, 16384, 100000));

// ----- Compressor wrappers ------------------------------------------------------

Vector smooth_vector(std::size_t n) {
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(0.001 * static_cast<double>(i)) * 3.0 + 5.0;
  return v;
}

class LosslessWrapper : public ::testing::TestWithParam<const char*> {};

TEST_P(LosslessWrapper, ExactRoundTripOnSmoothData) {
  const auto comp = make_compressor(GetParam());
  EXPECT_FALSE(comp->lossy());
  const Vector in = smooth_vector(10000);
  const auto stream = comp->compress(in);
  Vector out(in.size());
  comp->decompress(stream, out);
  EXPECT_EQ(in, out);  // bit-exact
}

TEST_P(LosslessWrapper, ExactRoundTripOnSpecialValues) {
  const auto comp = make_compressor(GetParam());
  Vector in{0.0, -0.0, 1e-308, -1e308,
            std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::denorm_min(), 1.0, -1.0};
  in.resize(64, 3.25);
  const auto stream = comp->compress(in);
  Vector out(in.size());
  comp->decompress(stream, out);
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (std::isnan(in[i]))
      EXPECT_TRUE(std::isnan(out[i]));
    else
      EXPECT_EQ(in[i], out[i]) << "index " << i;
  }
}

TEST_P(LosslessWrapper, EmptyVector) {
  const auto comp = make_compressor(GetParam());
  const Vector in;
  const auto stream = comp->compress(in);
  Vector out;
  comp->decompress(stream, out);
  EXPECT_TRUE(out.empty());
}

TEST_P(LosslessWrapper, WrongOutputSizeThrows) {
  const auto comp = make_compressor(GetParam());
  const Vector in(100, 1.5);
  const auto stream = comp->compress(in);
  Vector out(99);
  EXPECT_THROW(comp->decompress(stream, out), corrupt_stream_error);
}

INSTANTIATE_TEST_SUITE_P(AllLossless, LosslessWrapper,
                         ::testing::Values("none", "rle", "shuffle-rle",
                                           "deflate", "shuffle-deflate"));

TEST(LosslessRatio, ShuffleHelpsOnSmoothDoubles) {
  const Vector v = smooth_vector(20000);
  const auto plain = make_compressor("deflate");
  const auto shuf = make_compressor("shuffle-deflate");
  const double r_plain = compression_ratio(*plain, v);
  const double r_shuf = compression_ratio(*shuf, v);
  EXPECT_GT(r_plain, 1.0);
  EXPECT_GT(r_shuf, r_plain);  // byte planes expose exponent redundancy
}

TEST(LosslessRatio, GzipClassRatioIsLimitedOnSolverData) {
  // Paper §2: lossless ratios on floating-point scientific data are small
  // (up to ~2 in general, ~6 for the smoothest fields).
  Rng rng(5);
  Vector v(20000);
  for (auto& x : v) x = 1.0 + 0.1 * rng.uniform();  // noisy mantissas
  const auto comp = make_compressor("deflate");
  const double r = compression_ratio(*comp, v);
  EXPECT_GT(r, 0.9);
  EXPECT_LT(r, 3.0);
}

TEST(CompressorFactory, UnknownNameThrows) {
  EXPECT_THROW(make_compressor("not-a-compressor"), config_error);
}

}  // namespace
}  // namespace lck
