/// Canonical Huffman coder tests: optimality properties, round trips over
/// skewed and uniform distributions, table serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>

#include "common/rng.hpp"
#include "compress/huffman.hpp"
#include "support/reference_huffman.hpp"

namespace lck {
namespace {

/// Kraft sum Σ 2^-len must equal 1 for a complete prefix code (≤ 1 always).
double kraft_sum(std::span<const std::uint8_t> lengths) {
  double s = 0.0;
  for (const auto l : lengths)
    if (l > 0) s += std::ldexp(1.0, -static_cast<int>(l));
  return s;
}

std::vector<std::uint32_t> roundtrip(std::span<const std::uint8_t> lengths,
                                     std::span<const std::uint32_t> symbols) {
  const HuffmanEncoder enc(lengths);
  BitWriter bw;
  for (const auto s : symbols) enc.encode(bw, s);
  const auto buf = bw.finish();
  const HuffmanDecoder dec(lengths);
  BitReader br(buf);
  std::vector<std::uint32_t> out;
  out.reserve(symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) out.push_back(dec.decode(br));
  return out;
}

/// Dense lengths of all `alphabet` symbols from a window.
std::vector<std::uint8_t> expand(const CodeLengths& t, std::size_t alphabet) {
  std::vector<std::uint8_t> dense(alphabet, 0);
  for (std::size_t i = 0; i < t.lengths.size(); ++i)
    dense[i == 0 ? 0 : t.first + i - 1] = t.lengths[i];
  return dense;
}

/// Symbol 0 and the first and last symbols above it with a nonzero entry
/// (first = 1, last = 0 when there is none).
struct Window {
  std::size_t first = 1, last = 0;
  [[nodiscard]] std::size_t size() const { return last + 2 - first; }
};

template <typename T>
Window window_of(const std::vector<T>& dense) {
  Window w;
  for (std::size_t s = dense.size(); s-- > 1;)
    if (dense[s] != 0) {
      if (w.last == 0) w.last = s;
      w.first = s;
    }
  return w;
}

/// Entries {0} ∪ [w.first, w.last] of `dense`.
template <typename T>
std::vector<T> slice(const std::vector<T>& dense, const Window& w) {
  if (dense.empty()) return {};
  std::vector<T> out{dense[0]};
  if (w.last != 0)
    out.insert(out.end(), dense.begin() + static_cast<std::ptrdiff_t>(w.first),
               dense.begin() + static_cast<std::ptrdiff_t>(w.last + 1));
  return out;
}

TEST(Huffman, EmptyFrequenciesGiveEmptyLengths) {
  EXPECT_TRUE(huffman_code_lengths({}).empty());
}

TEST(Huffman, LengthsSatisfyKraft) {
  std::vector<std::uint64_t> freqs{10, 1, 1, 5, 30, 0, 2};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_NEAR(kraft_sum(lengths), 1.0, 1e-12);
  EXPECT_EQ(lengths[5], 0);  // zero-frequency symbol gets no code
}

TEST(Huffman, MoreFrequentSymbolsGetShorterCodes) {
  std::vector<std::uint64_t> freqs{1000, 100, 10, 1};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_LE(lengths[0], lengths[1]);
  EXPECT_LE(lengths[1], lengths[2]);
  EXPECT_LE(lengths[2], lengths[3]);
}

TEST(Huffman, SingleSymbolAlphabet) {
  std::vector<std::uint64_t> freqs{0, 0, 42, 0};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_EQ(lengths[2], 1);
  std::vector<std::uint32_t> syms(100, 2);
  EXPECT_EQ(roundtrip(lengths, syms), syms);
}

TEST(Huffman, TwoSymbolRoundTrip) {
  std::vector<std::uint64_t> freqs{3, 7};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_EQ(lengths[0], 1);
  EXPECT_EQ(lengths[1], 1);
  std::vector<std::uint32_t> syms{0, 1, 1, 0, 1, 1, 1, 0};
  EXPECT_EQ(roundtrip(lengths, syms), syms);
}

TEST(Huffman, ExtremeSkewRespectsMaxLength) {
  // Fibonacci-like frequencies force deep optimal trees; the builder must
  // flatten them to kHuffmanMaxBits.
  std::vector<std::uint64_t> freqs(40);
  std::uint64_t a = 1, b = 1;
  for (auto& f : freqs) {
    f = a;
    const auto next = a + b;
    a = b;
    b = next;
  }
  const auto lengths = huffman_code_lengths(freqs);
  for (const auto l : lengths) EXPECT_LE(l, kHuffmanMaxBits);
  EXPECT_LE(kraft_sum(lengths), 1.0 + 1e-12);
}

class HuffmanDistribution
    : public ::testing::TestWithParam<std::pair<std::size_t, double>> {};

TEST_P(HuffmanDistribution, RandomStreamRoundTrip) {
  const auto [alphabet, skew] = GetParam();
  Rng rng(99);
  // Zipf-ish frequencies with the given skew.
  std::vector<std::uint64_t> freqs(alphabet);
  for (std::size_t s = 0; s < alphabet; ++s)
    freqs[s] = static_cast<std::uint64_t>(
        1000.0 / std::pow(static_cast<double>(s + 1), skew)) + 1;

  // Sample a stream following those frequencies.
  std::vector<std::uint32_t> cumulative;
  std::uint64_t total = 0;
  for (const auto f : freqs) {
    total += f;
    cumulative.push_back(static_cast<std::uint32_t>(total));
  }
  std::vector<std::uint32_t> stream(5000);
  for (auto& s : stream) {
    const auto u = rng.uniform_index(total);
    s = static_cast<std::uint32_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u + 1) -
        cumulative.begin());
  }

  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_EQ(roundtrip(lengths, stream), stream);
}

INSTANTIATE_TEST_SUITE_P(
    AlphabetsAndSkews, HuffmanDistribution,
    ::testing::Values(std::pair<std::size_t, double>{2, 0.0},
                      std::pair<std::size_t, double>{16, 1.0},
                      std::pair<std::size_t, double>{256, 1.5},
                      std::pair<std::size_t, double>{1024, 0.5},
                      std::pair<std::size_t, double>{65536, 2.0}));

TEST(Huffman, CodeLengthSerializationRoundTrip) {
  std::vector<std::uint64_t> freqs(300, 0);
  freqs[0] = 100;
  freqs[7] = 50;
  freqs[255] = 10;
  freqs[299] = 1;
  const auto lengths = huffman_code_lengths(freqs);

  ByteWriter w;
  write_code_lengths(w, lengths, lengths.size());
  const auto buf = std::move(w).take();
  ByteReader r(buf);
  const auto restored = read_code_lengths(r, lengths.size());
  // Symbol 0 plus the window from the lowest to the highest used symbol.
  EXPECT_EQ(restored.first, 7u);
  EXPECT_EQ(restored.lengths.size(), 299u - 7u + 2u);
  EXPECT_EQ(expand(restored, lengths.size()), lengths);
}

TEST(Huffman, SerializationZeroRunsAreCompact) {
  // 65536-symbol alphabet with 3 used symbols must serialize to well under
  // a kilobyte (zero-run coding), not 64 KiB.
  std::vector<std::uint64_t> freqs(65536, 0);
  freqs[1] = 5;
  freqs[32768] = 5;
  freqs[65535] = 2;
  const auto lengths = huffman_code_lengths(freqs);
  ByteWriter w;
  write_code_lengths(w, lengths, lengths.size());
  EXPECT_LT(w.size(), 64u);
}

TEST(Huffman, SerializationAlphabetMismatchThrows) {
  std::vector<std::uint64_t> freqs{1, 2, 3};
  const auto lengths = huffman_code_lengths(freqs);
  ByteWriter w;
  write_code_lengths(w, lengths, lengths.size());
  const auto buf = std::move(w).take();
  ByteReader r(buf);
  EXPECT_THROW(read_code_lengths(r, 4), corrupt_stream_error);
}

/// Frequencies over `alphabet` symbols: a random band of used symbols
/// (SZ's quantization codes around the radius), optionally symbol 0 (its
/// outliers) and the alphabet's last symbol.
std::vector<std::uint64_t> band_freqs(Rng& rng, std::size_t alphabet) {
  std::vector<std::uint64_t> f(alphabet, 0);
  const std::size_t width = 1 + rng.uniform_index(std::min<std::size_t>(
                                    alphabet, 600));
  const std::size_t lo = rng.uniform_index(alphabet - width + 1);
  for (std::size_t s = lo; s < lo + width; ++s)
    if (rng.uniform() < 0.7)
      f[s] = 1 + static_cast<std::uint64_t>(
                     1000.0 * std::exp(-0.02 * static_cast<double>(s - lo)) *
                     rng.uniform());
  if (rng.uniform() < 0.5) f[0] = 1 + rng.uniform_index(50);
  if (rng.uniform() < 0.2) f[alphabet - 1] = 1 + rng.uniform_index(5);
  return f;
}

TEST(Huffman, WindowedSetupMatchesTheFullAlphabet) {
  // Lengths, codes, the serialized table and the decoded symbols of a
  // window equal those of the full alphabet, byte for byte.
  Rng rng(31);
  for (int trial = 0; trial < 240; ++trial) {
    const std::size_t alphabets[] = {1, 2, 19, 30, 286, 4096, 65536};
    const std::size_t alphabet = alphabets[trial % 7];
    const auto dense_freqs = band_freqs(rng, alphabet);
    const auto dense = huffman_code_lengths(dense_freqs);
    const Window w = window_of(dense_freqs);
    const auto first = static_cast<std::uint32_t>(w.first);
    const auto lengths = huffman_code_lengths(slice(dense_freqs, w));
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " window ["
                                      << w.first << ", " << w.last << "]");
    ASSERT_EQ(lengths, slice(dense, w));

    ByteWriter full, windowed;
    write_code_lengths(full, dense, alphabet);
    write_code_lengths(windowed, lengths, alphabet, first);
    const auto table = std::move(windowed).take();
    ASSERT_EQ(std::move(full).take(), table);
    ByteReader r(table);
    const auto read = read_code_lengths(r, alphabet);
    EXPECT_EQ(read.first, first);
    EXPECT_EQ(read.lengths, lengths);

    // Same bits from the dense and the window encoder; the window decoder
    // returns alphabet symbols.
    std::vector<std::uint32_t> symbols;
    for (std::size_t s = 0; s < alphabet; ++s)
      for (std::uint64_t k = 0; k < std::min<std::uint64_t>(dense_freqs[s], 3);
           ++k)
        symbols.push_back(static_cast<std::uint32_t>(s));
    const HuffmanEncoder dense_enc(dense), enc(lengths);
    BitWriter a, b;
    for (const auto s : symbols) {
      dense_enc.encode(a, s);
      enc.encode(b, s == 0 ? 0 : s - first + 1);
    }
    const auto bits = a.finish();
    ASSERT_EQ(bits, b.finish());
    const HuffmanDecoder dec(read.lengths, read.first);
    BitReader br(bits);
    for (const auto s : symbols) ASSERT_EQ(dec.decode(br), s);
  }
}

TEST(Huffman, WindowedTablesAtTheAlphabetEdges) {
  // Zero runs of exactly 0xffff and 0x10000 symbols, codes only at the
  // first and last symbols, and every symbol coded.
  const std::size_t n = 65536;
  std::vector<std::vector<std::uint8_t>> sets(6, std::vector<std::uint8_t>(n));
  sets[1][0] = 1;
  sets[2][n - 1] = 1;
  sets[3][0] = sets[3][n - 1] = 1;
  sets[4][1] = sets[4][n - 1] = 1;
  sets[5].assign(n, 16);
  for (const auto& dense : sets) {
    const Window w = window_of(dense);
    ByteWriter full, windowed;
    write_code_lengths(full, dense, n);
    write_code_lengths(windowed, slice(dense, w), n,
                       static_cast<std::uint32_t>(w.first));
    const auto table = std::move(windowed).take();
    ASSERT_EQ(std::move(full).take(), table);
    ByteReader r(table);
    const auto read = read_code_lengths(r, n);
    EXPECT_EQ(read.lengths.size(), w.size());
    EXPECT_EQ(expand(read, n), dense);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(Huffman, DecoderRejectsGarbage) {
  std::vector<std::uint64_t> freqs{5, 5, 5};
  const auto lengths = huffman_code_lengths(freqs);
  const HuffmanDecoder dec(lengths);
  // An all-ones stream longer than any valid code must eventually throw
  // (either invalid code or bit exhaustion).
  std::vector<byte_t> garbage(1, 0xff);
  BitReader br(garbage);
  EXPECT_THROW(
      {
        for (int i = 0; i < 100; ++i) (void)dec.decode(br);
      },
      corrupt_stream_error);
}

/// Decode `bits` with the table-driven and the bit-serial reference
/// decoder side by side until both throw: every symbol, every bit position
/// and the final exception message must agree.
/// Both the decoder over the whole alphabet and the one over the narrowest
/// window are checked.
void expect_matches_reference(const std::vector<std::uint8_t>& lengths,
                              const std::vector<byte_t>& bits) {
  const ReferenceHuffmanDecoder ref(lengths);
  const Window w = window_of(lengths);
  const HuffmanDecoder whole(lengths);
  const HuffmanDecoder windowed(slice(lengths, w),
                                static_cast<std::uint32_t>(w.first));
  for (const HuffmanDecoder* dec : {&whole, &windowed}) {
    BitReader a(bits), b(bits);
    for (std::size_t k = 0;; ++k) {
      std::string ea, eb;
      std::uint32_t sa = 0, sb = 0;
      try {
        sa = dec->decode(a);
      } catch (const corrupt_stream_error& e) {
        ea = e.what();
      }
      try {
        sb = ref.decode(b);
      } catch (const corrupt_stream_error& e) {
        eb = e.what();
      }
      ASSERT_EQ(ea, eb) << "symbol " << k;
      if (!ea.empty()) break;
      ASSERT_EQ(sa, sb) << "symbol " << k;
      ASSERT_EQ(a.bit_position(), b.bit_position()) << "symbol " << k;
    }
  }
}

std::vector<byte_t> random_bits(Rng& rng, std::size_t nbytes) {
  std::vector<byte_t> v(nbytes);
  for (auto& x : v) x = static_cast<byte_t>(rng());
  return v;
}

/// Streams to run each length set against: empty, constant and random,
/// short enough to end mid-code and long enough to hit every table entry.
std::vector<std::vector<byte_t>> probe_streams(Rng& rng) {
  std::vector<std::vector<byte_t>> s{{}, {0x00}, {0xff}, {0x80, 0x01},
                                     std::vector<byte_t>(40, 0x00),
                                     std::vector<byte_t>(40, 0xff)};
  for (const std::size_t n : {1, 2, 3, 5, 9, 33, 600})
    s.push_back(random_bits(rng, n));
  return s;
}

TEST(HuffmanDecoder, MatchesBitSerialReferenceOnEdgeCaseLengthSets) {
  std::vector<std::vector<std::uint8_t>> sets{
      {},                      // empty alphabet
      {0, 0, 0},               // no codes at all
      {0, 0, 1, 0},            // single symbol, 1 bit: '1' is invalid
      {0, 5},                  // single symbol, 5 bits
      {24},                    // single symbol, longest length
      {1, 0, 3},               // incomplete: '101' and '11x' invalid
      {2, 2, 2},               // incomplete: '11' invalid
      {12, 12, 13, 20, 24},    // incomplete, every code past the table
      {1, 1, 1},               // over-subscribed at one length
      {2, 2, 2, 2, 2, 1},      // over-subscribed across lengths
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 12},  // complete, deep
  };
  // Over-subscribed so far that the canonical first code wraps u32.
  std::vector<std::uint8_t> wrap(70000, 1);
  wrap[5] = 20;
  wrap[69999] = 24;
  sets.push_back(wrap);
  // Complete codes up to 20 bits from the length limiter, then the same
  // set with symbols removed (incomplete) and with one added (over-full).
  std::vector<std::uint64_t> fib(40);
  std::uint64_t x = 1, y = 1;
  for (auto& f : fib) {
    f = x;
    const auto next = x + y;
    x = y;
    y = next;
  }
  auto deep = huffman_code_lengths(fib);
  sets.push_back(deep);
  deep[0] = 0;
  deep[17] = 0;
  sets.push_back(deep);
  deep.push_back(3);
  sets.push_back(deep);

  Rng rng(77);
  const auto streams = probe_streams(rng);
  for (std::size_t k = 0; k < sets.size(); ++k)
    for (std::size_t j = 0; j < streams.size(); ++j) {
      SCOPED_TRACE(::testing::Message() << "set " << k << " stream " << j);
      expect_matches_reference(sets[k], streams[j]);
    }
}

TEST(HuffmanDecoder, MatchesBitSerialReferenceOnRandomLengthSets) {
  // Random lengths are mostly incomplete or over-subscribed; bias half the
  // sets toward codes longer than the first-level table.
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t alphabet = 1 + rng.uniform_index(48);
    std::vector<std::uint8_t> lengths(alphabet);
    const unsigned lo = trial % 2 == 0 ? 1 : HuffmanDecoder::kTableBits;
    for (auto& l : lengths)
      l = rng.uniform() < 0.2
              ? 0
              : static_cast<std::uint8_t>(
                    lo + rng.uniform_index(kHuffmanMaxBits - lo + 1));
    for (int j = 0; j < 3; ++j) {
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " j " << j);
      expect_matches_reference(lengths,
                               random_bits(rng, 1 + rng.uniform_index(64)));
    }
  }
}

TEST(HuffmanDecoder, MatchesBitSerialReferenceOnBandedLengthSets) {
  // SZ-like and deflate-sized sets, complete, incomplete (a code dropped)
  // and over-subscribed (the last symbol added at 3 bits).
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t alphabet = trial % 2 == 0 ? 65536 : 286;
    auto lengths = huffman_code_lengths(band_freqs(rng, alphabet));
    if (trial % 3 == 0)
      *std::find_if(lengths.begin(), lengths.end(),
                    [](std::uint8_t l) { return l != 0; }) = 0;
    if (trial % 3 == 1) lengths[alphabet - 1] = 3;
    for (int j = 0; j < 4; ++j) {
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " j " << j);
      expect_matches_reference(lengths,
                               random_bits(rng, 1 + rng.uniform_index(200)));
    }
  }
}

TEST(Huffman, CompressionBeatsFixedWidthOnSkewedData) {
  // Entropy check: heavily skewed stream should cost far fewer bits than
  // the fixed-width encoding.
  std::vector<std::uint64_t> freqs{9000, 500, 300, 150, 50};
  const auto lengths = huffman_code_lengths(freqs);
  const HuffmanEncoder enc(lengths);
  BitWriter bw;
  for (std::size_t s = 0; s < freqs.size(); ++s)
    for (std::uint64_t i = 0; i < freqs[s]; ++i)
      enc.encode(bw, static_cast<std::uint32_t>(s));
  const double fixed_bits = 10000.0 * 3;  // 5 symbols => 3 bits fixed
  EXPECT_LT(static_cast<double>(bw.bit_count()), 0.6 * fixed_bits);
}

}  // namespace
}  // namespace lck
