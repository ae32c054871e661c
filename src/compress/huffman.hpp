#pragma once
/// \file huffman.hpp
/// \brief Canonical Huffman coding over a generic symbol alphabet.
///
/// Shared by the SZ-like compressor (quantization codes) and the
/// deflate-like lossless compressor (literal/length and distance alphabets).
/// Codes are canonical so only the code-length array is serialized.

#include <cstdint>
#include <span>
#include <vector>

#include "common/bit_io.hpp"
#include "common/byte_buffer.hpp"
#include "common/types.hpp"

namespace lck {

/// Maximum permitted code length; longer optimal codes are flattened by
/// iterative frequency scaling (rare, only for extreme skew).
inline constexpr unsigned kHuffmanMaxBits = 24;

/// Compute optimal prefix-code lengths for `freqs` (0 frequency ⇒ length 0).
/// Guarantees all lengths ≤ kHuffmanMaxBits.
[[nodiscard]] std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs);

/// Symbol-frequency histogram over `symbols` (each must be < `alphabet`).
/// Internally accumulates eight interleaved partial histograms (the
/// dispatched `hist8` kernel) so the counter increments form independent
/// dependency chains (the single loop-carried `++freq[c]` serializes on
/// store-to-load forwarding for skewed symbol streams), then merges them.
/// Integer addition is associative, so the result is identical to the
/// naive loop.
[[nodiscard]] std::vector<std::uint64_t> count_frequencies(
    std::span<const std::uint32_t> symbols, std::size_t alphabet);

/// Canonical Huffman encoder built from code lengths.
class HuffmanEncoder {
 public:
  explicit HuffmanEncoder(std::span<const std::uint8_t> lengths);

  void encode(BitWriter& bw, std::uint32_t symbol) const {
    bw.write_bits(codes_[symbol], lengths_[symbol]);
  }

  [[nodiscard]] unsigned length_of(std::uint32_t symbol) const {
    return lengths_[symbol];
  }

 private:
  std::vector<std::uint32_t> codes_;
  std::vector<std::uint8_t> lengths_;
};

/// Canonical Huffman decoder built from the same code lengths.
///
/// One lookup in a 2^kTableBits-entry table, indexed by the next
/// kTableBits bits, resolves every code of up to kTableBits bits. Longer
/// codes, and bit patterns no code matches, fall back to the canonical walk
/// from length kTableBits + 1. The table is filled by that same walk's rule
/// (the shortest length whose canonical range holds the prefix wins), so
/// incomplete and over-subscribed length sets decode to the same symbol, or
/// throw the same corrupt_stream_error, as a bit-at-a-time walk would.
class HuffmanDecoder {
 public:
  static constexpr unsigned kTableBits = 11;

  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths);

  [[nodiscard]] std::uint32_t decode(BitReader& br) const {
    static_assert(kHuffmanMaxBits <= BitReader::kMaxPeekBits);
    const std::uint64_t bits = br.peek(kHuffmanMaxBits);
    const std::uint32_t e = table_[bits >> (kHuffmanMaxBits - kTableBits)];
    if (e == 0) return decode_slow(br, bits);
    br.skip(e & kLenMask);
    return e >> kLenBits;
  }

 private:
  // Table entry: symbol << kLenBits | code length; 0 = not resolved here.
  static constexpr unsigned kLenBits = 5;
  static constexpr std::uint32_t kLenMask = (1u << kLenBits) - 1;

  /// Canonical walk over lengths kTableBits+1..max_len_ for the
  /// kHuffmanMaxBits-bit prefix `bits`.
  [[nodiscard]] std::uint32_t decode_slow(BitReader& br,
                                          std::uint64_t bits) const;

  // Per length L: first canonical code value and index into sorted symbols.
  struct LengthGroup {
    std::uint32_t first_code = 0;
    std::uint32_t first_index = 0;
    std::uint32_t count = 0;
  };
  std::vector<LengthGroup> groups_;   // index = code length
  std::vector<std::uint32_t> symbols_;  // sorted by (length, symbol)
  std::vector<std::uint32_t> table_;   // 2^kTableBits entries
  unsigned max_len_ = 0;
};

/// Serialize a code-length array compactly (RLE of zeros + one byte per
/// nonzero length).
void write_code_lengths(ByteWriter& out, std::span<const std::uint8_t> lengths);

/// Inverse of write_code_lengths; `alphabet` is the expected array size.
[[nodiscard]] std::vector<std::uint8_t> read_code_lengths(ByteReader& in,
                                                          std::size_t alphabet);

}  // namespace lck
