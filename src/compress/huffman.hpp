#pragma once
/// \file huffman.hpp
/// \brief Canonical Huffman coding over a generic symbol alphabet.
///
/// Shared by the SZ-like compressor (quantization codes) and the
/// deflate-like lossless compressor (literal/length and distance alphabets).
/// Codes are canonical so only the code-length array is serialized.
///
/// Setup cost scales with the symbols a code uses, not with its alphabet.
/// Every function below works on a code-length *window*: entry 0 is symbol
/// 0 and entry i ≥ 1 is symbol `first + i − 1`, every symbol outside it
/// having length 0. Deflate's alphabets (286 and 30 symbols) are their own
/// window (first = 1). SZ codes a 4,096-element chunk over {0} ∪ [lo, hi],
/// its outlier code plus the band of quantization codes the chunk
/// produced, instead of all 65,536. Tree construction breaks ties by
/// symbol order, canonical codes are assigned in symbol order and the
/// decoder sorts by (length, symbol); the window keeps that order, so its
/// lengths, codes and decoded symbols equal those of the full alphabet, and
/// write_code_lengths still emits the full alphabet's zero-run table:
/// streams are byte-identical.

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

/// Compute optimal prefix-code lengths for `freqs` (0 frequency ⇒ length 0;
/// an empty span gives an empty result). Guarantees all lengths ≤
/// kHuffmanMaxBits.
[[nodiscard]] std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs);

/// Symbol-frequency histogram over `symbols` (each must be < `alphabet`).
/// With at least 8 × `alphabet` symbols it accumulates eight interleaved
/// partial histograms (the dispatched `hist8` kernel) so the counter
/// increments form independent dependency chains (the single loop-carried
/// `++freq[c]` serializes on store-to-load forwarding for skewed symbol
/// streams), then merges them. Shorter streams do not repay clearing and
/// merging the 8 × `alphabet` partial counters, so they take the plain
/// loop. Integer addition is associative, so both give identical counts.
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

/// Canonical Huffman decoder built from the same code lengths, over the
/// window that starts at `first` (see the file comment): decode() returns
/// alphabet symbols, not window indices.
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

  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths,
                          std::uint32_t first = 1);

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
  std::vector<std::uint32_t> symbols_;  // alphabet symbols by (length, symbol)
  std::vector<std::uint32_t> table_;   // 2^kTableBits entries
  unsigned max_len_ = 0;
};

/// Code lengths over the window {0} ∪ [first, first + lengths.size() − 1)
/// of an alphabet: lengths[0] is symbol 0's, lengths[i] (i ≥ 1) is symbol
/// first + i − 1's, and every other symbol has length 0.
struct CodeLengths {
  std::vector<std::uint8_t> lengths;
  std::uint32_t first = 1;
};

/// Serialize the code lengths of all `alphabet` symbols compactly (RLE of
/// zeros + one byte per nonzero length), given those of the window that
/// starts at `first`; symbols outside the window are written as zeros.
/// Runs are emitted arithmetically, so the cost is the window's, not the
/// alphabet's.
void write_code_lengths(ByteWriter& out, std::span<const std::uint8_t> lengths,
                        std::size_t alphabet, std::uint32_t first = 1);

/// Inverse of write_code_lengths; `alphabet` is the expected array size.
/// Returns the narrowest window: symbol 0 plus the span from the lowest to
/// the highest nonzero length above it (first = 1 and one entry when there
/// is none).
[[nodiscard]] CodeLengths read_code_lengths(ByteReader& in,
                                            std::size_t alphabet);

}  // namespace lck
