#pragma once
/// \file exact_array.hpp
/// \brief Shared helpers for the pointwise-relative stream layout: RLE
///        bitsets and the compact "exact entries" encoding.
///
/// The pointwise-relative codecs (SzLikeCompressor's kPointwiseRelative
/// branch and PointwiseRelativeAdapter) store some entries verbatim: zeros,
/// subnormals, non-finites, and everything when eb == 0. Those entries are
/// dominated by ±0.0 in sparse solver fields, so a verbatim 8 B/element
/// array would pin the ratio at ≈ 1. Instead an RLE bitset marks the rare
/// non-zero exact entries and only their values are stored; zeros rebuild
/// from the caller's sign bitset (±0.0 bit-exactly).

#include <span>
#include <vector>

#include "common/bit_io.hpp"
#include "common/byte_buffer.hpp"
#include "compress/lossless/byte_codecs.hpp"

namespace lck {

/// Write a bitset of n bits, RLE-compressed: solver sign/zero masks are
/// almost always constant, so this costs ~0 bits per element instead of 1.
inline void write_rle_bitset(ByteWriter& out, const std::vector<bool>& bits) {
  BitWriter bw;
  for (const bool b : bits) bw.write_bit(b ? 1u : 0u);
  const auto rle = rle_encode(bw.finish());
  out.put(static_cast<std::uint64_t>(rle.size()));
  out.put_bytes(rle);
}

inline std::vector<bool> read_rle_bitset(ByteReader& in, std::size_t n) {
  const auto rle_size = in.get<std::uint64_t>();
  const auto packed = rle_decode(in.get_bytes(rle_size), (n + 7) / 8);
  BitReader br(packed);
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = br.read_bit() != 0;
  return bits;
}

/// Append the compact exact-array encoding for the entries of `data` whose
/// `exact_mask` bit is set: an RLE nonzero bitset over the exact entries,
/// then a length-prefixed verbatim array of only the non-zero values.
inline void write_exact_array(ByteWriter& out, std::span<const double> data,
                              const std::vector<bool>& exact_mask) {
  std::vector<bool> nonzero;
  std::vector<double> values;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!exact_mask[i]) continue;
    const double x = data[i];
    const bool is_nonzero = x != 0.0;  // ±0.0 compare equal: both implied
    nonzero.push_back(is_nonzero);
    if (is_nonzero) values.push_back(x);
  }
  write_rle_bitset(out, nonzero);
  out.put(static_cast<std::uint64_t>(values.size()));
  out.put_array(values.data(), values.size());
}

/// Streaming decoder for write_exact_array's output. Construct with the
/// number of exact entries (the popcount of the caller's exact mask), then
/// call next() once per exact entry in order.
class ExactArrayReader {
 public:
  ExactArrayReader(ByteReader& in, std::size_t exact_entries)
      : nonzero_(read_rle_bitset(in, exact_entries)) {
    const auto count = in.get<std::uint64_t>();
    if (count > exact_entries || count > in.remaining() / sizeof(double))
      throw corrupt_stream_error("exact array: implausible value count");
    values_.resize(count);
    in.get_array(values_.data(), count);
  }

  /// Value of the next exact entry; `negative` restores the sign of an
  /// implied zero (±0.0 bit-exactly).
  double next(bool negative) {
    if (entry_ >= nonzero_.size())
      throw corrupt_stream_error("exact array: entry stream exhausted");
    if (nonzero_[entry_++]) {
      if (value_ >= values_.size())
        throw corrupt_stream_error("exact array: value stream exhausted");
      return values_[value_++];
    }
    return negative ? -0.0 : 0.0;
  }

 private:
  std::vector<bool> nonzero_;
  std::vector<double> values_;
  std::size_t entry_ = 0;
  std::size_t value_ = 0;
};

}  // namespace lck
