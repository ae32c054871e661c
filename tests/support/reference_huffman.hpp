#pragma once
/// \file reference_huffman.hpp
/// \brief Bit-serial canonical Huffman decoder: one bit per step, checking
///        each code length's canonical range in turn. HuffmanDecoder's
///        table-driven decode must return the same symbol, or throw the
///        same corrupt_stream_error, for every length set and bit stream —
///        including incomplete and over-subscribed sets.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bit_io.hpp"
#include "compress/huffman.hpp"

namespace lck {

class ReferenceHuffmanDecoder {
 public:
  explicit ReferenceHuffmanDecoder(std::span<const std::uint8_t> lengths) {
    for (const auto l : lengths) max_len_ = std::max<unsigned>(max_len_, l);
    if (max_len_ > kHuffmanMaxBits)
      throw corrupt_stream_error("huffman: code length exceeds limit");
    groups_.resize(max_len_ + 1);
    for (unsigned len = 1; len <= max_len_; ++len) {
      groups_[len].first_index = static_cast<std::uint32_t>(symbols_.size());
      for (std::size_t s = 0; s < lengths.size(); ++s)
        if (lengths[s] == len) {
          symbols_.push_back(static_cast<std::uint32_t>(s));
          ++groups_[len].count;
        }
    }
    std::uint32_t code = 0;
    std::uint32_t prev_count = 0;
    for (unsigned len = 1; len <= max_len_; ++len) {
      code = (code + prev_count) << 1;
      groups_[len].first_code = code;
      prev_count = groups_[len].count;
    }
  }

  [[nodiscard]] std::uint32_t decode(BitReader& br) const {
    std::uint32_t code = 0;
    for (unsigned len = 1; len <= max_len_; ++len) {
      code = (code << 1) | br.read_bit();
      const LengthGroup& g = groups_[len];
      if (g.count != 0 && code < g.first_code + g.count &&
          code >= g.first_code)
        return symbols_[g.first_index + (code - g.first_code)];
    }
    throw corrupt_stream_error("huffman: invalid code");
  }

 private:
  struct LengthGroup {
    std::uint32_t first_code = 0;
    std::uint32_t first_index = 0;
    std::uint32_t count = 0;
  };
  std::vector<LengthGroup> groups_;
  std::vector<std::uint32_t> symbols_;
  unsigned max_len_ = 0;
};

}  // namespace lck
