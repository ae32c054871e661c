#pragma once
/// \file chunk_hash.hpp
/// \brief CRC-64 (ECMA-182 polynomial, reflected — the XZ variant) used as
///        the content address of checkpoint chunks.
///
/// The delta checkpoint layer identifies a chunk by the CRC-64 of its raw
/// bytes: two chunks with the same hash are treated as the same content
/// (standard content-addressed-storage assumption; the 64-bit space makes
/// an accidental collision across a checkpoint history vanishingly
/// unlikely, and a cross-length collision is caught by the compressor's
/// embedded element count at decode time).

#include <cstdint>
#include <span>

#include "common/types.hpp"

namespace lck {

/// Incremental CRC-64/XZ computation (poly 0x42F0E1EBA9EA3693, reflected,
/// init/xorout all-ones).
class Crc64 {
 public:
  /// Fold `data` into the running hash (slicing-by-8, see
  /// common/crc_slicing.hpp).
  void update(std::span<const byte_t> data) noexcept;

  [[nodiscard]] std::uint64_t value() const noexcept {
    return state_ ^ 0xffffffffffffffffull;
  }

 private:
  std::uint64_t state_ = 0xffffffffffffffffull;
};

/// One-shot CRC-64 of a byte span.
[[nodiscard]] std::uint64_t crc64(std::span<const byte_t> data) noexcept;

}  // namespace lck
