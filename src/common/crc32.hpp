#pragma once
/// \file crc32.hpp
/// \brief CRC-32 (IEEE 802.3 polynomial, reflected) used for checkpoint and
///        compressed-stream integrity checks.

#include <cstdint>
#include <span>

#include "common/types.hpp"

namespace lck {

/// Incremental CRC-32 computation.
class Crc32 {
 public:
  /// Fold `data` into the running checksum (slicing-by-8, see
  /// crc_slicing.hpp).
  void update(std::span<const byte_t> data) noexcept;

  /// Final checksum value.
  [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

/// One-shot CRC-32 of a byte span.
[[nodiscard]] std::uint32_t crc32(std::span<const byte_t> data) noexcept;

}  // namespace lck
