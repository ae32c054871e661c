#pragma once
/// \file reference_crc.hpp
/// \brief Byte-at-a-time reflected CRC: one 256-entry table lookup per
///        byte. Crc32 and Crc64 (slicing-by-8) must return the same value
///        for every input and every split of it into updates.

#include <array>
#include <cstdint>
#include <span>

#include "common/types.hpp"

namespace lck {

/// CRC of `data` for the reflected polynomial `poly`, init and final xor
/// all-ones (CRC-32/IEEE with 0xedb88320, CRC-64/XZ with
/// 0xc96c5795d7870f42).
template <typename T>
T reference_crc(std::span<const byte_t> data, T poly) {
  std::array<T, 256> table{};
  for (unsigned i = 0; i < 256; ++i) {
    T c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (poly ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  T state = ~T{0};
  for (const byte_t b : data) state = table[(state ^ b) & 0xffu] ^ (state >> 8);
  return ~state;
}

}  // namespace lck
