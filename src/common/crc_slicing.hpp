#pragma once
/// \file crc_slicing.hpp
/// \brief Slicing-by-8 update shared by the reflected CRC-32 and CRC-64.
///
/// Eight 256-entry tables fold eight input bytes into the state per step
/// (table k advances a byte by k further byte positions), so a step costs
/// eight independent loads instead of eight dependent ones. The value equals
/// the byte-at-a-time loop's for every input and every split into updates.

#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/types.hpp"

namespace lck {

template <typename T>
using CrcTables = std::array<std::array<T, 256>, 8>;

/// Tables for the reflected polynomial `poly`; [0] is the byte-wise table.
template <typename T>
CrcTables<T> make_crc_tables(T poly) noexcept {
  CrcTables<T> t{};
  for (unsigned i = 0; i < 256; ++i) {
    T c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (poly ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (unsigned k = 1; k < 8; ++k)
    for (unsigned i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
  return t;
}

/// Fold `data` into the (pre-inverted) CRC state.
template <typename T>
T crc_update(const CrcTables<T>& t, T state,
             std::span<const byte_t> data) noexcept {
  const byte_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);  // little-endian: byte 0 in the low bits
    w ^= state;
    state = t[7][w & 0xffu] ^ t[6][(w >> 8) & 0xffu] ^
            t[5][(w >> 16) & 0xffu] ^ t[4][(w >> 24) & 0xffu] ^
            t[3][(w >> 32) & 0xffu] ^ t[2][(w >> 40) & 0xffu] ^
            t[1][(w >> 48) & 0xffu] ^ t[0][w >> 56];
  }
  for (; n > 0; ++p, --n) state = t[0][(state ^ *p) & 0xffu] ^ (state >> 8);
  return state;
}

}  // namespace lck
