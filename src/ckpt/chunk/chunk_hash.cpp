#include "ckpt/chunk/chunk_hash.hpp"

#include "common/crc_slicing.hpp"

namespace lck {

void Crc64::update(std::span<const byte_t> data) noexcept {
  // Reflected form of the ECMA-182 polynomial 0x42F0E1EBA9EA3693.
  static const auto tables =
      make_crc_tables<std::uint64_t>(0xc96c5795d7870f42ull);
  state_ = crc_update(tables, state_, data);
}

std::uint64_t crc64(std::span<const byte_t> data) noexcept {
  Crc64 c;
  c.update(data);
  return c.value();
}

}  // namespace lck
