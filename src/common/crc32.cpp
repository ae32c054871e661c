#include "common/crc32.hpp"

#include "common/crc_slicing.hpp"

namespace lck {

void Crc32::update(std::span<const byte_t> data) noexcept {
  static const auto tables = make_crc_tables<std::uint32_t>(0xedb88320u);
  state_ = crc_update(tables, state_, data);
}

std::uint32_t crc32(std::span<const byte_t> data) noexcept {
  Crc32 c;
  c.update(data);
  return c.value();
}

}  // namespace lck
