#pragma once
/// \file bit_io.hpp
/// \brief MSB-first bit-level writer/reader used by the entropy coders and
///        the ZFP-like bit-plane coder.
///
/// Both sides move a 64-bit word at a time. The writer packs bits into a
/// left-aligned 64-bit accumulator and appends it to the buffer as eight
/// big-endian bytes when it fills. The reader keeps a left-aligned 64-bit
/// window of upcoming bits, refilled from the span with one unaligned
/// 8-byte load (byte by byte only within the last 8 bytes), so `peek` and
/// `skip` let a table-driven decoder look ahead without consuming. The bit
/// order is the same as a one-bit-at-a-time coder's, so streams are
/// identical; a read past the end throws at the first missing bit.

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace lck {

static_assert(std::endian::native == std::endian::little,
              "bit_io byte-swaps little-endian words into stream order");

/// Appends bits MSB-first into a byte vector.
class BitWriter {
 public:
  BitWriter() = default;
  /// Append after the bytes of `prefix` (which finish() returns in front).
  explicit BitWriter(std::vector<byte_t> prefix) : buf_(std::move(prefix)) {}

  /// Make room for `nbits` more bits, so writing them never reallocates.
  void reserve_bits(std::size_t nbits) {
    buf_.reserve(buf_.size() + (nacc_ + nbits + 7) / 8);
  }

  /// Write the low `nbits` (0..64) bits of `value`, most significant first.
  void write_bits(std::uint64_t value, unsigned nbits) {
    if (nbits == 0) return;
    value &= ~std::uint64_t{0} >> (64 - nbits);
    const unsigned space = 64 - nacc_;
    if (nbits < space) {
      acc_ |= value << (space - nbits);
      nacc_ += nbits;
      return;
    }
    // Fill the accumulator, emit it, and keep the low bits that spilled.
    const unsigned spill = nbits - space;
    acc_ |= value >> spill;
    emit_word();
    if (spill != 0) {
      acc_ = value << (64 - spill);
      nacc_ = spill;
    }
  }

  void write_bit(unsigned bit) { write_bits(bit & 1u, 1); }

  /// Write a unary-coded value: `value` zero bits then a one bit.
  void write_unary(unsigned value) {
    for (; value >= 64; value -= 64) write_bits(0, 64);
    write_bits(1, value + 1);
  }

  /// Pad with zero bits to the next byte boundary and return the buffer.
  [[nodiscard]] std::vector<byte_t> finish() {
    const unsigned nbytes = (nacc_ + 7) / 8;
    const std::uint64_t be = __builtin_bswap64(acc_);
    const std::size_t old = buf_.size();
    buf_.resize(old + nbytes);
    if (nbytes != 0) std::memcpy(buf_.data() + old, &be, nbytes);
    acc_ = 0;
    nacc_ = 0;
    return std::move(buf_);
  }

  /// Number of bits written so far.
  [[nodiscard]] std::size_t bit_count() const noexcept {
    return buf_.size() * 8 + nacc_;
  }

 private:
  void emit_word() {
    const std::uint64_t be = __builtin_bswap64(acc_);
    const std::size_t old = buf_.size();
    buf_.resize(old + 8);
    std::memcpy(buf_.data() + old, &be, 8);
    acc_ = 0;
    nacc_ = 0;
  }

  std::vector<byte_t> buf_;
  std::uint64_t acc_ = 0;  // pending bits, left-aligned
  unsigned nacc_ = 0;      // 0..63 between calls
};

/// Reads bits MSB-first from a byte span. Reading past the end throws.
class BitReader {
 public:
  /// Widest `peek`; a refill always leaves at least this many bits loaded
  /// unless the span is exhausted.
  static constexpr unsigned kMaxPeekBits = 56;

  explicit BitReader(std::span<const byte_t> data) : data_(data) {}

  /// The next `nbits` (0..kMaxPeekBits) bits without consuming them. Bits
  /// past the end of the data read as zero.
  [[nodiscard]] std::uint64_t peek(unsigned nbits) {
    if (nwin_ < nbits) refill();
    return nbits == 0 ? 0 : window_ >> (64 - nbits);
  }

  /// Consume `nbits` (0..kMaxPeekBits) bits; throws if fewer remain.
  void skip(unsigned nbits) {
    if (nwin_ < nbits) {
      refill();
      if (nwin_ < nbits) throw corrupt_stream_error("bit read past end");
    }
    consume(nbits);
  }

  unsigned read_bit() {
    if (nwin_ == 0) {
      refill();
      if (nwin_ == 0) throw corrupt_stream_error("bit read past end");
    }
    const auto bit = static_cast<unsigned>(window_ >> 63);
    consume(1);
    return bit;
  }

  /// Read `nbits` (0..64) bits, the first one read being the most
  /// significant of the result.
  std::uint64_t read_bits(unsigned nbits) {
    if (nbits > kMaxPeekBits) {
      if (nbits > bits_remaining())
        throw corrupt_stream_error("bit read past end");
      const std::uint64_t hi = read_bits(nbits - 32);
      return (hi << 32) | read_bits(32);
    }
    const std::uint64_t v = peek(nbits);
    skip(nbits);
    return v;
  }

  /// Read a unary-coded value (count of zero bits before the terminating 1).
  unsigned read_unary() {
    unsigned v = 0;
    for (;;) {
      if (nwin_ == 0) {
        refill();
        if (nwin_ == 0) throw corrupt_stream_error("bit read past end");
      }
      // Bits below the window's valid count may already hold later data,
      // so a leading one counts only inside the valid part.
      const auto zeros = static_cast<unsigned>(std::countl_zero(window_));
      if (zeros < nwin_) {
        consume(zeros + 1);
        return v + zeros;
      }
      v += nwin_;
      consume(nwin_);
    }
  }

  [[nodiscard]] std::size_t bit_position() const noexcept {
    return next_ * 8 - nwin_;
  }
  [[nodiscard]] std::size_t bits_remaining() const noexcept {
    return data_.size() * 8 - bit_position();
  }

 private:
  void consume(unsigned nbits) noexcept {
    window_ = nbits == 64 ? 0 : window_ << nbits;
    nwin_ -= nbits;
  }

  /// Top up the window to at least kMaxPeekBits valid bits, or to all
  /// remaining bits near the end. The fast path ORs in a whole 8-byte load:
  /// the bits that land below the new valid count are the true bits of the
  /// next byte, which the following refill ORs in again unchanged.
  void refill() noexcept {
    if (data_.size() - next_ >= 8) {
      std::uint64_t w;
      std::memcpy(&w, data_.data() + next_, 8);
      window_ |= __builtin_bswap64(w) >> nwin_;
      const unsigned nbytes = (63 - nwin_) >> 3;
      next_ += nbytes;
      nwin_ += nbytes * 8;
      return;
    }
    while (nwin_ <= kMaxPeekBits && next_ < data_.size()) {
      window_ |= static_cast<std::uint64_t>(data_[next_++]) << (56 - nwin_);
      nwin_ += 8;
    }
  }

  std::span<const byte_t> data_;
  std::uint64_t window_ = 0;  // upcoming bits, left-aligned
  unsigned nwin_ = 0;         // valid bits at the top of window_
  std::size_t next_ = 0;      // next byte of data_ to load
};

}  // namespace lck
