#include "compress/lossless_compressors.hpp"

#include <cstring>

#include "common/byte_buffer.hpp"
#include "compress/lossless/byte_codecs.hpp"
#include "compress/lossless/deflate_like.hpp"
#include "compress/lossless/lz4_like.hpp"

namespace lck {
namespace {

std::span<const byte_t> as_bytes(std::span<const double> data) {
  return {reinterpret_cast<const byte_t*>(data.data()),
          data.size() * sizeof(double)};
}

void bytes_to_doubles(std::span<const byte_t> bytes, std::span<double> out) {
  if (bytes.size() != out.size() * sizeof(double))
    throw corrupt_stream_error("lossless: byte count mismatch");
  if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
}

constexpr std::uint32_t kMagicRle = 0x31454c52u;      // "RLE1"
constexpr std::uint32_t kMagicDeflate = 0x31464544u;  // "DEF1"
constexpr std::uint32_t kMagicShufRle = 0x31525353u;  // "SSR1"
constexpr std::uint32_t kMagicLz4 = 0x315a344cu;      // "L4Z1"

}  // namespace

std::vector<byte_t> RleCompressor::compress(
    std::span<const double> data) const {
  ByteWriter out;
  out.put(kMagicRle);
  out.put(static_cast<std::uint64_t>(data.size()));
  const auto enc = rle_encode(as_bytes(data));
  out.put(static_cast<std::uint64_t>(enc.size()));
  out.put_bytes(enc);
  return std::move(out).take();
}

void RleCompressor::decompress(std::span<const byte_t> stream,
                               std::span<double> out) const {
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagicRle)
    throw corrupt_stream_error("rle: bad magic");
  const auto n = in.get<std::uint64_t>();
  if (n != out.size()) throw corrupt_stream_error("rle: size mismatch");
  const auto enc_size = in.get<std::uint64_t>();
  const auto decoded =
      rle_decode(in.get_bytes(enc_size), n * sizeof(double));
  bytes_to_doubles(decoded, out);
}

std::vector<byte_t> DeflateCompressor::compress(
    std::span<const double> data) const {
  ByteWriter out;
  out.put(kMagicDeflate);
  out.put(static_cast<std::uint64_t>(data.size()));
  out.put(static_cast<std::uint8_t>(shuffle_ ? 1 : 0));
  std::vector<byte_t> staged;
  std::span<const byte_t> input = as_bytes(data);
  if (shuffle_) {
    staged = shuffle_bytes(input, sizeof(double));
    input = staged;
  }
  // The coded stream goes straight after the header; its size field is
  // filled in once the stream is there.
  const std::size_t size_at = out.size();
  out.put(std::uint64_t{0});
  deflate_compress(input, out);
  const auto enc_size =
      static_cast<std::uint64_t>(out.size() - size_at - sizeof(std::uint64_t));
  std::memcpy(out.bytes().data() + size_at, &enc_size, sizeof enc_size);
  return std::move(out).take();
}

void DeflateCompressor::decompress(std::span<const byte_t> stream,
                                   std::span<double> out) const {
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagicDeflate)
    throw corrupt_stream_error("deflate: bad magic");
  const auto n = in.get<std::uint64_t>();
  if (n != out.size()) throw corrupt_stream_error("deflate: size mismatch");
  const bool shuffled = in.get<std::uint8_t>() != 0;
  const auto enc_size = in.get<std::uint64_t>();
  const auto enc = in.get_bytes(enc_size);
  if (!shuffled) {
    deflate_decompress(enc, {reinterpret_cast<byte_t*>(out.data()),
                             out.size() * sizeof(double)});
    return;
  }
  std::vector<byte_t> decoded(n * sizeof(double));
  deflate_decompress(enc, decoded);
  bytes_to_doubles(unshuffle_bytes(decoded, sizeof(double)), out);
}

std::vector<byte_t> Lz4Compressor::compress(std::span<const double> data) const {
  ByteWriter out;
  out.put(kMagicLz4);
  out.put(static_cast<std::uint64_t>(data.size()));
  out.put(static_cast<std::uint8_t>(shuffle_ ? 1 : 0));
  std::vector<byte_t> staged;
  std::span<const byte_t> input = as_bytes(data);
  if (shuffle_) {
    staged = shuffle_bytes(input, sizeof(double));
    input = staged;
  }
  const auto enc = lz4_compress(input);
  out.put(static_cast<std::uint64_t>(enc.size()));
  out.put_bytes(enc);
  return std::move(out).take();
}

void Lz4Compressor::decompress(std::span<const byte_t> stream,
                               std::span<double> out) const {
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagicLz4)
    throw corrupt_stream_error("lz4: bad magic");
  const auto n = in.get<std::uint64_t>();
  if (n != out.size()) throw corrupt_stream_error("lz4: size mismatch");
  const bool shuffled = in.get<std::uint8_t>() != 0;
  const auto enc_size = in.get<std::uint64_t>();
  auto decoded = lz4_decompress(in.get_bytes(enc_size), n * sizeof(double));
  if (shuffled) decoded = unshuffle_bytes(decoded, sizeof(double));
  bytes_to_doubles(decoded, out);
}

std::vector<byte_t> ShuffleRleCompressor::compress(
    std::span<const double> data) const {
  ByteWriter out;
  out.put(kMagicShufRle);
  out.put(static_cast<std::uint64_t>(data.size()));
  const auto shuffled = shuffle_bytes(as_bytes(data), sizeof(double));
  const auto enc = rle_encode(shuffled);
  out.put(static_cast<std::uint64_t>(enc.size()));
  out.put_bytes(enc);
  return std::move(out).take();
}

void ShuffleRleCompressor::decompress(std::span<const byte_t> stream,
                                      std::span<double> out) const {
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagicShufRle)
    throw corrupt_stream_error("shuffle-rle: bad magic");
  const auto n = in.get<std::uint64_t>();
  if (n != out.size()) throw corrupt_stream_error("shuffle-rle: size mismatch");
  const auto enc_size = in.get<std::uint64_t>();
  const auto decoded =
      rle_decode(in.get_bytes(enc_size), n * sizeof(double));
  bytes_to_doubles(unshuffle_bytes(decoded, sizeof(double)), out);
}

}  // namespace lck
