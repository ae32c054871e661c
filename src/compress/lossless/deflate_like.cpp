#include "compress/lossless/deflate_like.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/bit_io.hpp"
#include "common/byte_buffer.hpp"
#include "compress/huffman.hpp"

namespace lck {
namespace {

// ----- token alphabet (DEFLATE-style) --------------------------------------
// Literal/length alphabet: 0..255 literals, 256 end-of-block,
// 257..284 length codes. Distance alphabet: 0..29.
constexpr unsigned kEob = 256;
constexpr unsigned kLitLenAlphabet = 285;
constexpr unsigned kDistAlphabet = 30;
constexpr std::size_t kWindowSize = 32 * 1024;
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = 258;

struct CodeRange {
  std::uint32_t base;
  std::uint8_t extra_bits;
};

// Length codes 257..284 (base length, extra bits) — RFC 1951 table.
constexpr std::array<CodeRange, 28> kLengthCodes{{
    {3, 0},  {4, 0},  {5, 0},  {6, 0},  {7, 0},  {8, 0},  {9, 0},  {10, 0},
    {11, 1}, {13, 1}, {15, 1}, {17, 1}, {19, 2}, {23, 2}, {27, 2}, {31, 2},
    {35, 3}, {43, 3}, {51, 3}, {59, 3}, {67, 4}, {83, 4}, {99, 4}, {115, 4},
    {131, 5}, {163, 5}, {195, 5}, {227, 5},
}};
// The RFC has code 285 = length 258 with 0 extra bits; we instead let code
// 284's 5 extra bits cover 227..258 (one value wider than RFC). Simpler and
// still exactly invertible.

// Distance codes 0..29 (base distance, extra bits) — RFC 1951 table.
constexpr std::array<CodeRange, 30> kDistCodes{{
    {1, 0},     {2, 0},     {3, 0},     {4, 0},      {5, 1},      {7, 1},
    {9, 2},     {13, 2},    {17, 3},    {25, 3},     {33, 4},     {49, 4},
    {65, 5},    {97, 5},    {129, 6},   {193, 6},    {257, 7},    {385, 7},
    {513, 8},   {769, 8},   {1025, 9},  {1537, 9},   {2049, 10},  {3073, 10},
    {4097, 11}, {6145, 11}, {8193, 12}, {12289, 12}, {16385, 13}, {24577, 13},
}};

/// Code of a match length (3..258) and of a distance (1..32768): linear
/// scans of the tables above, evaluated only at compile time to build the
/// lookup tables below.
constexpr unsigned length_code_scan(std::size_t len) {
  unsigned c = static_cast<unsigned>(kLengthCodes.size()) - 1;
  while (len < kLengthCodes[c].base) --c;
  return c;
}

constexpr unsigned dist_code_scan(std::size_t dist) {
  unsigned c = static_cast<unsigned>(kDistCodes.size()) - 1;
  while (dist < kDistCodes[c].base) --c;
  return c;
}

constexpr auto kLengthCodeOf = [] {
  std::array<std::uint8_t, kMaxMatch + 1> t{};
  for (std::size_t len = kMinMatch; len <= kMaxMatch; ++len)
    t[len] = static_cast<std::uint8_t>(length_code_scan(len));
  return t;
}();

// zlib's split table: distances up to 256 index it directly, longer ones by
// (dist - 1) >> 7, which is exact because every base past 256 is 1 mod 128.
constexpr auto kDistCodeOf = [] {
  std::array<std::uint8_t, 512> t{};
  for (std::size_t d = 1; d <= 256; ++d)
    t[d - 1] = static_cast<std::uint8_t>(dist_code_scan(d));
  for (std::size_t d = 257; d <= kWindowSize; d += 128)
    t[256 + ((d - 1) >> 7)] = static_cast<std::uint8_t>(dist_code_scan(d));
  return t;
}();

constexpr unsigned dist_code(std::size_t dist) {
  return dist <= 256 ? kDistCodeOf[dist - 1]
                     : kDistCodeOf[256 + ((dist - 1) >> 7)];
}

static_assert([] {
  for (std::size_t d = 1; d <= kWindowSize; ++d)
    if (dist_code(d) != dist_code_scan(d)) return false;
  return true;
}());

// ----- LZ77 tokenization -----------------------------------------------------
// A token packs into 32 bits: a literal is its byte value; a match is
// length << 16 | distance (distance <= 32768 fits in the low 16 bits,
// length >= 3 makes every match token >= 1 << 16).
using Token = std::uint32_t;
constexpr Token kMatchFlag = 1u << 16;

std::uint32_t hash3(const byte_t* p) noexcept {
  const std::uint32_t h = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (h * 2654435761u) >> 17;  // 15-bit hash
}

/// Length of the common prefix of `a` and `b`, at most `limit`, compared
/// eight bytes at a time (the first differing byte of a little-endian XOR
/// is its lowest set byte).
std::size_t match_length(const byte_t* a, const byte_t* b,
                         std::size_t limit) noexcept {
  std::size_t len = 0;
  for (; len + 8 <= limit; len += 8) {
    std::uint64_t x, y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (x != y)
      return len + static_cast<std::size_t>(std::countr_zero(x ^ y) >> 3);
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

/// Greedy LZ77 parse. At each position the hash chain is walked newest
/// first over at most kMaxChainProbes candidates inside the window, and the
/// first candidate with the strictly longest match wins. Skipping a
/// candidate whose byte at the current best length differs, and stopping
/// once a match reaches the length limit, cannot change that choice.
std::vector<Token> tokenize(std::span<const byte_t> in) {
  constexpr std::size_t kHashSize = 1u << 15;
  constexpr int kMaxChainProbes = 64;
  // prev[j % kRingSize] is the distance from position j back to the
  // previous position with the same hash, or 0 when that one is out of the
  // window (the walk would stop there anyway). A ring twice the window
  // keeps every in-window entry alive until the walk is past it.
  constexpr std::size_t kRingSize = 2 * kWindowSize;
  const std::size_t n = in.size();
  const byte_t* const base = in.data();
  std::vector<std::int64_t> head(kHashSize, -1);
  std::vector<std::uint16_t> prev(kRingSize, 0);
  // At most one token per input byte. Reserving that bound once avoids the
  // regrowth copies (solver doubles yield ~0.74 tokens per byte, which
  // outgrew a quarter-size guess twice); capacity never written is never
  // touched.
  std::vector<Token> tokens;
  tokens.reserve(n);

  // Link position j into the chain for its 3-byte hash.
  const auto insert = [&](std::size_t j) {
    const std::uint32_t h = hash3(base + j);
    const std::int64_t last = head[h];
    const std::size_t d = last < 0 ? 0 : j - static_cast<std::size_t>(last);
    prev[j % kRingSize] =
        static_cast<std::uint16_t>(d <= kWindowSize ? d : 0);
    head[h] = static_cast<std::int64_t>(j);
  };

  std::size_t i = 0;
  while (i < n) {
    std::size_t best_len = 0, best_dist = 0;
    const bool can_hash = i + kMinMatch <= n;
    if (can_hash) {
      const byte_t* const cur = base + i;
      const std::size_t limit = std::min(kMaxMatch, n - i);
      const std::int64_t h = head[hash3(cur)];
      if (h >= 0 && i - static_cast<std::size_t>(h) <= kWindowSize) {
        std::size_t c = static_cast<std::size_t>(h);
        for (int probes = 0; probes < kMaxChainProbes; ++probes) {
          if (base[c + best_len] == cur[best_len]) {
            const std::size_t len = match_length(base + c, cur, limit);
            if (len > best_len) {
              best_len = len;
              best_dist = i - c;
              if (len == limit) break;
            }
          }
          const std::size_t d = prev[c % kRingSize];
          if (d == 0 || i - (c - d) > kWindowSize) break;
          c -= d;
        }
      }
    }
    if (best_len >= kMinMatch) {
      tokens.push_back(static_cast<Token>(best_len << 16 | best_dist));
      // Register all covered positions so later matches can reference them.
      for (std::size_t j = i; j < i + best_len && j + kMinMatch <= n; ++j)
        insert(j);
      i += best_len;
    } else {
      if (can_hash) insert(i);
      tokens.push_back(in[i]);
      ++i;
    }
  }
  return tokens;
}

constexpr byte_t kFormatHuffman = 1;
constexpr byte_t kFormatStored = 0;

}  // namespace

std::vector<byte_t> deflate_compress(std::span<const byte_t> in) {
  const std::vector<Token> tokens = tokenize(in);

  // Histogram both alphabets, and count the extra bits the matches carry.
  std::vector<std::uint64_t> lit_freq(kLitLenAlphabet, 0);
  std::vector<std::uint64_t> dist_freq(kDistAlphabet, 0);
  std::uint64_t extra_bits = 0;
  for (const Token t : tokens) {
    if (t >= kMatchFlag) {
      const unsigned lc = kLengthCodeOf[t >> 16];
      const unsigned dc = dist_code(t & 0xffff);
      ++lit_freq[257 + lc];
      ++dist_freq[dc];
      extra_bits += kLengthCodes[lc].extra_bits + kDistCodes[dc].extra_bits;
    } else {
      ++lit_freq[t];
    }
  }
  ++lit_freq[kEob];

  const auto lit_lengths = huffman_code_lengths(lit_freq);
  const auto dist_lengths = huffman_code_lengths(dist_freq);

  // The coded payload's exact size, known before coding it: the stored
  // fallback is decided up front, and the payload is coded straight into
  // the output buffer, sized once.
  std::uint64_t payload_bits = extra_bits;
  for (std::size_t s = 0; s < kLitLenAlphabet; ++s)
    payload_bits += lit_freq[s] * lit_lengths[s];
  for (std::size_t s = 0; s < kDistAlphabet; ++s)
    payload_bits += dist_freq[s] * dist_lengths[s];
  const std::uint64_t payload_bytes = (payload_bits + 7) / 8;

  ByteWriter out;
  out.put(kFormatHuffman);
  out.put(static_cast<std::uint64_t>(in.size()));
  write_code_lengths(out, lit_lengths, kLitLenAlphabet);
  write_code_lengths(out, dist_lengths, kDistAlphabet);
  out.put(payload_bytes);

  // Stored fallback if "compression" would expand the data.
  if (out.size() + payload_bytes >= in.size() + 9) {
    ByteWriter stored;
    stored.put(kFormatStored);
    stored.put(static_cast<std::uint64_t>(in.size()));
    stored.put_bytes(in);
    return std::move(stored).take();
  }

  const std::size_t header_bytes = out.size();
  const HuffmanEncoder lit_enc(lit_lengths);
  const HuffmanEncoder dist_enc(dist_lengths);
  BitWriter bw(std::move(out).take());
  bw.reserve_bits(payload_bits);
  for (const Token t : tokens) {
    if (t >= kMatchFlag) {
      const std::uint32_t len = t >> 16;
      const std::uint32_t dist = t & 0xffff;
      const unsigned lc = kLengthCodeOf[len];
      lit_enc.encode(bw, 257 + lc);
      bw.write_bits(len - kLengthCodes[lc].base, kLengthCodes[lc].extra_bits);
      const unsigned dc = dist_code(dist);
      dist_enc.encode(bw, dc);
      bw.write_bits(dist - kDistCodes[dc].base, kDistCodes[dc].extra_bits);
    } else {
      lit_enc.encode(bw, t);
    }
  }
  lit_enc.encode(bw, kEob);
  std::vector<byte_t> stream = bw.finish();
  require(stream.size() == header_bytes + payload_bytes,
          "deflate: coded payload size differs from its prediction");
  return stream;
}

void deflate_decompress(std::span<const byte_t> in, std::span<byte_t> out) {
  ByteReader r(in);
  const auto format = r.get<byte_t>();
  const auto orig_size = r.get<std::uint64_t>();
  if (orig_size != out.size())
    throw corrupt_stream_error("deflate: size mismatch");

  if (format == kFormatStored) {
    const auto bytes = r.get_bytes(out.size());
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
    return;
  }
  if (format != kFormatHuffman)
    throw corrupt_stream_error("deflate: unknown format byte");

  const auto lit_lengths = read_code_lengths(r, kLitLenAlphabet);
  const auto dist_lengths = read_code_lengths(r, kDistAlphabet);
  const HuffmanDecoder lit_dec(lit_lengths.lengths, lit_lengths.first);
  const HuffmanDecoder dist_dec(dist_lengths.lengths, dist_lengths.first);
  const auto payload_size = r.get<std::uint64_t>();
  BitReader br(r.get_bytes(payload_size));

  byte_t* const dst = out.data();
  const std::size_t cap = out.size();
  std::size_t pos = 0;
  for (;;) {
    const std::uint32_t sym = lit_dec.decode(br);
    if (sym < 256) {
      if (pos == cap)
        throw corrupt_stream_error("deflate: output exceeds expected size");
      dst[pos++] = static_cast<byte_t>(sym);
      continue;
    }
    if (sym == kEob) break;
    const unsigned lc = sym - 257;
    if (lc >= kLengthCodes.size())
      throw corrupt_stream_error("deflate: bad length symbol");
    const std::size_t len =
        kLengthCodes[lc].base + br.read_bits(kLengthCodes[lc].extra_bits);
    const unsigned dc = dist_dec.decode(br);
    if (dc >= kDistCodes.size())
      throw corrupt_stream_error("deflate: bad distance symbol");
    const std::size_t dist =
        kDistCodes[dc].base + br.read_bits(kDistCodes[dc].extra_bits);
    if (dist > pos)
      throw corrupt_stream_error("deflate: distance out of window");
    if (len > cap - pos)
      throw corrupt_stream_error("deflate: output exceeds expected size");
    byte_t* const to = dst + pos;
    const byte_t* const from = to - dist;
    if (dist >= len) {
      std::memcpy(to, from, len);
    } else {
      for (std::size_t k = 0; k < len; ++k) to[k] = from[k];
    }
    pos += len;
  }
  if (pos != cap) throw corrupt_stream_error("deflate: output size mismatch");
}

}  // namespace lck
