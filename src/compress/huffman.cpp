#include "compress/huffman.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

#include "common/simd.hpp"

namespace lck {

std::vector<std::uint64_t> count_frequencies(
    std::span<const std::uint32_t> symbols, std::size_t alphabet) {
  std::vector<std::uint64_t> freq(alphabet, 0);
  // Clearing and merging the partials costs about as much as counting as
  // many symbols, so a stream shorter than 8 × alphabet counts directly.
  if (symbols.size() < 8 * alphabet) {
    for (const auto s : symbols) ++freq[s];
    return freq;
  }
  // Eight interleaved partial histograms via the dispatched kernel table:
  // consecutive symbols update different counter arrays, so equal
  // neighbouring symbols (the common case in quantization-code streams) no
  // longer chain through the same memory location. Merged at the end
  // (integer sums are order-independent, so every backend returns identical
  // counts; the merge loop auto-vectorizes under the active ISA's flags).
  const auto& o = simd::ops();
  std::vector<std::uint64_t> part(8 * alphabet, 0);
  o.hist8(symbols.data(), symbols.size(), part.data(), alphabet);
  o.hist8_merge(part.data(), alphabet, freq.data());
  return freq;
}

namespace {

/// One pass of Huffman tree construction; returns code lengths (possibly
/// exceeding kHuffmanMaxBits for extreme distributions).
std::vector<std::uint8_t> build_lengths_once(
    std::span<const std::uint64_t> freqs) {
  const std::size_t n = freqs.size();
  struct Node {
    std::uint64_t freq;
    std::int32_t left, right;  // -1 for leaves
    std::uint32_t symbol;
  };
  const std::size_t used =
      n - static_cast<std::size_t>(
              std::count(freqs.begin(), freqs.end(), std::uint64_t{0}));
  std::vector<Node> nodes;
  nodes.reserve(2 * used);  // leaves, then one internal node per merge
  using Entry = std::pair<std::uint64_t, std::uint32_t>;  // (freq, node idx)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;

  for (std::size_t s = 0; s < n; ++s) {
    if (freqs[s] == 0) continue;
    nodes.push_back({freqs[s], -1, -1, static_cast<std::uint32_t>(s)});
    heap.emplace(freqs[s], static_cast<std::uint32_t>(nodes.size() - 1));
  }

  std::vector<std::uint8_t> lengths(n, 0);
  if (nodes.empty()) return lengths;
  if (nodes.size() == 1) {
    lengths[nodes[0].symbol] = 1;  // degenerate alphabet: 1-bit code
    return lengths;
  }

  while (heap.size() > 1) {
    const auto [fa, a] = heap.top();
    heap.pop();
    const auto [fb, b] = heap.top();
    heap.pop();
    nodes.push_back({fa + fb, static_cast<std::int32_t>(a),
                     static_cast<std::int32_t>(b), 0});
    heap.emplace(fa + fb, static_cast<std::uint32_t>(nodes.size() - 1));
  }

  // Depth-first traversal assigning depths as code lengths.
  struct Frame {
    std::uint32_t node;
    std::uint8_t depth;
  };
  std::vector<Frame> stack{{static_cast<std::uint32_t>(nodes.size() - 1), 0}};
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& nd = nodes[idx];
    if (nd.left < 0) {
      lengths[nd.symbol] = std::max<std::uint8_t>(depth, 1);
    } else {
      stack.push_back({static_cast<std::uint32_t>(nd.left),
                       static_cast<std::uint8_t>(depth + 1)});
      stack.push_back({static_cast<std::uint32_t>(nd.right),
                       static_cast<std::uint8_t>(depth + 1)});
    }
  }
  return lengths;
}

}  // namespace

std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs) {
  if (freqs.empty()) return {};
  std::span<const std::uint64_t> f = freqs;
  std::vector<std::uint64_t> flattened;  // copied only if a code is too long
  for (int attempt = 0; attempt < 64; ++attempt) {
    auto lengths = build_lengths_once(f);
    const auto max_len =
        *std::max_element(lengths.begin(), lengths.end());
    if (max_len <= kHuffmanMaxBits) return lengths;
    // Flatten the distribution and retry: halving frequencies (keeping them
    // nonzero) reduces the maximum depth geometrically.
    if (flattened.empty()) flattened.assign(freqs.begin(), freqs.end());
    for (auto& x : flattened)
      if (x > 0) x = (x + 1) / 2;
    f = flattened;
  }
  throw corrupt_stream_error("huffman: failed to limit code length");
}

HuffmanEncoder::HuffmanEncoder(std::span<const std::uint8_t> lengths)
    : codes_(lengths.size(), 0), lengths_(lengths.begin(), lengths.end()) {
  // Canonical code assignment: count codes per length, then first-code rule.
  std::vector<std::uint32_t> count(kHuffmanMaxBits + 1, 0);
  for (const auto l : lengths_) ++count[l];
  count[0] = 0;
  std::vector<std::uint32_t> next(kHuffmanMaxBits + 2, 0);
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= kHuffmanMaxBits; ++len) {
    code = (code + count[len - 1]) << 1;
    next[len] = code;
  }
  for (std::size_t s = 0; s < lengths_.size(); ++s)
    if (lengths_[s] != 0) codes_[s] = next[lengths_[s]]++;
}

HuffmanDecoder::HuffmanDecoder(std::span<const std::uint8_t> lengths,
                               std::uint32_t first) {
  for (const auto l : lengths)
    max_len_ = std::max<unsigned>(max_len_, l);
  if (max_len_ > kHuffmanMaxBits)
    throw corrupt_stream_error("huffman: code length exceeds limit");
  // Table entries hold symbol << kLenBits, so the top symbol must fit.
  const std::uint64_t top =
      lengths.size() < 2 ? 0 : std::uint64_t{first} + lengths.size() - 2;
  if (top >= (std::uint64_t{1} << (32 - kLenBits)))
    throw corrupt_stream_error("huffman: alphabet too large");
  groups_.resize(max_len_ + 1);

  // Sort symbols by (length, symbol) — canonical order — with one counting
  // pass and one placement pass.
  for (const auto l : lengths)
    if (l != 0) ++groups_[l].count;
  std::uint32_t index = 0;
  for (unsigned len = 1; len <= max_len_; ++len) {
    groups_[len].first_index = index;
    index += groups_[len].count;
  }
  symbols_.resize(index);
  std::vector<std::uint32_t> fill(max_len_ + 1, 0);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    const unsigned l = lengths[s];
    if (l != 0)
      symbols_[groups_[l].first_index + fill[l]++] =
          s == 0 ? 0 : first + static_cast<std::uint32_t>(s - 1);
  }
  std::uint32_t code = 0;
  std::uint32_t prev_count = 0;
  for (unsigned len = 1; len <= max_len_; ++len) {
    code = (code + prev_count) << 1;
    groups_[len].first_code = code;
    prev_count = groups_[len].count;
  }

  // Canonical ranges of successive lengths tile the code space in order,
  // so no two overlap. Once a range reaches the end of the space (only an
  // over-subscribed set gets there), every prefix resolves at or before
  // that length: the walk never looks further, and the table stops there
  // too, before the u32 wrap such sets can cause in first_code.
  table_.assign(std::size_t{1} << kTableBits, 0);
  for (unsigned len = 1; len <= std::min(max_len_, kTableBits); ++len) {
    const LengthGroup& g = groups_[len];
    const std::uint64_t end = std::uint64_t{g.first_code} + g.count;
    const std::uint64_t stop = std::min<std::uint64_t>(end, 1u << len);
    const unsigned shift = kTableBits - len;
    for (std::uint64_t c = g.first_code; c < stop; ++c) {
      const std::uint32_t entry =
          symbols_[g.first_index + (c - g.first_code)] << kLenBits | len;
      std::fill(table_.begin() + static_cast<std::ptrdiff_t>(c << shift),
                table_.begin() + static_cast<std::ptrdiff_t>((c + 1) << shift),
                entry);
    }
    if (end >= (1u << len)) break;
  }
}

std::uint32_t HuffmanDecoder::decode_slow(BitReader& br,
                                          std::uint64_t bits) const {
  for (unsigned len = kTableBits + 1; len <= max_len_; ++len) {
    const auto code =
        static_cast<std::uint32_t>(bits >> (kHuffmanMaxBits - len));
    const LengthGroup& g = groups_[len];
    if (g.count != 0 && code < g.first_code + g.count && code >= g.first_code) {
      br.skip(len);  // throws if the code runs past the end
      return symbols_[g.first_index + (code - g.first_code)];
    }
  }
  // Past the end, `bits` is zero-padded; a walk would have run out of bits
  // before proving the code invalid.
  if (max_len_ > br.bits_remaining())
    throw corrupt_stream_error("bit read past end");
  throw corrupt_stream_error("huffman: invalid code");
}

void write_code_lengths(ByteWriter& out, std::span<const std::uint8_t> lengths,
                        std::size_t alphabet, std::uint32_t first) {
  // Encoding: sequence of tokens. 0x00 LL LL = run of zeros (u16 count);
  // otherwise the byte is the length itself (1..kHuffmanMaxBits). A maximal
  // zero run is cut into 0xffff-long tokens plus the remainder.
  out.put(static_cast<std::uint32_t>(alphabet));
  std::size_t zeros = 0;  // pending run
  const auto flush = [&] {
    while (zeros > 0) {
      const auto run = std::min<std::size_t>(zeros, 0xffff);
      out.put(static_cast<std::uint8_t>(0));
      out.put(static_cast<std::uint16_t>(run));
      zeros -= run;
    }
  };
  std::size_t next = 0;  // first alphabet symbol not yet accounted for
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    const std::size_t symbol = i == 0 ? 0 : first + i - 1;
    zeros += symbol - next;  // symbols between the window's two parts
    next = symbol + 1;
    if (lengths[i] == 0) {
      ++zeros;
    } else {
      flush();
      out.put(lengths[i]);
    }
  }
  zeros += alphabet - next;
  flush();
}

CodeLengths read_code_lengths(ByteReader& in, std::size_t alphabet) {
  const auto n = in.get<std::uint32_t>();
  if (n != alphabet)
    throw corrupt_stream_error("huffman: alphabet size mismatch");
  CodeLengths table;
  if (n > 0) table.lengths.assign(1, 0);
  std::size_t i = 0;
  while (i < n) {
    const auto b = in.get<std::uint8_t>();
    if (b == 0) {
      const auto run = in.get<std::uint16_t>();
      if (i + run > n) throw corrupt_stream_error("huffman: zero run overflow");
      i += run;
    } else {
      if (b > kHuffmanMaxBits)
        throw corrupt_stream_error("huffman: stored length too large");
      // The window grows only up to a nonzero length, so zeros past the
      // last used symbol are never stored.
      if (i == 0) {
        table.lengths[0] = b;
      } else {
        if (table.lengths.size() == 1)
          table.first = static_cast<std::uint32_t>(i);
        table.lengths.resize(i - table.first + 2, 0);
        table.lengths.back() = b;
      }
      ++i;
    }
  }
  return table;
}

}  // namespace lck
