#pragma once
/// \file deflate_like.hpp
/// \brief LZ77 + canonical-Huffman byte compressor (the repo's gzip/DEFLATE
///        stand-in for "lossless checkpointing" in the paper).
///
/// Same algorithm family as RFC 1951: a 32 KiB sliding window with
/// hash-chain match finding, literals/lengths and distances entropy-coded
/// with dynamic canonical Huffman tables. The container format is custom
/// (single block, tables serialized via write_code_lengths) — we reproduce
/// the algorithm class, not the gzip file format.
///
/// Match choice (part of the format's identity — any change alters the
/// streams): a greedy parse that, at each position, walks the 3-byte hash
/// chain newest first over at most 64 candidates within 32 KiB and takes
/// the first candidate with the strictly longest match (3..258 bytes).
/// The search compares eight bytes at a time, skips candidates that cannot
/// beat the current best, and keeps chain links in a ring of 64 Ki 16-bit
/// distances instead of one link per input byte. Decoding goes through the
/// shared word-at-a-time BitReader and table-driven HuffmanDecoder, straight
/// into the caller's buffer.

#include <span>
#include <vector>

#include "common/types.hpp"

namespace lck {

class ByteWriter;

/// Compress raw bytes. Always succeeds; incompressible input grows by a few
/// header bytes (a "stored" fallback keeps the worst case small).
[[nodiscard]] std::vector<byte_t> deflate_compress(std::span<const byte_t> in);

/// The same stream, appended to `out` (e.g. after a caller's own header)
/// instead of returned in a buffer of its own.
void deflate_compress(std::span<const byte_t> in, ByteWriter& out);

/// Decompress into a caller-provided buffer that must be filled exactly:
/// `out.size()` must match the original input size. Throws
/// corrupt_stream_error on malformed input.
void deflate_decompress(std::span<const byte_t> in, std::span<byte_t> out);

}  // namespace lck
