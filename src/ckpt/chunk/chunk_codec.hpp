#pragma once
/// \file chunk_codec.hpp
/// \brief Chunked, content-addressed checkpoint payload layer.
///
/// A delta-format checkpoint splits every protected vector into fixed-size
/// chunks of `chunk_elems` doubles, hashes each chunk's raw bytes (CRC-64)
/// and emits a manifest of per-chunk entries. A chunk whose content is
/// already available — in the previous committed checkpoint (the *base*)
/// or earlier in the same stream — is stored as a 9-byte *reference*
/// instead of its compressed payload; recovery re-materializes references
/// by walking the delta chain back towards the last full checkpoint.
///
/// Stream layout (ByteWriter little-endian):
///
///   u32 kDeltaMagic | u16 kDeltaFormatVersion | i32 base_version (-1 =
///   full/chain start) | u32 chain_len | u32 var_count
///   per var: i32 id | str name | u8 kind
///     kind 0 (vector): str comp_name | u64 elem_count | u64 chunk_elems |
///       u32 chunk_count | per chunk: u64 raw_hash | u8 tag
///         tag 0 (literal): u64 payload_size | u32 payload_crc32 | payload
///         tag 1 (ref): nothing — resolved by raw_hash within the chain
///     kind 1 (blob): u64 size | u32 crc32 | bytes (verbatim, never delta)
///
/// This file only lays out the format; it compresses nothing. The manager
/// compresses the literal chunks through the drain's DrainBoard (see
/// async_writer.hpp), so a thread joining a staged delta drain can help.
/// With delta encoding disabled the manager writes its other formats, and
/// recovery dispatches on the magic.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/byte_buffer.hpp"
#include "sparse/vector_ops.hpp"

namespace lck {

inline constexpr std::uint32_t kDeltaMagic = 0x54504b44u;  // "DKPT"
inline constexpr std::uint16_t kDeltaFormatVersion = 1;

enum class ChunkTag : std::uint8_t { kLiteral = 0, kRef = 1 };
enum class DeltaVarKind : std::uint8_t { kVector = 0, kBlob = 1 };

/// Shared fixed-size slicing arithmetic: how a vector of `elems` doubles
/// splits into chunks of `chunk_elems`. The delta chunk codec and the
/// streaming frame serializer (ckpt/frame_stream.hpp) both slice with this,
/// so the two payload layers agree on boundaries by construction.
struct ChunkGeometry {
  std::size_t elems = 0;
  std::size_t chunk_elems = 1;

  constexpr ChunkGeometry(std::size_t n, std::size_t chunk) noexcept
      : elems(n), chunk_elems(chunk == 0 ? 1 : chunk) {}

  [[nodiscard]] constexpr std::size_t count() const noexcept {
    return elems == 0 ? 0 : (elems + chunk_elems - 1) / chunk_elems;
  }
  [[nodiscard]] constexpr std::size_t begin(std::size_t c) const noexcept {
    return c * chunk_elems;
  }
  [[nodiscard]] constexpr std::size_t length(std::size_t c) const noexcept {
    return elems - begin(c) < chunk_elems ? elems - begin(c) : chunk_elems;
  }
};

/// True iff `stream` starts with the delta-format magic.
[[nodiscard]] bool is_delta_stream(std::span<const byte_t> stream) noexcept;

/// Base version of a delta-format stream without a full parse (used by the
/// tiered store to keep chain bases alive per level), or nullopt when the
/// blob is not delta-format.
[[nodiscard]] std::optional<int> peek_delta_base(
    std::span<const byte_t> stream) noexcept;

/// Per-variable raw-content chunk hashes of one encoded version — the
/// state a successor delta is computed against. The compressor name rides
/// along so a mid-run codec swap can never produce a reference to a
/// payload the new codec cannot decode.
struct VarChunkHashes {
  int id = 0;
  std::string comp_name;
  std::vector<std::uint64_t> hashes;
};

/// Everything a successor checkpoint needs to delta against a version.
struct ChunkBaseState {
  int version = -1;
  std::size_t chunk_elems = 0;
  std::uint32_t chain_len = 0;  ///< 0 for a full (chain-start) checkpoint.
  std::vector<VarChunkHashes> vars;

  /// Hashes usable as reference targets for variable `id` under compressor
  /// `comp_name` — null when the variable is new or its codec changed.
  [[nodiscard]] const std::vector<std::uint64_t>* hashes_for(
      int id, const std::string& comp_name) const {
    for (const auto& v : vars)
      if (v.id == id) return v.comp_name == comp_name ? &v.hashes : nullptr;
    return nullptr;
  }
};

/// Encoding a vector takes two steps, so the manager can plan every
/// variable, put all literal chunks on one DrainBoard and only then write
/// the stream, taking each payload as its turn comes.
///
/// Plan: hash every chunk's raw bytes into `hashes` and tag each chunk. A
/// chunk whose hash is in `base_hashes` (the same variable's hash list in
/// the base version; null ⇒ no base) or belongs to an earlier chunk of this
/// vector (within-version dedup, e.g. constant regions) is a reference;
/// every other chunk is a literal. Both depend only on the data.
[[nodiscard]] std::vector<ChunkTag> plan_chunked_vector(
    std::span<const double> vec, std::size_t chunk_elems,
    const std::vector<std::uint64_t>* base_hashes,
    std::vector<std::uint64_t>& hashes);

/// Emit: append the manifest of a vector of `elems` doubles, planned as
/// `hashes`/`tags`, to `out`. `literal(c)` returns the compressed payload
/// of literal chunk `c`; it is called once per literal, in chunk order.
/// Returns the literal payload bytes written.
std::size_t emit_chunked_vector(
    ByteWriter& out, const std::string& comp_name, std::size_t elems,
    std::size_t chunk_elems, std::span<const std::uint64_t> hashes,
    std::span<const ChunkTag> tags,
    const std::function<std::vector<byte_t>(std::size_t)>& literal);

// ----- parsed view of a delta stream ----------------------------------------

struct ParsedChunk {
  std::uint64_t hash = 0;
  ChunkTag tag = ChunkTag::kLiteral;
  std::span<const byte_t> payload;  ///< Literal only; views into the stream.
};

struct ParsedDeltaVar {
  int id = 0;
  std::string name;
  DeltaVarKind kind = DeltaVarKind::kVector;
  // kind == kVector:
  std::string comp_name;
  std::uint64_t elem_count = 0;
  std::uint64_t chunk_elems = 0;
  std::vector<ParsedChunk> chunks;
  // kind == kBlob:
  std::span<const byte_t> blob;  ///< Views into the stream.
};

struct ParsedDeltaStream {
  int base_version = -1;
  std::uint32_t chain_len = 0;
  std::vector<ParsedDeltaVar> vars;
};

/// Parse (and CRC-verify every literal payload of) a delta-format stream,
/// cross-validating each vector's chunk geometry (elem_count, chunk_elems,
/// chunk_count must agree). The returned spans view into `stream`, which
/// must outlive the result. Throws corrupt_stream_error on malformed input
/// or CRC mismatch.
[[nodiscard]] ParsedDeltaStream parse_delta_stream(
    std::span<const byte_t> stream);

}  // namespace lck
