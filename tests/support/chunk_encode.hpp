#pragma once
/// \file chunk_encode.hpp
/// \brief One vector through the delta chunk codec on the calling thread:
///        plan, then emit with each literal compressed in turn. The
///        manager does the same with its payloads taken from a DrainBoard,
///        so the bytes agree; tests use this to build and pin manifests
///        without a manager.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "ckpt/chunk/chunk_codec.hpp"
#include "compress/compressor.hpp"

namespace lck {

/// What one encoded vector holds.
struct ChunkEncodeStats {
  std::size_t chunks = 0;         ///< Total manifest entries.
  std::size_t refs = 0;           ///< Chunks stored as references.
  std::size_t literal_bytes = 0;  ///< Compressed payload bytes emitted.
};

/// Append `vec`'s manifest to `out` against `base_hashes` (null ⇒ no base)
/// and return this version's chunk hashes in `out_hashes`.
inline ChunkEncodeStats encode_chunked_vector(
    ByteWriter& out, std::span<const double> vec, const Compressor& comp,
    std::size_t chunk_elems, const std::vector<std::uint64_t>* base_hashes,
    std::vector<std::uint64_t>& out_hashes) {
  const auto tags =
      plan_chunked_vector(vec, chunk_elems, base_hashes, out_hashes);
  const ChunkGeometry geo(vec.size(), chunk_elems);
  ChunkEncodeStats stats;
  stats.chunks = tags.size();
  stats.refs = static_cast<std::size_t>(
      std::count(tags.begin(), tags.end(), ChunkTag::kRef));
  stats.literal_bytes = emit_chunked_vector(
      out, comp.name(), vec.size(), chunk_elems, out_hashes, tags,
      [&](std::size_t c) {
        return comp.compress(vec.subspan(geo.begin(c), geo.length(c)));
      });
  return stats;
}

}  // namespace lck
