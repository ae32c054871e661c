#include "ckpt/chunk/chunk_codec.hpp"

#include <unordered_set>

#include "ckpt/chunk/chunk_hash.hpp"
#include "common/crc32.hpp"

namespace lck {

bool is_delta_stream(std::span<const byte_t> stream) noexcept {
  if (stream.size() < sizeof(std::uint32_t)) return false;
  std::uint32_t magic;
  std::memcpy(&magic, stream.data(), sizeof magic);
  return magic == kDeltaMagic;
}

std::optional<int> peek_delta_base(std::span<const byte_t> stream) noexcept {
  if (!is_delta_stream(stream)) return std::nullopt;
  constexpr std::size_t off = sizeof(std::uint32_t) + sizeof(std::uint16_t);
  if (stream.size() < off + sizeof(std::int32_t)) return std::nullopt;
  std::int32_t base;
  std::memcpy(&base, stream.data() + off, sizeof base);
  return static_cast<int>(base);
}

std::vector<ChunkTag> plan_chunked_vector(
    std::span<const double> vec, std::size_t chunk_elems,
    const std::vector<std::uint64_t>* base_hashes,
    std::vector<std::uint64_t>& hashes) {
  require(chunk_elems >= 1, "chunk codec: chunk_elems must be >= 1");
  const ChunkGeometry geo(vec.size(), chunk_elems);
  hashes.resize(geo.count());
  std::unordered_set<std::uint64_t> available;
  if (base_hashes != nullptr)
    available.insert(base_hashes->begin(), base_hashes->end());
  // Decided in manifest order, so a reference always names content a base
  // or an earlier literal of this stream holds.
  std::vector<ChunkTag> tags(geo.count(), ChunkTag::kLiteral);
  for (std::size_t c = 0; c < geo.count(); ++c) {
    hashes[c] = crc64(
        {reinterpret_cast<const byte_t*>(vec.data() + geo.begin(c)),
         geo.length(c) * sizeof(double)});
    if (!available.insert(hashes[c]).second) tags[c] = ChunkTag::kRef;
  }
  return tags;
}

std::size_t emit_chunked_vector(
    ByteWriter& out, const std::string& comp_name, std::size_t elems,
    std::size_t chunk_elems, std::span<const std::uint64_t> hashes,
    std::span<const ChunkTag> tags,
    const std::function<std::vector<byte_t>(std::size_t)>& literal) {
  std::size_t literal_bytes = 0;
  out.put_string(comp_name);
  out.put(static_cast<std::uint64_t>(elems));
  out.put(static_cast<std::uint64_t>(chunk_elems));
  out.put(static_cast<std::uint32_t>(tags.size()));
  for (std::size_t c = 0; c < tags.size(); ++c) {
    out.put(hashes[c]);
    out.put(static_cast<std::uint8_t>(tags[c]));
    if (tags[c] == ChunkTag::kRef) continue;
    const std::vector<byte_t> payload = literal(c);
    out.put(static_cast<std::uint64_t>(payload.size()));
    out.put(crc32(payload));
    out.put_bytes(payload);
    literal_bytes += payload.size();
  }
  return literal_bytes;
}

ParsedDeltaStream parse_delta_stream(std::span<const byte_t> stream) {
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kDeltaMagic)
    throw corrupt_stream_error("delta stream: bad magic");
  if (in.get<std::uint16_t>() != kDeltaFormatVersion)
    throw corrupt_stream_error("delta stream: unsupported format version");

  ParsedDeltaStream parsed;
  parsed.base_version = in.get<std::int32_t>();
  parsed.chain_len = in.get<std::uint32_t>();
  // Counts come from the stream, so they are checked against the bytes
  // left before they size anything: every variable and every manifest
  // entry takes at least kMinEntryBytes.
  constexpr std::size_t kMinEntryBytes = 9;
  const auto var_count = in.get<std::uint32_t>();
  if (var_count > in.remaining() / kMinEntryBytes)
    throw corrupt_stream_error("delta stream: variable count exceeds stream");
  parsed.vars.reserve(var_count);
  for (std::uint32_t v = 0; v < var_count; ++v) {
    ParsedDeltaVar var;
    var.id = in.get<std::int32_t>();
    var.name = in.get_string();
    var.kind = static_cast<DeltaVarKind>(in.get<std::uint8_t>());
    if (var.kind == DeltaVarKind::kVector) {
      var.comp_name = in.get_string();
      var.elem_count = in.get<std::uint64_t>();
      var.chunk_elems = in.get<std::uint64_t>();
      const auto chunk_count = in.get<std::uint32_t>();
      // The header carries no CRC (only chunk payloads do), so the chunk
      // geometry must be cross-validated before anyone slices a recovery
      // target with it: an inconsistent elem_count/chunk_elems/chunk_count
      // triple would otherwise underflow the tail-length arithmetic and
      // write out of bounds.
      const ChunkGeometry geo(static_cast<std::size_t>(var.elem_count),
                              static_cast<std::size_t>(var.chunk_elems));
      if ((var.elem_count > 0 && var.chunk_elems == 0) ||
          chunk_count != geo.count())
        throw corrupt_stream_error(
            "delta stream: inconsistent chunk geometry for variable " +
            var.name);
      if (chunk_count > in.remaining() / kMinEntryBytes)
        throw corrupt_stream_error(
            "delta stream: chunk count exceeds stream for variable " +
            var.name);
      var.chunks.reserve(chunk_count);
      for (std::uint32_t c = 0; c < chunk_count; ++c) {
        ParsedChunk chunk;
        chunk.hash = in.get<std::uint64_t>();
        chunk.tag = static_cast<ChunkTag>(in.get<std::uint8_t>());
        if (chunk.tag == ChunkTag::kLiteral) {
          const auto payload_size = in.get<std::uint64_t>();
          const auto stored_crc = in.get<std::uint32_t>();
          chunk.payload = in.get_bytes(payload_size);
          if (crc32(chunk.payload) != stored_crc)
            throw corrupt_stream_error(
                "delta stream: chunk CRC mismatch for variable " + var.name);
        } else if (chunk.tag != ChunkTag::kRef) {
          throw corrupt_stream_error("delta stream: unknown chunk tag");
        }
        var.chunks.push_back(chunk);
      }
    } else if (var.kind == DeltaVarKind::kBlob) {
      const auto size = in.get<std::uint64_t>();
      const auto stored_crc = in.get<std::uint32_t>();
      var.blob = in.get_bytes(size);
      if (crc32(var.blob) != stored_crc)
        throw corrupt_stream_error(
            "delta stream: blob CRC mismatch for variable " + var.name);
    } else {
      throw corrupt_stream_error("delta stream: unknown variable kind");
    }
    parsed.vars.push_back(std::move(var));
  }
  return parsed;
}

}  // namespace lck
