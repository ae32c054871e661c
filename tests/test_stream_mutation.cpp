/// Seeded mutation tests for the entropy-coded decoders: deflate_decompress
/// and the SZ-like and ZFP-like decompressors, which share the bit reader
/// and the Huffman decoder, and for two checkpoint streams around them: an
/// SZ delta stream through parse_delta_stream and a framed checkpoint
/// recovered through CheckpointManager. Every bit flip, truncation and
/// 8-byte overwrite of a valid stream must end in either a correctly sized
/// output or a corrupt_stream_error: no other exception, no crash, and —
/// under the ASan/UBSan builds — no out-of-bounds access or undefined
/// behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <typeinfo>

#include "ckpt/checkpoint_manager.hpp"
#include "ckpt/chunk/chunk_codec.hpp"
#include "common/byte_buffer.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "compress/compressor.hpp"
#include "compress/huffman.hpp"
#include "compress/lossless/deflate_like.hpp"
#include "sparse/vector_ops.hpp"
#include "support/chunk_encode.hpp"

namespace lck {
namespace {

/// One seeded mutation, cycling through the three kinds: 1-3 bit flips,
/// a truncation, or an 8-byte overwrite with a random or boundary value.
std::vector<byte_t> mutate(const std::vector<byte_t>& stream, Rng& rng,
                           int k) {
  auto m = stream;
  switch (k % 3) {
    case 0: {
      const auto flips = 1 + rng.uniform_index(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const auto bit = rng.uniform_index(m.size() * 8);
        m[bit / 8] ^= static_cast<byte_t>(0x80u >> (bit % 8));
      }
      break;
    }
    case 1:
      m.resize(rng.uniform_index(m.size()));
      break;
    default: {
      const std::uint64_t specials[] = {0, ~std::uint64_t{0},
                                        std::uint64_t{1} << 40,
                                        std::uint64_t{1} << 63, 0xffffffffu};
      const std::uint64_t v =
          rng.uniform() < 0.5 ? rng() : specials[rng.uniform_index(5)];
      const auto off = rng.uniform_index(m.size() - 7);
      std::memcpy(m.data() + off, &v, sizeof(v));
      break;
    }
  }
  return m;
}

struct Outcomes {
  int decoded = 0;
  int rejected = 0;
};

/// Apply `count` seeded mutations to `stream` and decode each with
/// `decode`, which must fill a correctly sized output or throw.
template <typename Decode>
Outcomes run_mutations(const std::vector<byte_t>& stream, int count,
                       std::uint64_t seed, Decode decode) {
  Rng rng(seed);
  Outcomes o;
  for (int k = 0; k < count; ++k) {
    const auto m = mutate(stream, rng, k);
    try {
      decode(m);
      ++o.decoded;
    } catch (const corrupt_stream_error&) {
      ++o.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << k << ": " << typeid(e).name() << ": "
                    << e.what();
    }
  }
  return o;
}

/// Solver-like doubles: a smooth field with noise in the low mantissa.
Vector field(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(0.01 * static_cast<double>(i)) + 2.0 + 1e-6 * rng.uniform();
  return v;
}

TEST(StreamMutation, DeflateDecodesOrRejects) {
  const Vector v = field(2048, 1);
  std::vector<byte_t> raw(v.size() * sizeof(double));
  std::memcpy(raw.data(), v.data(), raw.size());
  for (std::size_t i = 4096; i < 4800; ++i) raw[i] = 0;  // long matches
  const auto stream = deflate_compress(raw);
  ASSERT_LT(stream.size(), raw.size());  // the Huffman format, not stored
  const auto o = run_mutations(stream, 3000, 11, [&](const auto& m) {
    std::vector<byte_t> out(raw.size());
    deflate_decompress(m, out);
  });
  // Mutations in the payload's tail or in unused code-length slack can
  // leave a stream that still decodes; most must be caught.
  EXPECT_GT(o.decoded, 0);
  EXPECT_GT(o.rejected, o.decoded);
}

TEST(StreamMutation, DeflateStoredDecodesOrRejects) {
  Rng rng(3);
  std::vector<byte_t> raw(1000);
  for (auto& b : raw) b = static_cast<byte_t>(rng());
  const auto stream = deflate_compress(raw);
  ASSERT_GT(stream.size(), raw.size());  // incompressible: stored format
  const auto o = run_mutations(stream, 600, 12, [&](const auto& m) {
    std::vector<byte_t> out(raw.size());
    deflate_decompress(m, out);
  });
  EXPECT_GT(o.decoded, 0);
  EXPECT_GT(o.rejected, 0);
}

struct CodecCase {
  const char* name;
  ErrorBound eb;
  bool spiky;  // sparse data with non-finite entries instead of a field
  std::size_t n = 1000;
};

class CodecMutation : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecMutation, DecodesOrRejects) {
  const CodecCase& c = GetParam();
  Vector v = field(c.n, 2);
  if (c.spiky) {
    Rng rng(4);
    for (auto& x : v) x = rng.uniform() < 0.8 ? 0.0 : rng.normal(0.0, 1e3);
    v[10] = std::numeric_limits<double>::infinity();
    v[500] = -0.0;
  }
  const auto comp = make_compressor(c.name, c.eb);
  const auto stream = comp->compress(v);
  const auto o = run_mutations(stream, 1000, 13, [&](const auto& m) {
    Vector out(v.size());
    comp->decompress(m, out);
  });
  EXPECT_GT(o.rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(
    SzAndZfp, CodecMutation,
    ::testing::Values(
        CodecCase{"sz", ErrorBound::absolute(1e-6), false},
        CodecCase{"sz", ErrorBound::value_range_rel(1e-4), false},
        CodecCase{"sz", ErrorBound::pointwise_rel(1e-4), true},
        CodecCase{"zfp", ErrorBound::absolute(1e-6), false},
        CodecCase{"zfp", ErrorBound::absolute(0.0), true},
        // One delta chunk: SZ's Huffman tables cover only its code band.
        CodecCase{"sz", ErrorBound::absolute(1e-6), false, 4096},
        CodecCase{"sz", ErrorBound::pointwise_rel(1e-4), false, 4096}),
    [](const auto& info) {
      return std::string(info.param.name) + "_" + std::to_string(info.index);
    });

/// Replace the code-length table of an absolute-bound SZ stream with the
/// serialized `lengths` (all 65,536 quantization codes).
std::vector<byte_t> with_sz_table(const std::vector<byte_t>& stream,
                                  const std::vector<std::uint8_t>& lengths) {
  // "2SZ1" header (u32 magic, u64 n, u8 mode, f64 eb), then the core's
  // f64 eb, u64 n, u32 radius, then the table.
  const std::size_t begin = 4 + 8 + 1 + 8 + 8 + 8 + 4;
  ByteReader in(std::span<const byte_t>(stream).subspan(begin));
  (void)read_code_lengths(in, 65536);
  const std::size_t end = stream.size() - in.remaining();
  ByteWriter table;
  write_code_lengths(table, lengths, lengths.size());
  std::vector<byte_t> out(stream.begin(), stream.begin() + begin);
  const auto t = std::move(table).take();
  out.insert(out.end(), t.begin(), t.end());
  out.insert(out.end(), stream.begin() + static_cast<std::ptrdiff_t>(end),
             stream.end());
  return out;
}

TEST(StreamMutation, SzCorruptCodeTablesDecodeOrReject) {
  // A 4,096-element chunk's payload read through tables it was not coded
  // with: codes at both alphabet ends only, and codes spread over the whole
  // alphabet (complete, over-subscribed and sparse). None of them fits the
  // payload, so the decoder must reject each; then each is mutated.
  const Vector v = field(4096, 5);
  const auto comp = make_compressor("sz", ErrorBound::absolute(1e-6));
  const auto stream = comp->compress(v);
  Rng rng(21);
  std::vector<std::vector<std::uint8_t>> tables(5,
                                                std::vector<std::uint8_t>(65536));
  tables[0][0] = tables[0][65535] = 1;
  tables[1][0] = tables[1][65535] = 2;  // incomplete
  tables[2].assign(65536, 16);          // complete, every code
  for (auto& l : tables[3])             // mostly over-subscribed
    if (rng.uniform() < 0.3)
      l = static_cast<std::uint8_t>(1 + rng.uniform_index(kHuffmanMaxBits));
  for (std::size_t s = 0; s < 65536; s += 257) tables[4][s] = 8;
  for (std::size_t t = 0; t < tables.size(); ++t) {
    SCOPED_TRACE(::testing::Message() << "table " << t);
    const auto corrupt = with_sz_table(stream, tables[t]);
    const auto decode = [&](const auto& m) {
      Vector out(v.size());
      comp->decompress(m, out);
    };
    EXPECT_THROW(decode(corrupt), corrupt_stream_error);
    const auto o = run_mutations(corrupt, 100, 30 + t, decode);
    EXPECT_GT(o.rejected, 0);
  }
}

TEST(StreamMutation, SzChunkWithCodesAtBothAlphabetEndsDecodesOrRejects) {
  // Even integers with ±65,534 spikes under an absolute bound of 1: the
  // chunk's own table runs from code 1 to code 65,535.
  Vector v(4096);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 2.0 * std::round(4.0 * std::sin(0.02 * static_cast<double>(i)));
  for (std::size_t i = 50; i + 1 < v.size(); i += 97) v[i] = v[i - 1] + 65534.0;
  const auto comp = make_compressor("sz", ErrorBound::absolute(1.0));
  const auto stream = comp->compress(v);
  const auto o = run_mutations(stream, 400, 41, [&](const auto& m) {
    Vector out(v.size());
    comp->decompress(m, out);
  });
  EXPECT_GT(o.decoded, 0);
  EXPECT_GT(o.rejected, 0);
}


TEST(StreamMutation, SzDeltaStreamParsesOrRejects) {
  // A full DKPT stream (two SZ vectors at the 4,096-element chunk size and
  // a blob) through parse_delta_stream, then every literal decoded as
  // recovery would.
  const Vector x = field(3 * 4096 + 100, 6);
  const Vector y(2 * 4096, 1.25);  // its second chunk is a within-stream ref
  const std::vector<byte_t> blob{1, 2, 3, 4, 5};
  const auto sz = make_compressor("sz", ErrorBound::pointwise_rel(1e-4));
  ByteWriter out;
  out.put(kDeltaMagic);
  out.put(kDeltaFormatVersion);
  out.put(std::int32_t{-1});
  out.put(std::uint32_t{0});
  out.put(std::uint32_t{3});
  std::vector<std::uint64_t> hashes;
  for (const auto& [id, v] : {std::pair{0, &x}, std::pair{1, &y}}) {
    out.put(std::int32_t{id});
    out.put_string(id == 0 ? "x" : "y");
    out.put(static_cast<std::uint8_t>(DeltaVarKind::kVector));
    (void)encode_chunked_vector(out, *v, *sz, 4096, nullptr, hashes);
  }
  out.put(std::int32_t{2});
  out.put_string("s");
  out.put(static_cast<std::uint8_t>(DeltaVarKind::kBlob));
  out.put(static_cast<std::uint64_t>(blob.size()));
  out.put(crc32(blob));
  out.put_bytes(blob);
  const auto stream = std::move(out).take();

  const auto decode = [&](const std::vector<byte_t>& m) {
    const ParsedDeltaStream parsed = parse_delta_stream(m);
    for (const auto& var : parsed.vars) {
      if (var.kind != DeltaVarKind::kVector) continue;
      const ChunkGeometry geo(static_cast<std::size_t>(var.elem_count),
                              static_cast<std::size_t>(var.chunk_elems));
      Vector chunk;
      for (std::size_t c = 0; c < var.chunks.size(); ++c) {
        if (var.chunks[c].tag != ChunkTag::kLiteral) continue;
        chunk.resize(geo.length(c));
        sz->decompress(var.chunks[c].payload, chunk);
      }
    }
  };
  ASSERT_NO_THROW(decode(stream));
  // A count field claiming more entries than the stream has bytes for is
  // rejected before it sizes anything.
  auto huge_count = stream;
  const std::uint32_t all_ones = 0xffffffffu;
  std::memcpy(huge_count.data() + 14, &all_ones, sizeof all_ones);
  EXPECT_THROW(decode(huge_count), corrupt_stream_error);

  const auto o = run_mutations(stream, 1000, 51, decode);
  RecordProperty("decoded", o.decoded);
  RecordProperty("rejected", o.rejected);
  EXPECT_GT(o.rejected, o.decoded);
}

TEST(StreamMutation, FramedCheckpointRecoversOrRejects) {
  // A framed checkpoint (an SZ vector in 1,024-element chunks, a small
  // vector and a blob, lz4 frames) recovered through the manager.
  const Vector x = field(3000, 7);
  const Vector y = field(100, 8);
  std::vector<byte_t> blob{9, 8, 7};
  const auto sz = make_compressor("sz", ErrorBound::pointwise_rel(1e-4));
  StreamingConfig cfg;
  cfg.frame_elems = 512;
  cfg.wbuf_bytes = 4096;
  std::vector<byte_t> stream;
  {
    auto store = std::make_unique<MemoryStore>();
    auto* store_raw = store.get();
    CheckpointManager mgr(std::move(store), sz.get());
    mgr.set_streaming(cfg);
    mgr.set_block_pipeline(1024);
    Vector xr, yr;
    mgr.protect(0, "x", &x, &xr);
    mgr.protect(1, "y", &y, &yr);
    mgr.protect_blob(2, "s", &blob);
    mgr.checkpoint();
    stream = store_raw->read(0);
  }

  const auto decode = [&](const std::vector<byte_t>& m) {
    auto store = std::make_unique<MemoryStore>();
    store->write(0, m);
    CheckpointManager mgr(std::move(store), sz.get());
    Vector xr, yr;
    std::vector<byte_t> br;
    mgr.protect(0, "x", &xr);
    mgr.protect(1, "y", &yr);
    mgr.protect_blob(2, "s", &br);
    mgr.recover();
  };
  ASSERT_NO_THROW(decode(stream));
  const auto o = run_mutations(stream, 1000, 52, decode);
  RecordProperty("decoded", o.decoded);
  RecordProperty("rejected", o.rejected);
  EXPECT_GT(o.rejected, o.decoded);
}

}  // namespace
}  // namespace lck
