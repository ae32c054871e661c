/// Chunk (block) compression of checkpointed vectors: every vector longer
/// than the manager's chunk size is coded chunk by chunk into the framed
/// layout. Per-element error bounds for every codec and bound mode around
/// chunk boundaries (written by checkpoint() and by a staged drain), the
/// chunk size read back from the stream, corrupt chunk lengths and
/// payloads, and the retired "block+<codec>" names.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>

#include "ckpt/checkpoint_manager.hpp"
#include "ckpt/frame_stream.hpp"
#include "common/byte_buffer.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "compress/compressor.hpp"

namespace lck {
namespace {

Vector smooth_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(0.003 * static_cast<double>(i)) + 2.0 +
           1e-3 * rng.uniform();
  return v;
}

StreamingConfig small_frames(const std::string& style) {
  StreamingConfig cfg;
  cfg.frame_elems = 512;
  cfg.wbuf_bytes = 4096;
  cfg.style = style;
  return cfg;
}

/// One checkpoint in `mode` (sync inline; async through the staged drain),
/// then recover.
void checkpoint_and_recover(CheckpointManager& mgr, CkptMode mode) {
  if (mode == CkptMode::kSync) {
    mgr.checkpoint();
  } else {
    const StageTicket t = mgr.stage();
    mgr.wait_drain(t.version);
    mgr.commit_version(t.version);
  }
  mgr.recover();
}

/// Per-element check that `out` respects `eb` relative to `in`. For the
/// value-range-relative mode each chunk is coded against its own range,
/// which is never larger than the whole vector's, so checking against the
/// whole range is the correct (weakest) guarantee.
void expect_bound_holds(const Vector& in, const Vector& out, ErrorBound eb) {
  ASSERT_EQ(in.size(), out.size());
  double range = 0.0;
  if (!in.empty()) {
    const auto [lo, hi] = std::minmax_element(in.begin(), in.end());
    range = *hi - *lo;
  }
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double err = std::fabs(in[i] - out[i]);
    switch (eb.mode) {
      case ErrorBound::Mode::kAbsolute:
        ASSERT_LE(err, eb.value + 1e-300) << "index " << i;
        break;
      case ErrorBound::Mode::kValueRangeRelative:
        ASSERT_LE(err, eb.value * range + 1e-300) << "index " << i;
        break;
      case ErrorBound::Mode::kPointwiseRelative:
        ASSERT_LE(err, eb.value * std::fabs(in[i]) + 1e-300) << "index " << i;
        break;
    }
  }
}

using BoundCase = std::tuple<const char*, ErrorBound::Mode>;

class FramedChunkBounds : public ::testing::TestWithParam<BoundCase> {};

TEST_P(FramedChunkBounds, EveryElementWithinBoundAroundChunkBoundaries) {
  // 0, 1, ±1 around one chunk, and a multi-chunk odd size, written by
  // checkpoint() and by a staged drain.
  const auto [name, mode] = GetParam();
  const ErrorBound eb{mode, mode == ErrorBound::Mode::kAbsolute ? 1e-4 : 1e-5};
  const auto comp = make_compressor(name, eb);
  constexpr std::size_t c = 256;
  for (const CkptMode ckpt_mode : {CkptMode::kSync, CkptMode::kAsync}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, c - 1, c,
                                c + 1, 3 * c + 7}) {
      SCOPED_TRACE(std::string(to_string(ckpt_mode)) +
                   " n=" + std::to_string(n));
      const Vector in = smooth_vector(n, n + 1);
      Vector out(n + 3, -999.0);
      CheckpointManager mgr(std::make_unique<MemoryStore>(), comp.get());
      mgr.set_block_pipeline(c);
      mgr.protect(0, "x", &in, &out);
      checkpoint_and_recover(mgr, ckpt_mode);
      if (comp->lossy())
        expect_bound_holds(in, out, eb);
      else
        EXPECT_EQ(out, in);  // lossless codecs: bit-exact
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, FramedChunkBounds,
    ::testing::Combine(
        ::testing::Values("none", "rle", "shuffle-rle", "deflate",
                          "shuffle-deflate", "lz4", "shuffle-lz4", "sz", "zfp",
                          "trunc"),
        ::testing::Values(ErrorBound::Mode::kAbsolute,
                          ErrorBound::Mode::kValueRangeRelative,
                          ErrorBound::Mode::kPointwiseRelative)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      switch (std::get<1>(info.param)) {
        case ErrorBound::Mode::kAbsolute: return name + "_abs";
        case ErrorBound::Mode::kValueRangeRelative: return name + "_vrr";
        case ErrorBound::Mode::kPointwiseRelative: return name + "_pwr";
      }
      return name;
    });

TEST(FramedChunks, ChunkSizeIsReadFromTheStream) {
  // A checkpoint written with one chunk size recovers under another, and
  // one written unchunked recovers once chunking is back on.
  const auto deflate = make_compressor("deflate");
  CheckpointManager mgr(std::make_unique<MemoryStore>(), deflate.get());
  mgr.set_block_pipeline(256);
  Vector x = smooth_vector(5 * 256 + 3, 13);
  const Vector saved = x;
  mgr.protect(0, "x", &x);
  mgr.checkpoint();
  mgr.set_block_pipeline(0);
  x.assign(x.size(), -1.0);
  mgr.recover();
  EXPECT_EQ(x, saved);

  mgr.checkpoint();  // one payload this time
  mgr.set_block_pipeline(256);
  x.assign(x.size(), -1.0);
  mgr.recover();
  EXPECT_EQ(x, saved);
}

/// Framed checkpoint of `x` whose whole logical stream sits in one raw
/// frame, so a test can edit that stream and re-seal the frame's CRC.
std::vector<byte_t> one_frame_checkpoint(const Compressor& comp,
                                         const Vector& x, std::size_t chunk) {
  auto store = std::make_unique<MemoryStore>();
  auto* store_raw = store.get();
  CheckpointManager mgr(std::move(store), &comp);
  StreamingConfig cfg = small_frames("raw");
  cfg.frame_elems = std::size_t{1} << 17;
  mgr.set_streaming(cfg);
  mgr.set_block_pipeline(chunk);
  Vector unused;
  mgr.protect(0, "x", &x, &unused);
  mgr.checkpoint();
  return store_raw->read(0);
}

// Stream header (11 bytes), then the one frame's header: style at 11,
// raw_len at 12, comp_len at 16, CRC at 20, its payload from 24.
constexpr std::size_t kOneFramePayload = 24;

void reseal_one_frame(std::vector<byte_t>& blob) {
  std::uint32_t raw_len;
  std::memcpy(&raw_len, blob.data() + 12, 4);
  const std::uint32_t crc = crc32({blob.data() + kOneFramePayload, raw_len});
  std::memcpy(blob.data() + 20, &crc, 4);
}

TEST(FramedChunks, CorruptChunkLengthOrPayloadIsRejected) {
  const auto deflate = make_compressor("deflate");
  const Vector x = smooth_vector(4 * 256, 7);
  const auto good = one_frame_checkpoint(*deflate, x, 256);
  const auto recover_with = [&](const std::vector<byte_t>& blob) {
    auto store = std::make_unique<MemoryStore>();
    store->write(0, blob);
    CheckpointManager mgr(std::move(store), deflate.get());
    Vector back;
    mgr.protect(0, "x", &back);
    mgr.recover();
    return back;
  };
  ASSERT_EQ(recover_with(good), x);

  // Logical stream: u16 version, u32 count, i32 id, str "x", u8 kind,
  // str "deflate", u64 elem_count, u8 layout, u64 chunk_elems, then the
  // first chunk's u64 length.
  const std::size_t chunk_elems_at = kOneFramePayload + 2 + 4 + 4 + 5 + 1 + 11 +
                                     8 + 1;
  const std::size_t length_at = chunk_elems_at + 8;
  std::uint64_t field;
  std::memcpy(&field, good.data() + chunk_elems_at, 8);
  ASSERT_EQ(field, 256u);
  std::uint64_t length;
  std::memcpy(&length, good.data() + length_at, 8);
  ASSERT_GT(length, 0u);
  ASSERT_LE(length, 256u * sizeof(double) + 64);  // codec header + chunk

  for (const std::uint64_t bad_length :
       {length - 1, length + 1, std::uint64_t{0}, std::uint64_t{1} << 63}) {
    SCOPED_TRACE(bad_length);
    auto bad = good;
    std::memcpy(bad.data() + length_at, &bad_length, 8);
    reseal_one_frame(bad);
    EXPECT_THROW((void)recover_with(bad), corrupt_stream_error);
  }

  // A flipped payload byte in any chunk fails the frame CRC.
  for (int q = 0; q < 4; ++q) {
    auto bad = good;
    const std::size_t span = bad.size() - length_at - 8 - kFrameHeaderBytes;
    bad[length_at + 8 + span * q / 4] ^= 0x10;
    EXPECT_THROW((void)recover_with(bad), corrupt_stream_error) << q;
  }
}

TEST(FramedChunks, BlockPrefixIsNotACodecName) {
  EXPECT_THROW((void)make_compressor("block+sz"), config_error);
  EXPECT_THROW((void)make_compressor("block+deflate"), config_error);
}

TEST(FramedChunks, LegacyBlockStreamFailsWithCompressorMismatch) {
  // Legacy "CKPT" streams once stored large vectors as "block+<codec>";
  // they now name a codec nobody registers.
  const auto deflate = make_compressor("deflate");
  const Vector x = smooth_vector(100, 9);
  const auto payload = deflate->compress(x);
  ByteWriter out;
  out.put(std::uint32_t{0x54504b43u});  // "CKPT"
  out.put(std::uint16_t{1});
  out.put(std::uint32_t{1});
  out.put(std::int32_t{0});
  out.put_string("x");
  out.put(std::uint8_t{0});  // vector
  out.put_string("block+deflate");
  out.put(static_cast<std::uint64_t>(x.size()));
  out.put(static_cast<std::uint64_t>(payload.size()));
  out.put(crc32(payload));
  out.put_bytes(payload);
  auto store = std::make_unique<MemoryStore>();
  store->write(0, out.view());
  CheckpointManager mgr(std::move(store), deflate.get());
  Vector back;
  mgr.protect(0, "x", &back);
  try {
    mgr.recover();
    FAIL() << "a block+ stream was accepted";
  } catch (const corrupt_stream_error& e) {
    EXPECT_NE(std::string(e.what()).find("compressor mismatch"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace lck
