/// Streaming framed checkpoint path: FrameWriter/FrameReader transport
/// roundtrips and corruption detection, the in-tree LZ4-class codec,
/// bounded writer memory, and CheckpointManager streaming recovery —
/// including agreement with the legacy whole-stream serializer in sync,
/// async, and tiered modes.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "ckpt/checkpoint_manager.hpp"
#include "ckpt/frame_stream.hpp"
#include "ckpt/tier/tiered_store.hpp"
#include "common/rng.hpp"
#include "compress/lossless/lz4_like.hpp"
#include "compress/sz/sz_like.hpp"

namespace lck {
namespace {

std::vector<byte_t> pattern_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<byte_t> v(n);
  for (auto& b : v) b = static_cast<byte_t>(rng() & 0xff);
  return v;
}

Vector smooth_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(0.003 * static_cast<double>(i)) + 2.0 +
           1e-3 * rng.uniform();
  return v;
}

StreamingConfig small_frames(const std::string& style = "lz4") {
  StreamingConfig cfg;
  cfg.frame_elems = 512;  // 4 KiB raw frames: boundary cases stay cheap
  cfg.wbuf_bytes = 4096;
  cfg.style = style;
  return cfg;
}

// ----- transport: FrameWriter / FrameReader ---------------------------------

TEST(FrameTransport, RoundTripAllStylesAndSizes) {
  for (const char* style : {"raw", "lz4", "deflate"}) {
    const StreamingConfig cfg = small_frames(style);
    const std::size_t fb = cfg.frame_bytes();
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, fb - 1, fb, fb + 1, 3 * fb + 37}) {
      const auto payload = pattern_bytes(n, 11 + n);
      std::vector<byte_t> stream;
      VectorSink sink(stream);
      FrameWriter w(sink, cfg);
      w.put<std::uint32_t>(0xabcd1234u);
      w.put_string("var/name");
      w.put_bytes(payload);
      w.put<double>(2.5);
      w.finish();
      EXPECT_EQ(w.stream_bytes(), stream.size());

      SpanSource src(stream);
      FrameReader r(src);
      EXPECT_EQ(r.get<std::uint32_t>(), 0xabcd1234u);
      EXPECT_EQ(r.get_string(), "var/name");
      std::vector<byte_t> back(n);
      r.read_into(back);
      EXPECT_EQ(back, payload) << style << " n=" << n;
      EXPECT_DOUBLE_EQ(r.get<double>(), 2.5);
      EXPECT_NO_THROW(r.expect_end());
    }
  }
}

TEST(FrameTransport, EmptyLogicalStreamRoundTrips) {
  std::vector<byte_t> stream;
  VectorSink sink(stream);
  FrameWriter w(sink, small_frames());
  w.finish();
  // Stream header (11) + terminator (13) and nothing else.
  EXPECT_EQ(stream.size(), 11u + kFrameHeaderBytes);
  SpanSource src(stream);
  FrameReader r(src);
  EXPECT_NO_THROW(r.expect_end());
}

TEST(FrameTransport, TruncationIsDetected) {
  const auto payload = pattern_bytes(10000, 3);
  std::vector<byte_t> stream;
  VectorSink sink(stream);
  FrameWriter w(sink, small_frames());
  w.put_bytes(payload);
  w.finish();

  // Truncated terminator: the data reads back, but the end check throws.
  {
    auto cut = stream;
    cut.resize(cut.size() - 5);
    SpanSource src(cut);
    FrameReader r(src);
    std::vector<byte_t> back(payload.size());
    r.read_into(back);
    EXPECT_THROW(r.expect_end(), corrupt_stream_error);
  }
  // Truncated final data frame: the read itself throws.
  {
    auto cut = stream;
    cut.resize(cut.size() - kFrameHeaderBytes - 40);
    SpanSource src(cut);
    FrameReader r(src);
    std::vector<byte_t> back(payload.size());
    EXPECT_THROW(r.read_into(back), corrupt_stream_error);
  }
  // Trailing garbage after the terminator is rejected too.
  {
    auto fat = stream;
    fat.push_back(0x5a);
    SpanSource src(fat);
    FrameReader r(src);
    std::vector<byte_t> back(payload.size());
    r.read_into(back);
    EXPECT_THROW(r.expect_end(), corrupt_stream_error);
  }
}

TEST(FrameTransport, CorruptionIsDetected) {
  const auto payload = pattern_bytes(9000, 4);
  std::vector<byte_t> stream;
  VectorSink sink(stream);
  FrameWriter w(sink, small_frames());
  w.put_bytes(payload);
  w.finish();

  const auto expect_rejected = [&](std::vector<byte_t> bad) {
    SpanSource src(bad);
    std::vector<byte_t> back(payload.size());
    try {
      FrameReader r(src);
      r.read_into(back);
      r.expect_end();
      FAIL() << "corrupt stream accepted";
    } catch (const corrupt_stream_error&) {
    }
  };

  auto bad = stream;
  bad[1] ^= 0x01;  // magic
  expect_rejected(bad);

  bad = stream;
  bad[4] ^= 0x01;  // version
  expect_rejected(bad);

  bad = stream;
  bad[30] ^= 0x40;  // payload byte inside the first frame -> CRC mismatch
  expect_rejected(bad);

  bad = stream;
  // First frame header at offset 11: style(1) raw_len(4) comp_len(4) crc(4).
  // An oversized comp_len must be rejected by the comp_len/raw_len invariant
  // before any allocation or read is attempted.
  std::memset(bad.data() + 11 + 5, 0xff, 4);
  expect_rejected(bad);

  bad = stream;
  bad[11] = 99;  // unknown frame style
  expect_rejected(bad);

  bad = stream;
  // Corrupt terminator: header[0] == 0 but nonzero tail bytes.
  bad[bad.size() - 2] = 0x7f;
  expect_rejected(bad);
}

TEST(FrameTransport, WriterMemoryIsBounded) {
  // 2 MiB of data through 8 KiB frames: the writer's high-water mark must
  // stay at one raw frame + its compressed image + write buffer + header,
  // independent of stream length.
  StreamingConfig cfg;
  cfg.frame_elems = 1024;  // 8 KiB frames
  cfg.wbuf_bytes = 4096;
  cfg.style = "lz4";
  const auto payload = pattern_bytes(std::size_t{2} << 20, 5);
  std::vector<byte_t> stream;
  VectorSink sink(stream);
  FrameWriter w(sink, cfg);
  w.put_bytes(payload);
  w.finish();
  EXPECT_LE(w.peak_buffered_bytes(),
            cfg.wbuf_bytes + cfg.frame_bytes() +
                lz4_compress_bound(cfg.frame_bytes()) + kFrameHeaderBytes);
  EXPECT_GT(stream.size(), std::size_t{1} << 20);  // random data: ~raw size
}

TEST(FrameTransport, SinkReceivesIncrementalAppends) {
  // The stream must reach the sink in bounded increments while the writer
  // runs — not as one materialized blob at the end.
  class CountingSink final : public ByteSink {
   public:
    void append(std::span<const byte_t> bytes) override {
      ++appends;
      max_append = std::max(max_append, bytes.size());
      total += bytes.size();
    }
    std::size_t appends = 0, max_append = 0, total = 0;
  };

  const StreamingConfig cfg = small_frames("raw");
  const auto payload = pattern_bytes(std::size_t{1} << 20, 6);
  CountingSink sink;
  FrameWriter w(sink, cfg);
  w.put_bytes(payload);
  w.finish();
  EXPECT_EQ(sink.total, w.stream_bytes());
  EXPECT_GE(sink.appends, 64u);
  // Largest single append: either a flushed wbuf or one oversized frame
  // payload handed straight through.
  EXPECT_LE(sink.max_append,
            std::max(cfg.wbuf_bytes, cfg.frame_bytes() + kFrameHeaderBytes));
}

TEST(FrameTransport, ValidateRejectsBadConfigs) {
  StreamingConfig cfg;
  cfg.frame_elems = 8;  // < 512 minimum
  EXPECT_THROW(cfg.validate(), config_error);
  cfg = StreamingConfig{};
  cfg.wbuf_bytes = 16;  // < 4096 minimum
  EXPECT_THROW(cfg.validate(), config_error);
  cfg = StreamingConfig{};
  cfg.style = "zstd";
  EXPECT_THROW(cfg.validate(), config_error);
  // All violations are collected into one message.
  cfg.frame_elems = 0;
  cfg.wbuf_bytes = 0;
  try {
    cfg.validate();
    FAIL() << "invalid config accepted";
  } catch (const config_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("frame_elems"), std::string::npos);
    EXPECT_NE(msg.find("wbuf_bytes"), std::string::npos);
    EXPECT_NE(msg.find("style"), std::string::npos);
  }
  EXPECT_NO_THROW(StreamingConfig{}.validate());
}

// ----- LZ4-class codec ------------------------------------------------------

TEST(Lz4Like, RoundTripCompressibleAndRandom) {
  // Repetitive input must actually compress; random input must round-trip
  // within the documented worst-case bound.
  std::vector<byte_t> text;
  for (int i = 0; i < 400; ++i)
    for (const char c : std::string("the quick brown fox "))
      text.push_back(static_cast<byte_t>(c));
  const auto ctext = lz4_compress(text);
  EXPECT_LT(ctext.size() * 2, text.size());
  EXPECT_EQ(lz4_decompress(ctext, text.size()), text);

  const auto noise = pattern_bytes(10000, 7);
  const auto cnoise = lz4_compress(noise);
  EXPECT_LE(cnoise.size(), lz4_compress_bound(noise.size()));
  EXPECT_EQ(lz4_decompress(cnoise, noise.size()), noise);

  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                              std::size_t{12}, std::size_t{13}}) {
    const auto tiny = pattern_bytes(n, 50 + n);
    EXPECT_EQ(lz4_decompress(lz4_compress(tiny), n), tiny) << "n=" << n;
  }
}

TEST(Lz4Like, RejectsMalformedInput) {
  std::vector<byte_t> text(3000, static_cast<byte_t>('a'));
  const auto good = lz4_compress(text);

  auto cut = good;
  cut.resize(cut.size() / 2);
  EXPECT_THROW((void)lz4_decompress(cut, text.size()), corrupt_stream_error);

  // Wrong expected size: both directions must throw, not mis-size output.
  EXPECT_THROW((void)lz4_decompress(good, text.size() + 1),
               corrupt_stream_error);
  EXPECT_THROW((void)lz4_decompress(good, text.size() - 1),
               corrupt_stream_error);

  // A match referencing data before the start of the output buffer.
  // token 0x1f: 1 literal, extended match; literal 'x'; offset 9 > produced.
  const std::vector<byte_t> bad_offset{0x1f, 'x', 0x09, 0x00, 0x00};
  EXPECT_THROW((void)lz4_decompress(bad_offset, 100), corrupt_stream_error);
}

// ----- manager: streaming checkpoints ---------------------------------------

struct ModeCase {
  CkptMode mode;
  const char* name;
};

std::unique_ptr<CheckpointStore> make_mode_store(CkptMode mode) {
  if (mode != CkptMode::kTiered) return std::make_unique<MemoryStore>();
  std::vector<TieredCheckpointStore::Level> levels;
  levels.push_back({TierSpec{"L1", FailureSeverity::kProcess, 4, 1},
                    std::make_unique<MemoryStore>()});
  levels.push_back({TierSpec{"L2", FailureSeverity::kNode, 4, 1},
                    std::make_unique<MemoryStore>()});
  return std::make_unique<TieredCheckpointStore>(std::move(levels),
                                                 /*auto_promote=*/true);
}

/// Run one checkpoint in `mode` (sync inline; async/tiered through the
/// staged drain) and then recover, returning the recovered vectors.
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

TEST(ManagerStreaming, BitExactAgainstLegacyForEveryCodecAndMode) {
  // Lossless codecs and a vector small enough to be one chunk recover
  // bit-identically to the legacy serializer, which stores each vector as
  // one payload. A lossy codec on a chunked vector recovers exactly what
  // the codec's own chunk-by-chunk round trip gives.
  const Vector x0 = smooth_vector(5000, 21);  // > block_elems: chunked
  const Vector y0 = smooth_vector(300, 22);   // small: single-shot
  const std::vector<byte_t> blob0 = pattern_bytes(100, 23);

  for (const char* codec : {"none", "sz", "deflate", "lz4"}) {
    for (const ModeCase mc :
         {ModeCase{CkptMode::kSync, "sync"}, ModeCase{CkptMode::kAsync, "async"},
          ModeCase{CkptMode::kTiered, "tiered"}}) {
      SCOPED_TRACE(std::string(codec) + " / " + mc.name);
      const auto comp = make_compressor(codec, ErrorBound::pointwise_rel(1e-4));

      const auto run = [&](bool streaming_on) {
        CheckpointManager mgr(make_mode_store(mc.mode), comp.get());
        StreamingConfig cfg = small_frames();
        cfg.enabled = streaming_on;
        mgr.set_streaming(cfg);
        mgr.set_block_pipeline(1024);
        Vector x = x0, y = y0;
        std::vector<byte_t> blob = blob0;
        mgr.protect(0, "x", &x);
        mgr.protect(1, "y", &y);
        mgr.protect_blob(2, "blob", &blob);
        checkpoint_and_recover(mgr, mc.mode);
        EXPECT_EQ(blob, blob0);
        return std::make_pair(x, y);
      };

      const auto [xs, ys] = run(true);
      const auto [xl, yl] = run(false);
      EXPECT_EQ(ys, yl);  // bitwise double equality via operator==
      if (comp->lossy()) {
        Vector chunked(x0.size()), whole(x0.size());
        for (std::size_t b = 0; b < x0.size(); b += 1024) {
          const std::size_t len = std::min<std::size_t>(1024, x0.size() - b);
          comp->decompress(comp->compress({x0.data() + b, len}),
                           {chunked.data() + b, len});
        }
        comp->decompress(comp->compress(x0), whole);
        EXPECT_EQ(xs, chunked);
        EXPECT_EQ(xl, whole);
      } else {
        EXPECT_EQ(xs, xl);
        EXPECT_EQ(xs, x0);  // lossless codecs: exact against the original too
        EXPECT_EQ(ys, y0);
      }
    }
  }
}

TEST(ManagerStreaming, WritesFramedMagicAndLegacyStaysReadable) {
  NoneCompressor none;
  auto store = std::make_unique<MemoryStore>();
  auto* store_raw = store.get();
  CheckpointManager mgr(std::move(store), &none);
  mgr.set_streaming(small_frames());
  Vector x = smooth_vector(600, 31);
  const Vector saved = x;
  mgr.protect(0, "x", &x);

  const CheckpointRecord rec = mgr.checkpoint();  // v0: framed
  const auto framed = store_raw->read(0);
  ASSERT_GE(framed.size(), 4u);
  std::uint32_t magic;
  std::memcpy(&magic, framed.data(), 4);
  EXPECT_EQ(magic, kFrameStreamMagic);
  EXPECT_EQ(rec.stored_bytes, framed.size());

  // A legacy-format checkpoint written with streaming off must restore
  // through the same streaming-enabled manager (magic dispatch).
  StreamingConfig off = small_frames();
  off.enabled = false;
  mgr.set_streaming(off);
  x = smooth_vector(600, 32);
  const Vector legacy_saved = x;
  mgr.checkpoint();  // v1: legacy "CKPT"
  mgr.set_streaming(small_frames());
  x.assign(600, 0.0);
  mgr.recover();
  EXPECT_EQ(x, legacy_saved);
}

TEST(ManagerStreaming, DeltaFormatTakesPrecedence) {
  NoneCompressor none;
  auto store = std::make_unique<MemoryStore>();
  auto* store_raw = store.get();
  CheckpointManager mgr(std::move(store), &none);
  mgr.set_streaming(small_frames());
  mgr.set_delta(4, 256);
  Vector x = smooth_vector(2000, 33);
  const Vector saved = x;
  mgr.protect(0, "x", &x);
  mgr.checkpoint();
  std::uint32_t magic;
  std::memcpy(&magic, store_raw->read(0).data(), 4);
  EXPECT_EQ(magic, 0x54504b44u) << "delta streams keep the DKPT format";
  x.assign(2000, 0.0);
  mgr.recover();
  EXPECT_EQ(x, saved);
}

TEST(ManagerStreaming, StateSizesAroundFrameBoundary) {
  // 4 KiB frames = 512 doubles: sizes straddling one and two frame
  // boundaries, plus a zero-length vector alongside a zero-length blob.
  NoneCompressor none;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{511}, std::size_t{512}, std::size_t{513},
        std::size_t{1024}, std::size_t{1025}}) {
    SCOPED_TRACE(n);
    CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
    mgr.set_streaming(small_frames());
    Vector x = smooth_vector(n, 40 + n);
    std::vector<byte_t> blob;
    const Vector saved = x;
    mgr.protect(0, "x", &x);
    mgr.protect_blob(1, "empty", &blob);
    mgr.checkpoint();
    x.assign(17, -1.0);  // wrong size too: recover must resize
    blob.assign(3, 9);
    mgr.recover();
    EXPECT_EQ(x, saved);
    EXPECT_TRUE(blob.empty());
  }
}

TEST(ManagerStreaming, CorruptFramedCheckpointsAreRejected) {
  NoneCompressor none;
  std::vector<byte_t> good;
  {
    auto store = std::make_unique<MemoryStore>();
    auto* store_raw = store.get();
    CheckpointManager mgr(std::move(store), &none);
    mgr.set_streaming(small_frames());
    Vector x = smooth_vector(3000, 51);
    mgr.protect(0, "x", &x);
    mgr.checkpoint();
    good = store_raw->read(0);
  }

  const auto recover_with = [&none](std::vector<byte_t> blob) {
    auto store = std::make_unique<MemoryStore>();
    store->write(0, blob);
    CheckpointManager mgr(std::move(store), &none);
    Vector x(3000, 0.0);
    mgr.protect(0, "x", &x);
    mgr.recover();
  };

  EXPECT_NO_THROW(recover_with(good));

  auto bad = good;  // truncated tail
  bad.resize(bad.size() - 10);
  EXPECT_THROW(recover_with(bad), corrupt_stream_error);

  bad = good;  // flipped payload byte -> frame CRC mismatch
  bad[bad.size() / 2] ^= 0x20;
  EXPECT_THROW(recover_with(bad), corrupt_stream_error);

  bad = good;  // oversized comp_len in the first frame header
  std::memset(bad.data() + 11 + 5, 0xff, 4);
  EXPECT_THROW(recover_with(bad), corrupt_stream_error);

  bad = good;  // corrupt terminator (inside the final 13 zero bytes)
  bad[bad.size() - 3] ^= 0x40;
  EXPECT_THROW(recover_with(bad), corrupt_stream_error);

  bad.assign(4, 0);  // magic alone, then EOF
  std::memcpy(bad.data(), &kFrameStreamMagic, 4);
  EXPECT_THROW(recover_with(bad), corrupt_stream_error);
}

TEST(ManagerStreaming, StoreSinkSeesIncrementalWrites) {
  // The store-facing proof of the bounded-memory claim: the manager's
  // framed serializer must hand the stream to the store sink in many small
  // appends, never as one state-sized blob.
  class CountingSink final : public ByteSink {
   public:
    CountingSink(CheckpointStore& store, int version,
                 std::size_t& appends, std::size_t& max_append)
        : store_(store), version_(version), appends_(appends),
          max_append_(max_append) {}
    void append(std::span<const byte_t> bytes) override {
      ++appends_;
      max_append_ = std::max(max_append_, bytes.size());
      buf_.insert(buf_.end(), bytes.begin(), bytes.end());
    }
    void finish() override { store_.write_pending(version_, buf_); }

   private:
    CheckpointStore& store_;
    int version_;
    std::size_t& appends_;
    std::size_t& max_append_;
    std::vector<byte_t> buf_;
  };

  class CountingStore final : public CheckpointStore {
   public:
    void write(int v, std::span<const byte_t> d) override { inner_.write(v, d); }
    [[nodiscard]] std::vector<byte_t> read(int v) const override {
      return inner_.read(v);
    }
    [[nodiscard]] bool exists(int v) const override { return inner_.exists(v); }
    void remove(int v) override { inner_.remove(v); }
    [[nodiscard]] int latest_version() const override {
      return inner_.latest_version();
    }
    [[nodiscard]] std::unique_ptr<ByteSink> open_write_pending(
        int version) override {
      return std::make_unique<CountingSink>(*this, version, appends,
                                            max_append);
    }
    std::size_t appends = 0, max_append = 0;

   private:
    MemoryStore inner_;
  };

  NoneCompressor none;
  auto store = std::make_unique<CountingStore>();
  auto* store_raw = store.get();
  CheckpointManager mgr(std::move(store), &none);
  StreamingConfig cfg = small_frames("raw");
  mgr.set_streaming(cfg);
  Vector x = smooth_vector(std::size_t{1} << 17, 61);  // 1 MiB of state
  const Vector saved = x;
  mgr.protect(0, "x", &x);
  mgr.checkpoint();
  EXPECT_GE(store_raw->appends, 64u);
  EXPECT_LE(store_raw->max_append,
            std::max(cfg.wbuf_bytes, cfg.frame_bytes() + kFrameHeaderBytes));
  x.assign(x.size(), 0.0);
  mgr.recover();
  EXPECT_EQ(x, saved);
}

TEST(ManagerStreaming, DiskStoreStreamsToFileAndRecovers) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lckpt_frame_disk_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    NoneCompressor none;
    CheckpointManager mgr(std::make_unique<DiskStore>(dir.string()), &none);
    mgr.set_streaming(small_frames());
    Vector x = smooth_vector(std::size_t{1} << 16, 71);
    const Vector saved = x;
    mgr.protect(0, "x", &x);
    mgr.checkpoint();
    // The streaming sink's .tmp must be gone and the version committed.
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      const auto name = e.path().filename().string();
      EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
      EXPECT_EQ(name.find(".pending"), std::string::npos) << name;
    }
    x.assign(x.size(), 0.0);
    mgr.recover();
    EXPECT_EQ(x, saved);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lck
