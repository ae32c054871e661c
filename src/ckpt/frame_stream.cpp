#include "ckpt/frame_stream.hpp"

#include <algorithm>
#include <cstring>

#include "common/crc32.hpp"
#include "compress/lossless/deflate_like.hpp"
#include "compress/lossless/lz4_like.hpp"
#include "obs/metrics.hpp"

namespace lck {
namespace {

constexpr std::size_t kMinFrameElems = 512;            // 4 KiB raw frames
constexpr std::size_t kMaxFrameElems = kMaxFrameRawBytes / sizeof(double);
constexpr std::size_t kMinWbufBytes = 4096;
constexpr std::size_t kMaxWbufBytes = std::size_t{1} << 30;

void store_u32(byte_t* p, std::uint32_t v) noexcept {
  std::memcpy(p, &v, sizeof(v));
}

std::uint32_t load_u32(const byte_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

FrameStyle frame_style_from_name(const std::string& name) {
  if (name == "raw") return FrameStyle::kRaw;
  if (name == "lz4") return FrameStyle::kLz4;
  if (name == "deflate") return FrameStyle::kDeflate;
  throw config_error("unknown frame style '" + name +
                     "' (expected raw, lz4, or deflate)");
}

const char* frame_style_name(FrameStyle style) noexcept {
  switch (style) {
    case FrameStyle::kRaw: return "raw";
    case FrameStyle::kLz4: return "lz4";
    case FrameStyle::kDeflate: return "deflate";
  }
  return "?";
}

void StreamingConfig::validate() const {
  std::string errors;
  const auto violation = [&errors](const std::string& msg) {
    errors += errors.empty() ? "" : "; ";
    errors += msg;
  };
  if (frame_elems < kMinFrameElems || frame_elems > kMaxFrameElems)
    violation("streaming.frame_elems must be in [" +
              std::to_string(kMinFrameElems) + ", " +
              std::to_string(kMaxFrameElems) + "], got " +
              std::to_string(frame_elems));
  if (wbuf_bytes < kMinWbufBytes || wbuf_bytes > kMaxWbufBytes)
    violation("streaming.wbuf_bytes must be in [" +
              std::to_string(kMinWbufBytes) + ", " +
              std::to_string(kMaxWbufBytes) + "], got " +
              std::to_string(wbuf_bytes));
  if (style != "raw" && style != "lz4" && style != "deflate")
    violation("streaming.style must be raw, lz4, or deflate, got '" + style +
              "'");
  if (!errors.empty()) throw config_error("bad streaming config: " + errors);
}

FrameWriter::FrameWriter(ByteSink& sink, const StreamingConfig& cfg,
                         obs::Sink obs)
    : sink_(sink),
      style_(frame_style_from_name(cfg.style)),
      frame_bytes_(cfg.frame_bytes()),
      wbuf_limit_(cfg.wbuf_bytes),
      obs_(obs) {
  cfg.validate();
  raw_.reserve(frame_bytes_);
  wbuf_.reserve(wbuf_limit_);
  byte_t header[4 + 2 + 1 + 4];
  store_u32(header, kFrameStreamMagic);
  std::memcpy(header + 4, &kFrameStreamVersion, 2);
  header[6] = static_cast<byte_t>(style_);
  store_u32(header + 7, static_cast<std::uint32_t>(frame_bytes_));
  emit(header);
}

void FrameWriter::put_string(const std::string& s) {
  require(s.size() <= kMaxStreamStringBytes, "frame stream: string too long");
  put(static_cast<std::uint32_t>(s.size()));
  put_bytes({reinterpret_cast<const byte_t*>(s.data()), s.size()});
}

void FrameWriter::put_bytes(std::span<const byte_t> bytes) {
  require(!finished_, "frame stream: put after finish");
  while (!bytes.empty()) {
    const std::size_t space = frame_bytes_ - raw_.size();
    const std::size_t n = std::min(space, bytes.size());
    raw_.insert(raw_.end(), bytes.begin(), bytes.begin() + n);
    bytes = bytes.subspan(n);
    if (raw_.size() == frame_bytes_) flush_frame();
  }
}

void FrameWriter::flush_frame() {
  if (raw_.empty()) return;
  std::span<const byte_t> payload = raw_;
  FrameStyle style = style_;
  if (style_ == FrameStyle::kLz4) {
    comp_.resize(lz4_compress_bound(raw_.size()));
    comp_.resize(lz4_compress_into(raw_, comp_));
    payload = comp_;
  } else if (style_ == FrameStyle::kDeflate) {
    comp_ = deflate_compress(raw_);
    payload = comp_;
  }
  // Raw fallback whenever compression does not strictly win; the reader
  // relies on comp_len < raw_len holding for compressed frames.
  if (payload.size() >= raw_.size()) {
    payload = raw_;
    style = FrameStyle::kRaw;
  }
  byte_t header[kFrameHeaderBytes];
  header[0] = static_cast<byte_t>(style);
  store_u32(header + 1, static_cast<std::uint32_t>(raw_.size()));
  store_u32(header + 5, static_cast<std::uint32_t>(payload.size()));
  store_u32(header + 9, crc32(payload));
  // The frame's raw bytes, its compressed image, and the pending write
  // buffer all coexist right now — this is the writer's high-water mark.
  peak_ = std::max(peak_, raw_.size() + comp_.size() + wbuf_.size() +
                              kFrameHeaderBytes);
  emit(header);
  emit(payload);
  if (obs_.metrics != nullptr) {
    obs_.metrics->add("frame.frames", 1.0,
                      {{"style", frame_style_name(style)}});
    obs_.metrics->observe("frame.stored_bytes",
                          static_cast<double>(payload.size()));
    obs_.metrics->observe("frame.comp_ratio",
                          static_cast<double>(raw_.size()) /
                              static_cast<double>(payload.size()));
  }
  raw_.clear();
  comp_.clear();
}

void FrameWriter::emit(std::span<const byte_t> bytes) {
  total_ += bytes.size();
  if (wbuf_.size() + bytes.size() > wbuf_limit_) flush_wbuf();
  if (bytes.size() >= wbuf_limit_) {
    sink_.append(bytes);  // oversized: hand straight to the sink
    return;
  }
  wbuf_.insert(wbuf_.end(), bytes.begin(), bytes.end());
}

void FrameWriter::flush_wbuf() {
  if (wbuf_.empty()) return;
  sink_.append(wbuf_);
  wbuf_.clear();
}

void FrameWriter::finish() {
  require(!finished_, "frame stream: finish called twice");
  flush_frame();
  const byte_t terminator[kFrameHeaderBytes] = {};
  emit(terminator);
  flush_wbuf();
  finished_ = true;
}

FrameReader::FrameReader(ByteSource& src, bool magic_already_consumed)
    : src_(src) {
  if (!magic_already_consumed) {
    byte_t magic[4];
    read_exact(magic, "stream magic");
    if (load_u32(magic) != kFrameStreamMagic)
      throw corrupt_stream_error("frame stream: bad magic");
  }
  byte_t header[2 + 1 + 4];
  read_exact(header, "stream header");
  std::uint16_t version;
  std::memcpy(&version, header, 2);
  if (version != kFrameStreamVersion)
    throw corrupt_stream_error("frame stream: unsupported version " +
                               std::to_string(version));
  const auto style = static_cast<FrameStyle>(header[2]);
  if (style != FrameStyle::kRaw && style != FrameStyle::kLz4 &&
      style != FrameStyle::kDeflate)
    throw corrupt_stream_error("frame stream: unknown stream style");
  frame_raw_max_ = load_u32(header + 3);
  if (frame_raw_max_ == 0 || frame_raw_max_ > kMaxFrameRawBytes)
    throw corrupt_stream_error("frame stream: implausible frame size");
}

void FrameReader::read_exact(std::span<byte_t> dst, const char* what) {
  const std::size_t got = read_fully(src_, dst);
  total_ += got;
  if (got != dst.size())
    throw corrupt_stream_error(std::string("frame stream: truncated ") + what);
}

void FrameReader::next_frame() {
  if (at_end_)
    throw corrupt_stream_error("frame stream: read past end of stream");
  byte_t header[kFrameHeaderBytes];
  read_exact(header, "frame header");
  const auto style = static_cast<FrameStyle>(header[0]);
  const std::uint32_t raw_len = load_u32(header + 1);
  const std::uint32_t comp_len = load_u32(header + 5);
  const std::uint32_t crc = load_u32(header + 9);
  if (header[0] == 0) {
    // Terminator frame: must be all-zero, anything else is corruption.
    if (raw_len != 0 || comp_len != 0 || crc != 0)
      throw corrupt_stream_error("frame stream: corrupt terminator frame");
    at_end_ = true;
    return;
  }
  if (style != FrameStyle::kRaw && style != FrameStyle::kLz4 &&
      style != FrameStyle::kDeflate)
    throw corrupt_stream_error("frame stream: unknown frame style");
  if (raw_len == 0 || raw_len > frame_raw_max_)
    throw corrupt_stream_error("frame stream: implausible raw_len");
  // The writer falls back to raw whenever compression does not win, so
  // comp_len == raw_len for raw frames and comp_len < raw_len otherwise.
  if (style == FrameStyle::kRaw ? comp_len != raw_len : comp_len >= raw_len)
    throw corrupt_stream_error("frame stream: implausible comp_len");
  comp_.resize(comp_len);
  read_exact(comp_, "frame payload");
  if (crc32(comp_) != crc)
    throw corrupt_stream_error("frame stream: frame CRC mismatch");
  switch (style) {
    case FrameStyle::kRaw:
      raw_.assign(comp_.begin(), comp_.end());
      break;
    case FrameStyle::kLz4:
      raw_.resize(raw_len);
      lz4_decompress_into(comp_, raw_);
      break;
    case FrameStyle::kDeflate:
      raw_.resize(raw_len);
      deflate_decompress(comp_, raw_);
      break;
  }
  rpos_ = 0;
}

void FrameReader::read_into(std::span<byte_t> out) {
  while (!out.empty()) {
    if (rpos_ == raw_.size()) next_frame();
    const std::size_t n = std::min(out.size(), raw_.size() - rpos_);
    std::memcpy(out.data(), raw_.data() + rpos_, n);
    rpos_ += n;
    out = out.subspan(n);
  }
}

std::string FrameReader::get_string() {
  const auto n = get<std::uint32_t>();
  if (n > kMaxStreamStringBytes)
    throw corrupt_stream_error("frame stream: implausible string length");
  std::string s(n, '\0');
  read_into({reinterpret_cast<byte_t*>(s.data()), s.size()});
  return s;
}

void FrameReader::expect_end() {
  if (rpos_ != raw_.size())
    throw corrupt_stream_error("frame stream: trailing bytes in frame");
  if (!at_end_) {
    next_frame();
    if (!at_end_)
      throw corrupt_stream_error(
          "frame stream: expected terminator, found another frame");
  }
  byte_t probe;
  if (src_.read_some({&probe, 1}) != 0)
    throw corrupt_stream_error("frame stream: trailing bytes after terminator");
}

}  // namespace lck
