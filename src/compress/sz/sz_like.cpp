#include "compress/sz/sz_like.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/bit_io.hpp"
#include "common/byte_buffer.hpp"
#include "compress/exact_array.hpp"
#include "compress/huffman.hpp"
#include "compress/lossless/byte_codecs.hpp"

namespace lck {
namespace {

// "2SZ1": v2 streams encode the pointwise-relative exact array compactly
// (nonzero bitset + nonzero values) instead of 8 B per exact element.
constexpr std::uint32_t kMagic = 0x315a5332u;
constexpr std::uint32_t kRadius = SzLikeCompressor::kQuantRadius;
constexpr std::uint32_t kAlphabet = 2 * kRadius;  // code 0 = unpredictable

/// Adaptive 3-predictor bank over the reconstructed history. Encoder and
/// decoder both run this deterministically.
///
/// Each element needs the three predictor outputs twice — once to pick the
/// currently-best prediction and once for the hindsight rank update — so
/// candidates() evaluates them a single time per element and both select()
/// and push() consume the cached values. Same expressions at the same
/// history state as the old predict()/push() pair, so streams are
/// byte-identical while the per-element bank arithmetic is halved.
class PredictorBank {
 public:
  /// The three predictor outputs at the current history state
  /// (h1=x'_{i-1}, h2=x'_{i-2}, h3=x'_{i-3}; zeros until warm).
  struct Candidates {
    double p0, p1, p2;
  };

  [[nodiscard]] Candidates candidates() const noexcept {
    return {h1_,                          // constant (Lorenzo-1D)
            2.0 * h1_ - h2_,              // linear extrapolation
            3.0 * h1_ - 3.0 * h2_ + h3_}; // quadratic extrapolation
  }

  /// Prediction for the next point: the candidate ranked best so far.
  [[nodiscard]] double select(const Candidates& c) const noexcept {
    switch (best_) {
      case 1: return c.p1;
      case 2: return c.p2;
      default: return c.p0;
    }
  }

  /// After reconstructing x', update history and re-rank predictors by
  /// their error on this point (hindsight adaptation, no side info).
  /// `c` must be candidates() sampled before this push.
  void push(double reconstructed, const Candidates& c) noexcept {
    const double e0 = std::fabs(reconstructed - c.p0);
    const double e1 = std::fabs(reconstructed - c.p1);
    const double e2 = std::fabs(reconstructed - c.p2);
    best_ = 0;
    double be = e0;
    if (e1 < be) { best_ = 1; be = e1; }
    if (e2 < be) { best_ = 2; }
    h3_ = h2_;
    h2_ = h1_;
    h1_ = reconstructed;
  }

 private:
  double h1_ = 0.0, h2_ = 0.0, h3_ = 0.0;
  int best_ = 0;
};

/// Elements per encode block: the codes slice, outlier scratch, and bank
/// state stay L1/L2-resident while the inner loop runs branch-light.
constexpr std::size_t kSzBlock = 4096;

/// Core absolute-error-bounded compressor for a raw double sequence.
/// Appends to `out`: quantizer params, Huffman table, outliers, payload.
void core_compress(ByteWriter& out, std::span<const double> data, double eb) {
  const std::size_t n = data.size();
  std::vector<std::uint32_t> codes(n);
  std::vector<double> outliers;
  std::vector<double> block_outliers;
  block_outliers.reserve(kSzBlock);
  PredictorBank bank;

  const double inv_step = eb > 0.0 ? 1.0 / (2.0 * eb) : 0.0;
  // 2·eb·q associates left-to-right, so hoisting (2.0·eb) out of the loop is
  // the identical computation.
  const double two_eb = 2.0 * eb;
  // Blocked two-phase encode: the tight quantize loop fills a block's worth
  // of codes plus a small outlier scratch, then outliers merge into the
  // global array once per block (no per-element push_back growth checks on
  // the large vector).
  for (std::size_t b0 = 0; b0 < n; b0 += kSzBlock) {
    const std::size_t b1 = std::min(n, b0 + kSzBlock);
    block_outliers.clear();
    for (std::size_t i = b0; i < b1; ++i) {
      const double x = data[i];
      const auto cand = bank.candidates();
      const double pred = bank.select(cand);
      // eb == 0 still enters the predicted path: inv_step is then 0, so the
      // candidate is the prediction itself and the |candidate − x| ≤ 0 check
      // admits it only when the predictor is exact (e.g. constant data).
      if (std::isfinite(pred)) {
        const double q = std::nearbyint((x - pred) * inv_step);
        if (std::fabs(q) < static_cast<double>(kRadius)) {
          const double candidate = pred + two_eb * q;
          if (std::fabs(candidate - x) <= eb) {
            codes[i] = static_cast<std::uint32_t>(
                static_cast<std::int64_t>(q) + static_cast<std::int64_t>(kRadius));
            bank.push(candidate, cand);
            continue;
          }
        }
      }
      // Unpredictable: store verbatim (exact).
      codes[i] = 0;
      block_outliers.push_back(x);
      bank.push(x, cand);
    }
    outliers.insert(outliers.end(), block_outliers.begin(),
                    block_outliers.end());
  }

  // Code the window {0} ∪ [lo, hi] of the alphabet the codes fall in, so
  // the Huffman setup is sized to the chunk's band (see huffman.hpp): code
  // c ≥ lo becomes window index c − lo + 1, and 0 stays 0.
  std::uint32_t shift = kAlphabet;  // lo − 1; c − 1 wraps for c = 0
  std::uint32_t hi = 0;
  for (const auto c : codes) {
    shift = std::min(shift, c - 1);
    hi = std::max(hi, c);
  }
  if (hi == 0) shift = 0;  // outliers only: the window is {0}
  for (auto& c : codes) c -= c == 0 ? 0 : shift;
  const auto freq = count_frequencies(codes, hi - shift + 1);
  const auto lengths = huffman_code_lengths(freq);
  const HuffmanEncoder enc(lengths);

  out.put(eb);
  out.put(static_cast<std::uint64_t>(n));
  out.put(kRadius);
  write_code_lengths(out, lengths, kAlphabet, shift + 1);
  out.put(static_cast<std::uint64_t>(outliers.size()));
  out.put_array(outliers.data(), outliers.size());

  BitWriter bw;
  for (const auto c : codes) enc.encode(bw, c);
  const auto payload = bw.finish();
  out.put(static_cast<std::uint64_t>(payload.size()));
  out.put_bytes(payload);
}

/// Inverse of core_compress. Returns exactly `expect_n` doubles.
std::vector<double> core_decompress(ByteReader& in, std::size_t expect_n) {
  const auto eb = in.get<double>();
  const auto n = in.get<std::uint64_t>();
  const auto radius = in.get<std::uint32_t>();
  if (n != expect_n) throw corrupt_stream_error("sz: element count mismatch");
  if (radius != kRadius) throw corrupt_stream_error("sz: radius mismatch");

  const auto table = read_code_lengths(in, kAlphabet);
  const HuffmanDecoder dec(table.lengths, table.first);
  const auto outlier_count = in.get<std::uint64_t>();
  // Check before sizing the buffer: a corrupt count must not reach the
  // allocator (std::bad_alloc is not a corrupt_stream_error).
  if (outlier_count > n || outlier_count > in.remaining() / sizeof(double))
    throw corrupt_stream_error("sz: implausible outlier count");
  std::vector<double> outliers(outlier_count);
  in.get_array(outliers.data(), outlier_count);
  const auto payload_size = in.get<std::uint64_t>();
  BitReader br(in.get_bytes(payload_size));

  std::vector<double> out(n);
  PredictorBank bank;
  std::size_t next_outlier = 0;
  const double two_eb = 2.0 * eb;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t code = dec.decode(br);
    const auto cand = bank.candidates();
    double x;
    if (code == 0) {
      if (next_outlier >= outliers.size())
        throw corrupt_stream_error("sz: outlier stream exhausted");
      x = outliers[next_outlier++];
    } else {
      const double q = static_cast<double>(static_cast<std::int64_t>(code) -
                                           static_cast<std::int64_t>(radius));
      x = bank.select(cand) + two_eb * q;
    }
    out[i] = x;
    bank.push(x, cand);
  }
  if (next_outlier != outliers.size())
    throw corrupt_stream_error("sz: unused outliers");
  return out;
}

}  // namespace

std::vector<byte_t> SzLikeCompressor::compress(
    std::span<const double> data) const {
  const std::size_t n = data.size();
  ByteWriter out(n / 2 + 64);
  out.put(kMagic);
  out.put(static_cast<std::uint64_t>(n));
  out.put(static_cast<std::uint8_t>(eb_.mode));
  out.put(eb_.value);

  switch (eb_.mode) {
    case ErrorBound::Mode::kAbsolute: {
      core_compress(out, data, eb_.value);
      break;
    }
    case ErrorBound::Mode::kValueRangeRelative: {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (const double x : data) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
      // Degenerate range (constant or single-element data) means the bound
      // value·(max−min) is zero: store exactly (core handles eb == 0).
      const double range = n > 0 ? hi - lo : 0.0;
      const double eb_abs = eb_.value * range;
      core_compress(out, data, eb_abs);
      break;
    }
    case ErrorBound::Mode::kPointwiseRelative: {
      // Log-transform: compress log2|x| with absolute bound log2(1+eb).
      // Zeros and non-finite values are recorded exactly via bitmaps.
      std::vector<bool> zero_mask(n), sign_mask(n);
      std::vector<double> logs;
      logs.reserve(n);
      // eb == 0 means lossless; the log/exp round trip is not bit-exact, so
      // route every element through the verbatim path in that case.
      const bool exact_only = eb_.value <= 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double x = data[i];
        const bool is_zero = exact_only || x == 0.0 || !std::isfinite(x) ||
                             std::fabs(x) < std::numeric_limits<double>::min();
        zero_mask[i] = is_zero;
        sign_mask[i] = std::signbit(x);
        if (!is_zero) logs.push_back(std::log2(std::fabs(x)));
      }
      write_rle_bitset(out, zero_mask);
      write_rle_bitset(out, sign_mask);
      // Compact exact array (see exact_array.hpp): zeros cost ~0 bits, so
      // sparse fields stop bottoming out at ratio ≈ 1.
      write_exact_array(out, data, zero_mask);

      // 0.999 safety factor absorbs the log2/exp2 rounding so the pointwise
      // bound |x−x'| ≤ eb·|x| holds exactly (verified by property tests).
      const double log_eb = std::log2(1.0 + 0.999 * eb_.value);
      out.put(static_cast<std::uint64_t>(logs.size()));
      core_compress(out, logs, log_eb);
      break;
    }
  }
  return std::move(out).take();
}

void SzLikeCompressor::decompress(std::span<const byte_t> stream,
                                  std::span<double> out) const {
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic)
    throw corrupt_stream_error("sz: bad magic");
  const auto n = in.get<std::uint64_t>();
  if (n != out.size()) throw corrupt_stream_error("sz: output size mismatch");
  const auto mode = static_cast<ErrorBound::Mode>(in.get<std::uint8_t>());
  (void)in.get<double>();  // eb value (informational)

  switch (mode) {
    case ErrorBound::Mode::kAbsolute:
    case ErrorBound::Mode::kValueRangeRelative: {
      const auto vals = core_decompress(in, n);
      std::copy(vals.begin(), vals.end(), out.begin());
      break;
    }
    case ErrorBound::Mode::kPointwiseRelative: {
      const auto zero_mask = read_rle_bitset(in, n);
      const auto sign_mask = read_rle_bitset(in, n);
      std::size_t exact_entries = 0;
      for (std::size_t i = 0; i < n; ++i)
        if (zero_mask[i]) ++exact_entries;
      ExactArrayReader exact(in, exact_entries);
      const auto log_count = in.get<std::uint64_t>();
      if (log_count > n)
        throw corrupt_stream_error("sz: implausible log count");
      const auto logs = core_decompress(in, log_count);

      std::size_t li = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (zero_mask[i]) {
          out[i] = exact.next(sign_mask[i]);
        } else {
          if (li >= logs.size())
            throw corrupt_stream_error("sz: log stream exhausted");
          const double mag = std::exp2(logs[li++]);
          out[i] = sign_mask[i] ? -mag : mag;
        }
      }
      break;
    }
    default:
      throw corrupt_stream_error("sz: unknown error-bound mode");
  }
}

}  // namespace lck
