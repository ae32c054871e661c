#include "compress/zfp/zfp_like.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/bit_io.hpp"
#include "common/byte_buffer.hpp"

namespace lck {
namespace {

constexpr std::uint32_t kMagic = 0x50465a31u;  // "1ZFP"
constexpr int kFracBits = 52;                  // fixed-point fraction bits
constexpr std::size_t kBlock = ZfpLikeCompressor::kBlockSize;

enum BlockType : unsigned { kZero = 0, kCoded = 1, kRaw = 2 };

using IBlock = std::array<std::int64_t, kBlock>;
using DBlock = std::array<double, kBlock>;

/// Forward two-level S-transform: (a,b,c,d) -> (ss, ds, d0, d1).
IBlock forward_lift(const IBlock& q) noexcept {
  const std::int64_t s0 = (q[0] + q[1]) >> 1, d0 = q[0] - q[1];
  const std::int64_t s1 = (q[2] + q[3]) >> 1, d1 = q[2] - q[3];
  const std::int64_t ss = (s0 + s1) >> 1, ds = s0 - s1;
  return {ss, ds, d0, d1};
}

// Two's-complement wrapping add/subtract. Equal to plain int64 arithmetic
// whenever that does not overflow (every block the encoder writes), and
// defined for the coefficients of a corrupt stream, which may overflow.
std::int64_t wrap_add(std::int64_t x, std::int64_t y) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) +
                                   static_cast<std::uint64_t>(y));
}

std::int64_t wrap_sub(std::int64_t x, std::int64_t y) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) -
                                   static_cast<std::uint64_t>(y));
}

/// Exact inverse of forward_lift.
IBlock inverse_lift(const IBlock& c) noexcept {
  const auto half = [](std::int64_t x) { return wrap_add(x, 1) >> 1; };
  const std::int64_t s0 = wrap_add(c[0], half(c[1]));
  const std::int64_t s1 = wrap_sub(s0, c[1]);
  const std::int64_t a = wrap_add(s0, half(c[2]));
  const std::int64_t b = wrap_sub(a, c[2]);
  const std::int64_t cc = wrap_add(s1, half(c[3]));
  const std::int64_t d = wrap_sub(cc, c[3]);
  return {a, b, cc, d};
}

// Negabinary (base −2) signed↔unsigned mapping, as in ZFP proper: unlike
// two's complement or zigzag, truncating the low k bits of a negabinary
// code perturbs the value by less than 2^(k+1), which is what makes
// bit-plane truncation error-bounded.
constexpr std::uint64_t kNbMask = 0xaaaaaaaaaaaaaaaaull;

std::uint64_t to_negabinary(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) + kNbMask) ^ kNbMask;
}

std::int64_t from_negabinary(std::uint64_t u) noexcept {
  return static_cast<std::int64_t>((u ^ kNbMask) - kNbMask);
}

/// Encode one block; returns the reconstructed values for verification.
/// `guard_shift` divides the error budget by 2^guard_shift: compression
/// first tries an aggressive plane cut and backs off only when the
/// verified reconstruction violates the bound.
DBlock encode_block(BitWriter& bw, const DBlock& x, double eb,
                    int guard_shift) {
  double amax = 0.0;
  for (const double v : x) amax = std::max(amax, std::fabs(v));
  if (amax == 0.0) {
    bw.write_bits(kZero, 2);
    return {0.0, 0.0, 0.0, 0.0};
  }

  int e = 0;
  (void)std::frexp(amax, &e);  // amax in [2^(e-1), 2^e)
  const double scale = std::ldexp(1.0, kFracBits - e);

  IBlock q{};
  for (std::size_t i = 0; i < kBlock; ++i)
    q[i] = static_cast<std::int64_t>(std::nearbyint(x[i] * scale));
  const IBlock coeffs = forward_lift(q);

  std::array<std::uint64_t, kBlock> u{};
  for (std::size_t i = 0; i < kBlock; ++i) u[i] = to_negabinary(coeffs[i]);

  int p_min = 0;
  if (eb > 0.0) {
    const double budget = std::ldexp(eb * scale, -guard_shift);
    if (budget >= 2.0) p_min = std::min(63, static_cast<int>(std::log2(budget)));
  }

  bw.write_bits(kCoded, 2);
  bw.write_bits(static_cast<std::uint64_t>(e + 1024), 12);  // biased exponent
  bw.write_bits(static_cast<std::uint64_t>(p_min), 6);
  // Per-coefficient embedded coding: 7-bit significant-plane count above
  // p_min, then that many magnitude bits. Smooth data makes the detail
  // coefficients (d0, d1, ds) tiny, so they cost a handful of bits while
  // the DC term carries the precision — the decorrelation payoff.
  for (std::size_t i = 0; i < kBlock; ++i) {
    const std::uint64_t sig = u[i] >> p_min;
    const int nplanes = sig == 0 ? 0 : 64 - std::countl_zero(sig);
    bw.write_bits(static_cast<std::uint64_t>(nplanes), 7);
    if (nplanes > 0) bw.write_bits(sig, static_cast<unsigned>(nplanes));
  }

  // Reconstruct exactly as the decoder will, for bound verification.
  const std::uint64_t keep_mask =
      p_min == 0 ? ~std::uint64_t{0} : (~std::uint64_t{0} << p_min);
  IBlock rec_coeffs{};
  for (std::size_t i = 0; i < kBlock; ++i)
    rec_coeffs[i] = from_negabinary(u[i] & keep_mask);
  const IBlock rq = inverse_lift(rec_coeffs);
  DBlock rec{};
  for (std::size_t i = 0; i < kBlock; ++i)
    rec[i] = static_cast<double>(rq[i]) / scale;
  return rec;
}

DBlock decode_block(BitReader& br) {
  const auto type = static_cast<unsigned>(br.read_bits(2));
  if (type == kZero) return {0.0, 0.0, 0.0, 0.0};
  if (type == kRaw) {
    DBlock x{};
    for (auto& v : x) {
      const std::uint64_t bits = br.read_bits(64);
      double d;
      static_assert(sizeof(d) == sizeof(bits));
      std::memcpy(&d, &bits, sizeof(d));
      v = d;
    }
    return x;
  }
  if (type != kCoded) throw corrupt_stream_error("zfp: bad block type");

  const int e = static_cast<int>(br.read_bits(12)) - 1024;
  const int p_min = static_cast<int>(br.read_bits(6));
  const double scale = std::ldexp(1.0, kFracBits - e);

  std::array<std::uint64_t, kBlock> u{};
  for (std::size_t i = 0; i < kBlock; ++i) {
    const int nplanes = static_cast<int>(br.read_bits(7));
    if (nplanes > 64) throw corrupt_stream_error("zfp: bad plane count");
    if (nplanes > 0)
      u[i] = br.read_bits(static_cast<unsigned>(nplanes)) << p_min;
  }

  IBlock coeffs{};
  for (std::size_t i = 0; i < kBlock; ++i) coeffs[i] = from_negabinary(u[i]);
  const IBlock q = inverse_lift(coeffs);
  DBlock x{};
  for (std::size_t i = 0; i < kBlock; ++i)
    x[i] = static_cast<double>(q[i]) / scale;
  return x;
}

void write_raw_block(BitWriter& bw, const DBlock& x) {
  bw.write_bits(kRaw, 2);
  for (const double v : x) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    bw.write_bits(bits, 64);
  }
}

}  // namespace

std::vector<byte_t> ZfpLikeCompressor::compress(
    std::span<const double> data) const {
  require(eb_.mode != ErrorBound::Mode::kPointwiseRelative,
          "zfp: wrap in PointwiseRelativeAdapter for pointwise-relative mode");
  const std::size_t n = data.size();

  double eb_abs = eb_.value;
  if (eb_.mode == ErrorBound::Mode::kValueRangeRelative) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const double x : data) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    // Degenerate range (constant or single-element data) means the bound
    // value·(max−min) is zero: eb_abs == 0 forces exact (raw) blocks via
    // the verify-and-fallback path below.
    const double range = n > 0 ? hi - lo : 0.0;
    eb_abs = eb_.value * range;
  }

  ByteWriter out(n + 64);
  out.put(kMagic);
  out.put(static_cast<std::uint64_t>(n));
  out.put(eb_abs);

  BitWriter bw;
  for (std::size_t base = 0; base < n; base += kBlock) {
    DBlock x{};
    const std::size_t count = std::min(kBlock, n - base);
    for (std::size_t i = 0; i < count; ++i) x[i] = data[base + i];
    for (std::size_t i = count; i < kBlock; ++i) x[i] = x[count - 1];

    bool finite = true;
    for (const double v : x)
      if (!std::isfinite(v)) finite = false;

    bool encoded = false;
    if (finite) {
      // Try progressively more conservative plane cuts; the first whose
      // verified reconstruction meets the bound wins. Most blocks pass the
      // aggressive first attempt, keeping the stream tight.
      for (const int guard_shift : {2, 4, 6}) {
        BitWriter trial;
        const DBlock rec = encode_block(trial, x, eb_abs, guard_shift);
        bool ok = true;
        for (std::size_t i = 0; i < kBlock; ++i)
          if (std::fabs(rec[i] - x[i]) > eb_abs) {
            ok = false;
            break;
          }
        if (ok) {
          encode_block(bw, x, eb_abs, guard_shift);
          encoded = true;
          break;
        }
      }
    }
    if (!encoded) write_raw_block(bw, x);
  }
  const auto payload = bw.finish();
  out.put(static_cast<std::uint64_t>(payload.size()));
  out.put_bytes(payload);
  return std::move(out).take();
}

void ZfpLikeCompressor::decompress(std::span<const byte_t> stream,
                                   std::span<double> out) const {
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic)
    throw corrupt_stream_error("zfp: bad magic");
  const auto n = in.get<std::uint64_t>();
  if (n != out.size()) throw corrupt_stream_error("zfp: output size mismatch");
  (void)in.get<double>();  // eb_abs (informational)
  const auto payload_size = in.get<std::uint64_t>();
  BitReader br(in.get_bytes(payload_size));

  for (std::size_t base = 0; base < n; base += kBlock) {
    const DBlock x = decode_block(br);
    const std::size_t count = std::min(kBlock, n - base);
    for (std::size_t i = 0; i < count; ++i) out[base + i] = x[i];
  }
}

}  // namespace lck
