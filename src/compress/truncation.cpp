#include "compress/truncation.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/byte_buffer.hpp"
#include "compress/lossless/byte_codecs.hpp"
#include "compress/lossless/deflate_like.hpp"

namespace lck {
namespace {

constexpr std::uint32_t kMagic = 0x434e5254u;  // "TRNC"

/// Round `x` so that the result differs from x by at most eb, clearing as
/// many low mantissa bits as the bound allows (round-to-nearest via the
/// classic add-half-then-mask on the bit pattern).
double groom(double x, double eb) {
  if (!std::isfinite(x) || eb <= 0.0) return x;
  // Exponent of x: ulp(x) = 2^(e-52) with |x| in [2^e, 2^(e+1)).
  int e = 0;
  std::frexp(x, &e);  // |x| in [2^(e-1), 2^e)
  // Keep bits down to weight 2·eb: bits to clear = floor(log2(2eb / ulp)).
  const double ulp = std::ldexp(1.0, e - 53);
  if (ulp >= eb) return x;  // bound tighter than representable: keep all
  int clear_bits = static_cast<int>(std::log2(eb / ulp));
  clear_bits = std::min(clear_bits, 52);
  if (clear_bits <= 0) return x;

  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const std::uint64_t half = 1ull << (clear_bits - 1);
  const std::uint64_t mask = ~((1ull << clear_bits) - 1);
  // Round to nearest; saturating add cannot overflow into the sign bit for
  // finite x below the max exponent, and we verify the bound afterwards.
  const std::uint64_t rounded = (bits + half) & mask;
  double y;
  std::memcpy(&y, &rounded, sizeof(y));
  if (!std::isfinite(y) || std::fabs(y - x) > eb) return x;  // safe fallback
  return y;
}

/// clear_bits in groom() depends on x only through its biased exponent (the
/// frexp/ldexp/log2 chain), so for a fixed eb all 2046 normal exponents can
/// be resolved once into a table and the hot loop reduces to an exponent
/// extraction + add-half-then-mask. Entries are computed with the exact
/// scalar formulas above (including log2's boundary rounding), so
/// groom_fast() is bit-identical to groom(); zero/denormal (biased 0) and
/// inf/nan (biased 0x7ff) fall back to the scalar path.
struct GroomTable {
  // half[b] == 0 means "keep x unchanged" for that biased exponent.
  std::uint64_t half[2048];
  std::uint64_t mask[2048];

  explicit GroomTable(double eb) {
    half[0] = half[2047] = 0;
    mask[0] = mask[2047] = ~0ull;
    for (int b = 1; b <= 2046; ++b) {
      // A sample value with biased exponent b; frexp(x) then yields
      // e = b − 1022, identical to the scalar path for every x in the bin.
      const int e = b - 1022;
      half[b] = 0;
      mask[b] = ~0ull;
      const double ulp = std::ldexp(1.0, e - 53);
      if (ulp >= eb) continue;
      int clear_bits = static_cast<int>(std::log2(eb / ulp));
      clear_bits = std::min(clear_bits, 52);
      if (clear_bits <= 0) continue;
      half[b] = 1ull << (clear_bits - 1);
      mask[b] = ~((1ull << clear_bits) - 1);
    }
  }

  [[nodiscard]] double groom_fast(double x, double eb) const {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    const auto b = static_cast<std::size_t>((bits >> 52) & 0x7ff);
    if (b == 0 || b == 2047) return groom(x, eb);  // zero/denormal, inf/nan
    const std::uint64_t h = half[b];
    if (h == 0) return x;
    const std::uint64_t rounded = (bits + h) & mask[b];
    double y;
    std::memcpy(&y, &rounded, sizeof(y));
    if (!std::isfinite(y) || std::fabs(y - x) > eb) return x;  // safe fallback
    return y;
  }
};

}  // namespace

std::vector<byte_t> TruncationCompressor::compress(
    std::span<const double> data) const {
  require(eb_.mode != ErrorBound::Mode::kPointwiseRelative,
          "trunc: wrap in PointwiseRelativeAdapter for pointwise-relative");
  double eb_abs = eb_.value;
  if (eb_.mode == ErrorBound::Mode::kValueRangeRelative) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const double x : data) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    // Degenerate range (constant or single-element data) means the bound
    // value·(max−min) is zero: groom() keeps values exact when eb == 0.
    const double range = data.empty() ? 0.0 : hi - lo;
    eb_abs = eb_.value * range;
  }

  std::vector<double> groomed(data.size());
  if (eb_abs <= 0.0) {
    // groom() is the identity for non-positive bounds: copy verbatim.
    std::copy(data.begin(), data.end(), groomed.begin());
  } else {
    const GroomTable table(eb_abs);
    for (std::size_t i = 0; i < data.size(); ++i)
      groomed[i] = table.groom_fast(data[i], eb_abs);
  }

  const auto shuffled = shuffle_bytes(
      {reinterpret_cast<const byte_t*>(groomed.data()),
       groomed.size() * sizeof(double)},
      sizeof(double));
  const auto packed = deflate_compress(shuffled);

  ByteWriter out;
  out.put(kMagic);
  out.put(static_cast<std::uint64_t>(data.size()));
  out.put(eb_abs);
  out.put(static_cast<std::uint64_t>(packed.size()));
  out.put_bytes(packed);
  return std::move(out).take();
}

void TruncationCompressor::decompress(std::span<const byte_t> stream,
                                      std::span<double> out) const {
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic)
    throw corrupt_stream_error("trunc: bad magic");
  const auto n = in.get<std::uint64_t>();
  if (n != out.size()) throw corrupt_stream_error("trunc: size mismatch");
  (void)in.get<double>();
  const auto packed_size = in.get<std::uint64_t>();
  std::vector<byte_t> shuffled(n * sizeof(double));
  deflate_decompress(in.get_bytes(packed_size), shuffled);
  const auto bytes = unshuffle_bytes(shuffled, sizeof(double));
  if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
}

}  // namespace lck
