#include "compress/pwrel_adapter.hpp"

#include <cmath>
#include <limits>

#include "common/byte_buffer.hpp"
#include "compress/exact_array.hpp"

namespace lck {
namespace {

// "PRL2": v2 streams encode the exact array compactly (nonzero bitset +
// nonzero values) so sparse fields are not pinned at ratio ≈ 1 by zeros.
constexpr std::uint32_t kMagic = 0x324c5250u;

}  // namespace

void PointwiseRelativeAdapter::set_error_bound(ErrorBound eb) {
  LossyCompressor::set_error_bound(eb);
  inner_->set_error_bound(
      ErrorBound::absolute(std::log2(1.0 + 0.999 * eb.value)));
}

std::vector<byte_t> PointwiseRelativeAdapter::compress(
    std::span<const double> data) const {
  const std::size_t n = data.size();
  const double eb = eb_.value;
  const bool exact_only = eb <= 0.0;

  std::vector<bool> exact_mask(n), sign_mask(n);
  std::vector<double> logs;
  logs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = data[i];
    const bool is_exact = exact_only || x == 0.0 || !std::isfinite(x) ||
                          std::fabs(x) < std::numeric_limits<double>::min();
    exact_mask[i] = is_exact;
    sign_mask[i] = std::signbit(x);
    if (!is_exact) logs.push_back(std::log2(std::fabs(x)));
  }

  const auto inner_stream = inner_->compress(logs);

  ByteWriter out;
  out.put(kMagic);
  out.put(static_cast<std::uint64_t>(n));
  out.put(eb);
  write_rle_bitset(out, exact_mask);
  write_rle_bitset(out, sign_mask);
  // Compact exact array (see exact_array.hpp): zeros cost ~0 bits, so
  // sparse fields stop bottoming out at ratio ≈ 1.
  write_exact_array(out, data, exact_mask);
  out.put(static_cast<std::uint64_t>(logs.size()));
  out.put(static_cast<std::uint64_t>(inner_stream.size()));
  out.put_bytes(inner_stream);
  return std::move(out).take();
}

void PointwiseRelativeAdapter::decompress(std::span<const byte_t> stream,
                                          std::span<double> out) const {
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic)
    throw corrupt_stream_error("pwrel: bad magic");
  const auto n = in.get<std::uint64_t>();
  if (n != out.size()) throw corrupt_stream_error("pwrel: size mismatch");
  (void)in.get<double>();  // eb (informational)

  const auto exact_mask = read_rle_bitset(in, n);
  const auto sign_mask = read_rle_bitset(in, n);
  std::size_t exact_entries = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (exact_mask[i]) ++exact_entries;
  ExactArrayReader exact(in, exact_entries);
  const auto log_count = in.get<std::uint64_t>();
  const auto inner_size = in.get<std::uint64_t>();
  if (log_count > n) throw corrupt_stream_error("pwrel: implausible log count");
  std::vector<double> logs(log_count);
  inner_->decompress(in.get_bytes(inner_size), logs);

  std::size_t li = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (exact_mask[i]) {
      out[i] = exact.next(sign_mask[i]);
    } else {
      if (li >= logs.size())
        throw corrupt_stream_error("pwrel: log stream exhausted");
      const double mag = std::exp2(logs[li++]);
      out[i] = sign_mask[i] ? -mag : mag;
    }
  }
}

}  // namespace lck
