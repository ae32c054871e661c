#pragma once
/// \file sz_like.hpp
/// \brief SZ-style prediction-based error-bounded lossy compressor
///        (stand-in for SZ 1.4 used by the paper).
///
/// Pipeline (per SZ's design):
///  1. Prediction — adaptive best-of-three curve-fitting predictor
///     (constant / linear / quadratic extrapolation from the *reconstructed*
///     history, so encoder and decoder stay in lock-step without side
///     information: each point uses the predictor that performed best on the
///     previous point).
///  2. Error-bounded linear quantization of the prediction residual into
///     2·radius bins (code 0 reserved for unpredictable points, which are
///     stored verbatim).
///  3. Canonical Huffman coding of the quantization codes. The coder is set
///     up over {0} ∪ [lo, hi], the outlier code plus the band of codes the
///     input produced, not over all 2·radius codes, so a 4,096-element
///     delta chunk pays for the band it spans (a few thousand codes for
///     solver vectors under a pointwise-relative bound). The stream still
///     carries the code lengths of all 65,536 codes, and every byte equals
///     that of a full-alphabet setup (see huffman.hpp for why).
///
/// Error-bound modes (ErrorBound::Mode):
///  - kAbsolute: |x−x'| ≤ eb directly on the quantizer.
///  - kValueRangeRelative: eb_abs = eb·(max−min), then as absolute.
///  - kPointwiseRelative: the paper's §4.4 definition |x_i−x'_i| ≤ eb·|x_i|,
///    implemented by compressing log₂|x_i| with an absolute bound
///    log₂(1+eb) plus exact sign/zero bitmaps.

#include "compress/compressor.hpp"

namespace lck {

class SzLikeCompressor final : public LossyCompressor {
 public:
  explicit SzLikeCompressor(ErrorBound eb = ErrorBound::pointwise_rel(1e-4))
      : LossyCompressor(eb) {}

  [[nodiscard]] std::string name() const override { return "sz"; }

  [[nodiscard]] std::vector<byte_t> compress(
      std::span<const double> data) const override;

  void decompress(std::span<const byte_t> stream,
                  std::span<double> out) const override;

  /// Quantization radius (bins on each side of the prediction). 32768
  /// matches SZ 1.4's default 65536 intervals.
  static constexpr std::uint32_t kQuantRadius = 32768;
};

}  // namespace lck
