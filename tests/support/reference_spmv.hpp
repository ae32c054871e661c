#pragma once
/// \file reference_spmv.hpp
/// \brief Plain one-row-per-task reference SpMV and residual, pinned to the
///        scalar row kernel. Tests and benches compare CsrMatrix's blocked,
///        dispatched kernels against them bit-for-bit — with SIMD dispatch
///        live, that doubles as a cross-ISA parity check.

#include <span>

#include "parallel/parallel_for.hpp"
#include "sparse/csr.hpp"
#include "sparse/spmv_simd.hpp"

namespace lck {

/// y := A·x, one row per task.
inline void multiply_rowwise(const CsrMatrix& a, std::span<const double> x,
                             std::span<double> y) {
  require(static_cast<index_t>(x.size()) == a.cols(), "spmv: x size mismatch");
  require(static_cast<index_t>(y.size()) == a.rows(), "spmv: y size mismatch");
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  parallel_for(0, a.rows(), [&](index_t r) {
    const index_t k0 = row_ptr[r];
    y[r] = spmv::row_dot_scalar(col_idx.data() + k0, values.data() + k0,
                                row_ptr[r + 1] - k0, x.data());
  });
}

/// y := b − A·x, one row per task; pairs multiply_rowwise().
inline void residual_rowwise(const CsrMatrix& a, std::span<const double> b,
                             std::span<const double> x, std::span<double> y) {
  require(static_cast<index_t>(b.size()) == a.rows(),
          "residual: b size mismatch");
  require(static_cast<index_t>(x.size()) == a.cols(),
          "residual: x size mismatch");
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  parallel_for(0, a.rows(), [&](index_t r) {
    const index_t k0 = row_ptr[r];
    y[r] = b[r] - spmv::row_dot_scalar(col_idx.data() + k0,
                                       values.data() + k0,
                                       row_ptr[r + 1] - k0, x.data());
  });
}

}  // namespace lck
