#pragma once
/// \file spmv_simd.hpp
/// \brief Runtime-dispatched CSR SpMV drivers built on the simd kernel
///        engine (common/simd.hpp): blocked multiply/residual under
///        CsrMatrix's nnz-balanced row plan, and the fused
///        residual + squared-norm pass the solvers' convergence checks use.
///
/// Bit-stability: per-row dots follow the lane-canonical row contract
/// (serial association below simd::kSimdRowMinNnz nonzeros, 8-lane
/// canonical above it), so every backend produces identical y. The fused
/// pass parallelizes over the *reduction* partition (16Ki rows per block,
/// boundaries depending only on the row count) instead of the SpMV nnz
/// plan, and accumulates y[r]² into lane (r − block_begin) mod 8 — exactly
/// the association of residual() followed by norm2(), which is what makes
/// the fusion legal at all (the pre-SIMD kernels couldn't fuse: the nnz
/// plan's block boundaries move when values change, so a sum over them
/// would not be a fixed partition of the rows).

#include <span>
#include <vector>

#include "common/types.hpp"

namespace lck::spmv {

/// y[r] = (A·x)[r] over the row plan's blocks (block b covers rows
/// [block_rows[b], block_rows[b+1])), dispatched to the active ISA.
void multiply_blocked(const index_t* row_ptr, const index_t* col_idx,
                      const double* values, const double* x, double* y,
                      std::span<const index_t> block_rows);

/// y[r] = b[r] − (A·x)[r] over the row plan's blocks.
void residual_blocked(const index_t* row_ptr, const index_t* col_idx,
                      const double* values, const double* b, const double* x,
                      double* y, std::span<const index_t> block_rows);

/// Fused y = b − A·x and Σ y[r]² in one sweep, parallelized over the
/// lane-canonical reduction partition of the rows. Returns the squared
/// norm; bit-identical to residual_blocked followed by a dispatched
/// sum-of-squares over y.
[[nodiscard]] double residual_norm2_sq(const index_t* row_ptr,
                                       const index_t* col_idx,
                                       const double* values, const double* b,
                                       const double* x, double* y,
                                       index_t rows);

/// One row's dot with the scalar backend (the rowwise reference kernels in
/// tests/support use it, so reference == dispatched is a real cross-ISA
/// check).
[[nodiscard]] double row_dot_scalar(const index_t* col, const double* val,
                                    index_t len, const double* x);

}  // namespace lck::spmv
