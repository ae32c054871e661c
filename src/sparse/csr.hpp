#pragma once
/// \file csr.hpp
/// \brief Compressed-sparse-row matrix with parallel SpMV and the
///        triangular-solve kernels the preconditioners need.

#include <algorithm>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "sparse/vector_ops.hpp"

namespace lck {

/// Square or rectangular sparse matrix in CSR layout.
///
/// Invariants (checked by validate()):
///  - row_ptr has rows()+1 monotonically non-decreasing entries,
///  - col_idx values lie in [0, cols()) and ascend within each row,
///  - row_ptr.front() == 0 and row_ptr.back() == nnz().
///
/// Construction precomputes a row-blocking plan for SpMV: consecutive rows
/// are grouped into blocks of ~kSpmvBlockNnz nonzeros (capped at
/// kSpmvBlockMaxRows rows), so each parallel task streams a cache-sized
/// slice of col_idx/values and short rows are batched many-per-task instead
/// of one-per-task. Per-row dots follow the lane-canonical row contract
/// (sparse/spmv_simd.hpp): serial association below simd::kSimdRowMinNnz
/// nonzeros, 8-lane canonical (gather kernels) above it — fixed per row
/// length, so blocked SpMV is bit-identical to the plain row loop (the
/// reference in tests/support/reference_spmv.hpp) and across every ISA.
class CsrMatrix {
 public:
  /// Target nonzeros per SpMV block (~48 KiB of col+val per block).
  static constexpr index_t kSpmvBlockNnz = 4096;
  /// Cap on rows per block so empty/short-row runs still spread across tasks.
  static constexpr index_t kSpmvBlockMaxRows = 1024;

  CsrMatrix() = default;

  CsrMatrix(index_t rows, index_t cols, std::vector<index_t> row_ptr,
            std::vector<index_t> col_idx, std::vector<double> values)
      : rows_(rows),
        cols_(cols),
        row_ptr_(std::move(row_ptr)),
        col_idx_(std::move(col_idx)),
        values_(std::move(values)) {
    validate();
    build_plan();
  }

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t nnz() const noexcept {
    return static_cast<index_t>(values_.size());
  }

  [[nodiscard]] std::span<const index_t> row_ptr() const noexcept { return row_ptr_; }
  [[nodiscard]] std::span<const index_t> col_idx() const noexcept { return col_idx_; }
  [[nodiscard]] std::span<const double> values() const noexcept { return values_; }
  [[nodiscard]] std::span<double> values_mut() noexcept { return values_; }

  /// y := A·x. Cache-blocked over the precomputed row plan, per-row dots
  /// dispatched to the active SIMD backend (gather kernels for rows with
  /// ≥ simd::kSimdRowMinNnz nonzeros, serial sums below). The row contract
  /// fixes the association per row length, so the result is bit-identical
  /// to the plain row loop and across every ISA.
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// y := b − A·x (fused residual kernel; paper Algorithm 1 line 8).
  /// Blocked like multiply(); bit-identical to the plain row loop.
  void residual(std::span<const double> b, std::span<const double> x,
                std::span<double> y) const;

  /// Fused y := b − A·x and ‖y‖₂ in one sweep — the solvers' restart /
  /// recovery convergence check. Parallelized over the lane-canonical
  /// reduction partition of the rows (not the nnz plan), so the returned
  /// norm is bit-identical to residual() followed by norm2(y) at any
  /// thread count and ISA.
  [[nodiscard]] double residual_norm2(std::span<const double> b,
                                      std::span<const double> x,
                                      std::span<double> y) const;

  /// Number of blocks in the SpMV row plan (for tests/benches).
  [[nodiscard]] index_t spmv_blocks() const noexcept {
    return static_cast<index_t>(block_rows_.size()) - 1;
  }

  /// Value at (r, c), 0 if not stored. Columns ascend within a row, so this
  /// is a binary search: O(log row-nnz).
  [[nodiscard]] double at(index_t r, index_t c) const {
    const auto first = col_idx_.begin() + row_ptr_[r];
    const auto last = col_idx_.begin() + row_ptr_[r + 1];
    const auto it = std::lower_bound(first, last, c);
    if (it != last && *it == c)
      return values_[static_cast<std::size_t>(it - col_idx_.begin())];
    return 0.0;
  }

  /// Diagonal entries (0 where the diagonal is not stored).
  [[nodiscard]] Vector diagonal() const {
    Vector d(static_cast<std::size_t>(rows_), 0.0);
    parallel_for(0, rows_, [&](index_t r) {
      for (index_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
        if (col_idx_[k] == r) {
          d[r] = values_[k];
          break;
        }
    });
    return d;
  }

  /// Structural + numerical symmetry check (exact equality), O(nnz·log-ish).
  [[nodiscard]] bool is_symmetric(double tol = 0.0) const;

  /// Transpose (used by tests and the KKT generator).
  [[nodiscard]] CsrMatrix transpose() const;

  void validate() const;

 private:
  /// Tag for the trusted construction path: skips validate() when the
  /// arrays are correct by construction (CsrBuilder's incremental checks,
  /// transpose()'s counting pass). Untrusted input — e.g. Matrix Market
  /// ingestion — must keep going through the validating constructor.
  struct Trusted {};

  CsrMatrix(Trusted, index_t rows, index_t cols, std::vector<index_t> row_ptr,
            std::vector<index_t> col_idx, std::vector<double> values)
      : rows_(rows),
        cols_(cols),
        row_ptr_(std::move(row_ptr)),
        col_idx_(std::move(col_idx)),
        values_(std::move(values)) {
    build_plan();
  }

  friend class CsrBuilder;

  /// Recompute block_rows_ from row_ptr_ (called by every constructor).
  void build_plan();

  index_t rows_ = 0, cols_ = 0;
  std::vector<index_t> row_ptr_{0};
  std::vector<index_t> col_idx_;
  std::vector<double> values_;
  /// SpMV row plan: block b covers rows [block_rows_[b], block_rows_[b+1]).
  std::vector<index_t> block_rows_{0};
};

/// Row-by-row CSR builder; entries within a row must be appended in
/// ascending column order (asserted in finish_row).
class CsrBuilder {
 public:
  CsrBuilder(index_t rows, index_t cols) : rows_(rows), cols_(cols) {
    row_ptr_.reserve(static_cast<std::size_t>(rows) + 1);
    row_ptr_.push_back(0);
  }

  /// Reserve capacity for an expected number of nonzeros.
  void reserve(index_t nnz) {
    col_idx_.reserve(static_cast<std::size_t>(nnz));
    values_.reserve(static_cast<std::size_t>(nnz));
  }

  /// Append an entry to the current row. Columns must be strictly ascending
  /// within the row; zero values are kept (callers may rely on structure).
  void add(index_t col, double value) {
    require(col >= 0 && col < cols_, "csr builder: column out of range");
    require(col_idx_.size() == static_cast<std::size_t>(row_ptr_.back()) ||
                col_idx_.back() < col,
            "csr builder: columns must be ascending within a row");
    col_idx_.push_back(col);
    values_.push_back(value);
  }

  /// Close the current row.
  void finish_row() {
    require(static_cast<index_t>(row_ptr_.size()) <= rows_,
            "csr builder: too many rows");
    row_ptr_.push_back(static_cast<index_t>(col_idx_.size()));
  }

  /// Finalize; all rows must have been finished. Uses the trusted (skip
  /// re-validate) path: add()/finish_row() already enforced every invariant
  /// validate() would re-check — columns in range and strictly ascending per
  /// row, row_ptr starting at 0, monotone, and ending at nnz.
  [[nodiscard]] CsrMatrix build() && {
    require(static_cast<index_t>(row_ptr_.size()) == rows_ + 1,
            "csr builder: not all rows finished");
    return CsrMatrix(CsrMatrix::Trusted{}, rows_, cols_, std::move(row_ptr_),
                     std::move(col_idx_), std::move(values_));
  }

  /// Finalize with a full validate() pass. For builders fed from untrusted
  /// input (Matrix Market files) where a redundant O(nnz) check is cheap
  /// insurance against builder-bypassing bugs.
  [[nodiscard]] CsrMatrix build_validated() && {
    require(static_cast<index_t>(row_ptr_.size()) == rows_ + 1,
            "csr builder: not all rows finished");
    return CsrMatrix(rows_, cols_, std::move(row_ptr_), std::move(col_idx_),
                     std::move(values_));
  }

 private:
  index_t rows_, cols_;
  std::vector<index_t> row_ptr_;
  std::vector<index_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace lck
