#pragma once
/// \file vector_ops.hpp
/// \brief Dense vector kernels (BLAS-1 style) used by all iterative solvers.
///
/// All kernels are OpenMP-parallel and operate on std::vector<double> /
/// std::span<double> so that solver code reads like the algorithm statements
/// in the paper (Algorithm 1/2).
///
/// The reductions (dot, norm2, norm_inf, and every fused kernel below) use a
/// *lane-canonical deterministic reduction*: the range is split into blocks
/// whose boundaries depend only on the length (via Partitioner), each block
/// folds into a fixed array of 8 logical lanes — lane l accumulating the
/// elements with (i − block_begin) ≡ l (mod 8) in increasing order — the
/// lanes are combined serially in lane order, and the per-block partials are
/// combined serially in block order. Because the association is fixed by the
/// *contract* rather than by the code that happens to run, the result is
/// bit-identical across thread count AND across the SIMD backends in
/// common/simd.hpp (scalar keeps 8 scalar accumulators, SSE2 four 2-wide
/// packs, AVX2 two 4-wide, AVX-512 one 8-wide — all the same association).
/// An OpenMP `reduction(+)` clause, by contrast, reassociates per thread
/// count; a naive vector-width-sized accumulator would reassociate per ISA.
/// The hot reductions dispatch to the runtime-selected simd::ops() table;
/// the generic deterministic_reduce_sum/max templates below implement the
/// same contract in portable code for everything else.

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/simd.hpp"
#include "common/types.hpp"
#include "obs/pass_counter.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/partitioner.hpp"

namespace lck {

using Vector = std::vector<double>;

namespace detail {

/// Instrumentation: every kernel in this file adds the number of full-vector
/// data passes it performs (one relaxed atomic add per *call*, not per
/// element, so the cost is invisible next to the sweep itself). Tests and
/// benches use the counter to assert that the fused per-iteration solver
/// bodies really cut the sweep count, instead of trusting a comment. The
/// counter itself lives in obs/pass_counter.hpp so the observability layer
/// can sample it into the metrics registry.
inline void count_passes(std::uint64_t n) noexcept {
  obs::add_vector_passes(n);
}

}  // namespace detail

namespace detail {

/// Elements per reduction block. Small inputs (the local test problems)
/// stay in one block; large inputs get one block per ~128 KiB with the
/// partials combined in fixed order.
inline constexpr index_t kReductionBlockElems = 16384;

/// Fixed-partition parallel driver for sums: block(begin, end) returns one
/// block's lane-canonical partial; partials are combined serially in block
/// order starting from 0.0. Block boundaries depend only on n, never on the
/// thread count. Shared by the dense kernels here and the fused SpMV+norm
/// driver in sparse/spmv_simd.cpp (which must associate identically).
template <typename BlockFn>
[[nodiscard]] double reduce_blocks_sum(index_t n, BlockFn&& block) {
  if (n <= kReductionBlockElems) return block(index_t{0}, n);
  const int blocks =
      static_cast<int>((n + kReductionBlockElems - 1) / kReductionBlockElems);
  const Partitioner part(n, blocks);
  std::vector<double> partial(static_cast<std::size_t>(blocks), 0.0);
  parallel_for(0, blocks, [&](index_t b) {
    const int blk = static_cast<int>(b);
    const index_t begin = part.offset(blk);
    partial[static_cast<std::size_t>(b)] =
        block(begin, begin + part.local_size(blk));
  });
  double acc = 0.0;
  for (const double v : partial) acc += v;
  return acc;
}

/// Same driver with a max combine (order-insensitive, but the fixed
/// partition keeps the parallel shape uniform with the sums).
template <typename BlockFn>
[[nodiscard]] double reduce_blocks_max(index_t n, BlockFn&& block) {
  if (n <= kReductionBlockElems) return block(index_t{0}, n);
  const int blocks =
      static_cast<int>((n + kReductionBlockElems - 1) / kReductionBlockElems);
  const Partitioner part(n, blocks);
  std::vector<double> partial(static_cast<std::size_t>(blocks), 0.0);
  parallel_for(0, blocks, [&](index_t b) {
    const int blk = static_cast<int>(b);
    const index_t begin = part.offset(blk);
    partial[static_cast<std::size_t>(b)] =
        block(begin, begin + part.local_size(blk));
  });
  double acc = 0.0;
  for (const double v : partial) acc = v > acc ? v : acc;
  return acc;
}

/// One block's lane-canonical sum of term(i) over [begin, end) in portable
/// code — the exact association every simd backend reproduces (and the
/// reference tests/test_simd.cpp pins them against).
template <typename Term>
[[nodiscard]] double lane_sum_block(index_t begin, index_t end, Term& term) {
  double lanes[simd::kReductionLanes] = {};
  index_t i = begin;
  for (; i + simd::kReductionLanes <= end; i += simd::kReductionLanes)
    for (int l = 0; l < simd::kReductionLanes; ++l) lanes[l] += term(i + l);
  for (int k = 0; i < end; ++i, ++k) lanes[k] += term(i);
  double s = lanes[0];
  for (int l = 1; l < simd::kReductionLanes; ++l) s += lanes[l];
  return s;
}

/// One block's lane-canonical max of term(i) over [begin, end).
template <typename Term>
[[nodiscard]] double lane_max_block(index_t begin, index_t end, Term& term) {
  double lanes[simd::kReductionLanes] = {};
  index_t i = begin;
  for (; i + simd::kReductionLanes <= end; i += simd::kReductionLanes)
    for (int l = 0; l < simd::kReductionLanes; ++l) {
      const double t = term(i + l);
      lanes[l] = t > lanes[l] ? t : lanes[l];
    }
  for (int k = 0; i < end; ++i, ++k) {
    const double t = term(i);
    lanes[k] = t > lanes[k] ? t : lanes[k];
  }
  double m = lanes[0];
  for (int l = 1; l < simd::kReductionLanes; ++l) m = lanes[l] > m ? lanes[l] : m;
  return m;
}

/// Lane-canonical deterministic reduction of term(i) over [0, n): bit-stable
/// for any thread count and consistent with the dispatched simd kernels.
template <typename Term>
[[nodiscard]] double deterministic_reduce_sum(index_t n, Term&& term) {
  return reduce_blocks_sum(
      n, [&](index_t b, index_t e) { return lane_sum_block(b, e, term); });
}

template <typename Term>
[[nodiscard]] double deterministic_reduce_max(index_t n, Term&& term) {
  return reduce_blocks_max(
      n, [&](index_t b, index_t e) { return lane_max_block(b, e, term); });
}

}  // namespace detail

/// y := x (sizes must match).
inline void copy(std::span<const double> x, std::span<double> y) {
  require(x.size() == y.size(), "copy: size mismatch");
  detail::count_passes(1);
  parallel_for(0, static_cast<index_t>(x.size()), [&](index_t i) { y[i] = x[i]; });
}

/// x := alpha.
inline void fill(std::span<double> x, double alpha) {
  detail::count_passes(1);
  parallel_for(0, static_cast<index_t>(x.size()), [&](index_t i) { x[i] = alpha; });
}

/// y := alpha*x + y.
inline void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  require(x.size() == y.size(), "axpy: size mismatch");
  detail::count_passes(1);
  parallel_for(0, static_cast<index_t>(x.size()),
               [&](index_t i) { y[i] += alpha * x[i]; });
}

/// y := x + beta*y  (the "xpby" update used by CG's direction recurrence).
inline void xpby(std::span<const double> x, double beta, std::span<double> y) {
  require(x.size() == y.size(), "xpby: size mismatch");
  detail::count_passes(1);
  parallel_for(0, static_cast<index_t>(x.size()),
               [&](index_t i) { y[i] = x[i] + beta * y[i]; });
}

/// w := x + alpha*y.
inline void waxpy(std::span<const double> x, double alpha,
                  std::span<const double> y, std::span<double> w) {
  require(x.size() == y.size() && x.size() == w.size(), "waxpy: size mismatch");
  detail::count_passes(1);
  parallel_for(0, static_cast<index_t>(x.size()),
               [&](index_t i) { w[i] = x[i] + alpha * y[i]; });
}

/// x := alpha*x.
inline void scale(std::span<double> x, double alpha) {
  detail::count_passes(1);
  parallel_for(0, static_cast<index_t>(x.size()), [&](index_t i) { x[i] *= alpha; });
}

/// Dot product xᵀy (lane-canonical deterministic reduction: bit-stable for
/// any thread count and any simd::active_isa()).
[[nodiscard]] inline double dot(std::span<const double> x, std::span<const double> y) {
  require(x.size() == y.size(), "dot: size mismatch");
  detail::count_passes(1);
  const auto& o = simd::ops();
  const double* xp = x.data();
  const double* yp = y.data();
  return detail::reduce_blocks_sum(
      static_cast<index_t>(x.size()),
      [&](index_t b, index_t e) { return o.sum_mul(xp, yp, b, e); });
}

/// Euclidean norm ||x||₂ (lane-canonical deterministic reduction).
[[nodiscard]] inline double norm2(std::span<const double> x) {
  detail::count_passes(1);
  const auto& o = simd::ops();
  const double* xp = x.data();
  return std::sqrt(detail::reduce_blocks_sum(
      static_cast<index_t>(x.size()),
      [&](index_t b, index_t e) { return o.sum_sq(xp, b, e); }));
}

/// Max norm ||x||∞ (lane-canonical deterministic reduction).
[[nodiscard]] inline double norm_inf(std::span<const double> x) {
  detail::count_passes(1);
  const auto& o = simd::ops();
  const double* xp = x.data();
  return detail::reduce_blocks_max(
      static_cast<index_t>(x.size()),
      [&](index_t b, index_t e) { return o.max_abs(xp, b, e); });
}

/// Max pointwise absolute difference ||x − y||∞.
[[nodiscard]] inline double max_abs_diff(std::span<const double> x,
                                         std::span<const double> y) {
  require(x.size() == y.size(), "max_abs_diff: size mismatch");
  detail::count_passes(1);
  const auto& o = simd::ops();
  const double* xp = x.data();
  const double* yp = y.data();
  return detail::reduce_blocks_max(
      static_cast<index_t>(x.size()),
      [&](index_t b, index_t e) { return o.max_abs_diff(xp, yp, b, e); });
}

// ---------------------------------------------------------------------------
// Fused kernels.
//
// Each kernel below replaces a sequence of the primitive calls above with a
// single memory sweep while preserving *bit-identical* results:
//  - elementwise updates use exactly the expressions of the primitive
//    sequence they replace (same association, same sign handling), and
//  - reductions ride the same lane-canonical fixed partition as dot()/norm2(),
//    accumulated in the same per-lane and per-block serial order,
// so a solver rewritten onto them produces the same trajectory to the last
// bit at any thread count and ISA (pinned by tests/test_kernels.cpp and
// tests/test_simd.cpp).
// ---------------------------------------------------------------------------

/// Result of the fused CG inner update (see dot_axpy).
struct DotAxpyResult {
  double pq = 0.0;     ///< pᵀq, always computed.
  double alpha = 0.0;  ///< rho / pq (0 when !updated).
  double rr = 0.0;     ///< rᵀr after the update (0 when !updated).
  bool updated = false;  ///< False on breakdown (pq zero or non-finite).
};

/// CG's fused inner update: pq = pᵀq; if pq is finite and nonzero,
/// alpha = rho/pq, then one sweep performs x += alpha·p, r −= alpha·q and
/// accumulates rᵀr of the updated residual. Replaces
///   dot(p,q); axpy(alpha,p,x); axpy(-alpha,q,r); norm2(r)
/// (four sweeps) with two. On breakdown x and r are untouched, mirroring
/// the unfused code path that checked pq before updating.
[[nodiscard]] inline DotAxpyResult dot_axpy(std::span<const double> p,
                                            std::span<const double> q,
                                            double rho, std::span<double> x,
                                            std::span<double> r) {
  require(p.size() == q.size() && p.size() == x.size() && p.size() == r.size(),
          "dot_axpy: size mismatch");
  const auto n = static_cast<index_t>(p.size());
  const auto& o = simd::ops();
  DotAxpyResult res;
  detail::count_passes(1);
  res.pq = detail::reduce_blocks_sum(n, [&](index_t b, index_t e) {
    return o.sum_mul(p.data(), q.data(), b, e);
  });
  if (res.pq == 0.0 || !std::isfinite(res.pq)) return res;
  res.alpha = rho / res.pq;
  const double alpha = res.alpha;
  detail::count_passes(1);
  res.rr = detail::reduce_blocks_sum(n, [&](index_t b, index_t e) {
    return o.update_xr_sq(alpha, p.data(), q.data(), x.data(), r.data(), b, e);
  });
  res.updated = true;
  return res;
}

/// y += alpha·x fused with ||y||₂ of the updated y. One sweep instead of
/// axpy + norm2.
[[nodiscard]] inline double axpy_norm2(double alpha, std::span<const double> x,
                                       std::span<double> y) {
  require(x.size() == y.size(), "axpy_norm2: size mismatch");
  detail::count_passes(1);
  const auto& o = simd::ops();
  return std::sqrt(detail::reduce_blocks_sum(
      static_cast<index_t>(x.size()), [&](index_t b, index_t e) {
        return o.axpy_sq(alpha, x.data(), y.data(), b, e);
      }));
}

/// w := x + alpha·y fused with wᵀz of the result. `z` may alias `w` (the
/// waxpy_norm2 wrapper relies on it: each element is written before it is
/// read back); partial overlap is undefined. One sweep instead of
/// waxpy + dot.
[[nodiscard]] inline double waxpy_dot(std::span<const double> x, double alpha,
                                      std::span<const double> y,
                                      std::span<double> w,
                                      std::span<const double> z) {
  require(x.size() == y.size() && x.size() == w.size() && x.size() == z.size(),
          "waxpy_dot: size mismatch");
  detail::count_passes(1);
  const auto& o = simd::ops();
  return detail::reduce_blocks_sum(
      static_cast<index_t>(x.size()), [&](index_t b, index_t e) {
        return o.waxpy_mul(x.data(), alpha, y.data(), w.data(), z.data(), b, e);
      });
}

/// w := x + alpha·y fused with ||w||₂ (BiCGStab's s- and r-updates).
[[nodiscard]] inline double waxpy_norm2(std::span<const double> x, double alpha,
                                        std::span<const double> y,
                                        std::span<double> w) {
  return std::sqrt(waxpy_dot(x, alpha, y, w, w));
}

/// Two dot products sharing the left operand — xᵀy and xᵀz in one sweep.
/// Each result is accumulated in its own lane-canonical chain with exactly
/// dot()'s partition and order, so both match the two-call form bit-for-bit.
[[nodiscard]] inline std::pair<double, double> dot2(std::span<const double> x,
                                                    std::span<const double> y,
                                                    std::span<const double> z) {
  require(x.size() == y.size() && x.size() == z.size(), "dot2: size mismatch");
  const auto n = static_cast<index_t>(x.size());
  detail::count_passes(1);
  const auto& o = simd::ops();
  if (n <= detail::kReductionBlockElems) {
    double a = 0.0, b = 0.0;
    o.sum_mul2(x.data(), y.data(), z.data(), 0, n, &a, &b);
    return {a, b};
  }
  const int blocks = static_cast<int>((n + detail::kReductionBlockElems - 1) /
                                      detail::kReductionBlockElems);
  const Partitioner part(n, blocks);
  std::vector<double> pa(static_cast<std::size_t>(blocks), 0.0);
  std::vector<double> pb(static_cast<std::size_t>(blocks), 0.0);
  parallel_for(0, blocks, [&](index_t blk) {
    const int k = static_cast<int>(blk);
    const index_t begin = part.offset(k);
    o.sum_mul2(x.data(), y.data(), z.data(), begin, begin + part.local_size(k),
               &pa[static_cast<std::size_t>(blk)],
               &pb[static_cast<std::size_t>(blk)]);
  });
  double a = 0.0, b = 0.0;
  for (std::size_t k = 0; k < pa.size(); ++k) {
    a += pa[k];
    b += pb[k];
  }
  return {a, b};
}

/// z += alpha·x + beta·y with the association of the two-call form
/// axpy(alpha,x,z); axpy(beta,y,z): each element is (z + alpha·x) + beta·y.
inline void axpy2(double alpha, std::span<const double> x, double beta,
                  std::span<const double> y, std::span<double> z) {
  require(x.size() == y.size() && x.size() == z.size(), "axpy2: size mismatch");
  detail::count_passes(1);
  parallel_for(0, static_cast<index_t>(x.size()), [&](index_t i) {
    const double t = z[i] + alpha * x[i];
    z[i] = t + beta * y[i];
  });
}

/// axpy2 fused with ||z||₂ of the result (MINRES's Lanczos update
/// v_new −= alpha·v + beta·v_old followed by norm2).
[[nodiscard]] inline double axpy2_norm2(double alpha, std::span<const double> x,
                                        double beta, std::span<const double> y,
                                        std::span<double> z) {
  require(x.size() == y.size() && x.size() == z.size(),
          "axpy2_norm2: size mismatch");
  detail::count_passes(1);
  const auto& o = simd::ops();
  return std::sqrt(detail::reduce_blocks_sum(
      static_cast<index_t>(x.size()), [&](index_t b, index_t e) {
        return o.axpy2_sq(alpha, x.data(), beta, y.data(), z.data(), b, e);
      }));
}

/// w := ((v + alpha·x) + beta·y) · s — MINRES's direction update
/// d_new = (v − rho3·d_old − rho2·d)/rho1 in one sweep instead of
/// copy + axpy + axpy + scale (pass s = 1/rho1, matching scale()'s
/// multiply-by-reciprocal).
inline void waxpy2_scale(std::span<const double> v, double alpha,
                         std::span<const double> x, double beta,
                         std::span<const double> y, double s,
                         std::span<double> w) {
  require(v.size() == x.size() && v.size() == y.size() && v.size() == w.size(),
          "waxpy2_scale: size mismatch");
  detail::count_passes(1);
  parallel_for(0, static_cast<index_t>(v.size()), [&](index_t i) {
    const double t = v[i] + alpha * x[i];
    w[i] = (t + beta * y[i]) * s;
  });
}

/// x += d ⊙ r (elementwise-scaled update; Jacobi's x += D⁻¹·r).
inline void diag_axpy(std::span<const double> d, std::span<const double> r,
                      std::span<double> x) {
  require(d.size() == r.size() && d.size() == x.size(),
          "diag_axpy: size mismatch");
  detail::count_passes(1);
  parallel_for(0, static_cast<index_t>(d.size()),
               [&](index_t i) { x[i] += d[i] * r[i]; });
}

/// p := r + beta·(p + alpha·v) with the association of
/// axpy(alpha,v,p); xpby(r,beta,p) — BiCGStab's direction update
/// p = r + beta·(p − omega·v) in one sweep instead of two.
inline void axpy_xpby(double alpha, std::span<const double> v,
                      std::span<const double> r, double beta,
                      std::span<double> p) {
  require(v.size() == r.size() && v.size() == p.size(),
          "axpy_xpby: size mismatch");
  detail::count_passes(1);
  parallel_for(0, static_cast<index_t>(v.size()), [&](index_t i) {
    const double t = p[i] + alpha * v[i];
    p[i] = r[i] + beta * t;
  });
}

}  // namespace lck
