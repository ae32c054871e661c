/// Kernel-performance layer tests (PR 7): fused BLAS-1 kernels vs their
/// naive primitive sequences (bit-exact, across thread counts and sizes
/// straddling the 16Ki reduction-block boundary), blocked SpMV vs the plain
/// row loop, solver trajectories pinned bitwise against replicas of the
/// unfused iteration bodies (including the ≥40% full-vector pass reduction),
/// and compression streams pinned byte-identical to pre-change goldens.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ckpt/chunk/chunk_codec.hpp"
#include "ckpt/chunk/chunk_hash.hpp"
#include "common/bit_io.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "compress/compressor.hpp"
#include "compress/huffman.hpp"
#include "obs/pass_counter.hpp"
#include "solvers/bicgstab.hpp"
#include "solvers/cg.hpp"
#include "solvers/minres.hpp"
#include "solvers/preconditioner.hpp"
#include "sparse/gen/poisson3d.hpp"
#include "sparse/gen/random_spd.hpp"
#include "sparse/vector_ops.hpp"
#include "support/reference_spmv.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace lck {
namespace {

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (auto& x : v) x = rng.uniform() * 2.0 - 1.0;
  return v;
}

void expect_bitwise_eq(std::span<const double> a, std::span<const double> b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty())
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << what;
}

/// Sizes straddling the kReductionBlockElems = 16384 serial/blocked boundary.
const std::size_t kSizes[] = {1, 5, 16383, 16384, 16385, 50000, 100000};

/// Run `body` once per thread count (no-op loop body repetition without
/// OpenMP), so fused-vs-naive equality is checked at 1/2/4/8 threads.
template <typename F>
void for_each_thread_count(F&& body) {
#if defined(_OPENMP)
  const int prev = omp_get_max_threads();
  for (const int threads : {1, 2, 4, 8}) {
    omp_set_num_threads(threads);
    body(threads);
  }
  omp_set_num_threads(prev);
#else
  body(1);
#endif
}

// ---------------------------------------------------------------------------
// Fused kernels vs naive primitive sequences.
// ---------------------------------------------------------------------------

TEST(FusedKernels, DotAxpyMatchesPrimitives) {
  for (const std::size_t n : kSizes) {
    const Vector p = random_vector(n, 1);
    const Vector q = random_vector(n, 2);
    const double rho = 0.75;
    for_each_thread_count([&](int threads) {
      Vector x_f = random_vector(n, 3), r_f = random_vector(n, 4);
      Vector x_n = x_f, r_n = r_f;
      const DotAxpyResult fu = dot_axpy(p, q, rho, x_f, r_f);
      const double pq = dot(p, q);
      EXPECT_EQ(fu.pq, pq) << n << "/" << threads;
      ASSERT_TRUE(fu.updated);
      const double alpha = rho / pq;
      EXPECT_EQ(fu.alpha, alpha);
      axpy(alpha, p, x_n);
      axpy(-alpha, q, r_n);
      expect_bitwise_eq(x_f, x_n, "dot_axpy x");
      expect_bitwise_eq(r_f, r_n, "dot_axpy r");
      EXPECT_EQ(std::sqrt(fu.rr), norm2(r_n)) << n << "/" << threads;
    });
  }
}

TEST(FusedKernels, DotAxpyBreakdownLeavesVectorsUntouched) {
  const Vector p(100, 0.0);
  const Vector q = random_vector(100, 5);
  Vector x = random_vector(100, 6), r = random_vector(100, 7);
  const Vector x0 = x, r0 = r;
  const DotAxpyResult fu = dot_axpy(p, q, 1.0, x, r);
  EXPECT_FALSE(fu.updated);
  EXPECT_EQ(fu.pq, 0.0);
  expect_bitwise_eq(x, x0, "breakdown x");
  expect_bitwise_eq(r, r0, "breakdown r");
}

TEST(FusedKernels, AxpyNorm2MatchesPrimitives) {
  for (const std::size_t n : kSizes) {
    const Vector x = random_vector(n, 8);
    for_each_thread_count([&](int threads) {
      Vector y_f = random_vector(n, 9);
      Vector y_n = y_f;
      const double norm_f = axpy_norm2(-0.375, x, y_f);
      axpy(-0.375, x, y_n);
      expect_bitwise_eq(y_f, y_n, "axpy_norm2 y");
      EXPECT_EQ(norm_f, norm2(y_n)) << n << "/" << threads;
    });
  }
}

TEST(FusedKernels, WaxpyDotAndNorm2MatchPrimitives) {
  for (const std::size_t n : kSizes) {
    const Vector x = random_vector(n, 10);
    const Vector y = random_vector(n, 11);
    const Vector z = random_vector(n, 12);
    for_each_thread_count([&](int threads) {
      Vector w_f(n, 0.0), w_n(n, 0.0);
      const double d_f = waxpy_dot(x, 0.625, y, w_f, z);
      waxpy(x, 0.625, y, w_n);
      expect_bitwise_eq(w_f, w_n, "waxpy_dot w");
      EXPECT_EQ(d_f, dot(w_n, z)) << n << "/" << threads;

      Vector v_f(n, 0.0), v_n(n, 0.0);
      const double norm_f = waxpy_norm2(x, -1.25, y, v_f);
      waxpy(x, -1.25, y, v_n);
      expect_bitwise_eq(v_f, v_n, "waxpy_norm2 w");
      EXPECT_EQ(norm_f, norm2(v_n)) << n << "/" << threads;
    });
  }
}

TEST(FusedKernels, Dot2MatchesTwoDots) {
  for (const std::size_t n : kSizes) {
    const Vector x = random_vector(n, 13);
    const Vector y = random_vector(n, 14);
    const Vector z = random_vector(n, 15);
    for_each_thread_count([&](int threads) {
      const auto [xy, xz] = dot2(x, y, z);
      EXPECT_EQ(xy, dot(x, y)) << n << "/" << threads;
      EXPECT_EQ(xz, dot(x, z)) << n << "/" << threads;
    });
  }
}

TEST(FusedKernels, Axpy2FamilyMatchesPrimitives) {
  for (const std::size_t n : kSizes) {
    const Vector p = random_vector(n, 16);
    const Vector q = random_vector(n, 17);
    for_each_thread_count([&](int threads) {
      Vector z_f = random_vector(n, 18);
      Vector z_n = z_f;
      axpy2(0.5, p, -0.25, q, z_f);
      axpy(0.5, p, z_n);
      axpy(-0.25, q, z_n);
      expect_bitwise_eq(z_f, z_n, "axpy2 z");

      Vector w_f = random_vector(n, 19);
      Vector w_n = w_f;
      const double norm_f = axpy2_norm2(-0.75, p, 1.5, q, w_f);
      axpy(-0.75, p, w_n);
      axpy(1.5, q, w_n);
      expect_bitwise_eq(w_f, w_n, "axpy2_norm2 z");
      EXPECT_EQ(norm_f, norm2(w_n)) << n << "/" << threads;
    });
  }
}

TEST(FusedKernels, Waxpy2ScaleMatchesPrimitives) {
  for (const std::size_t n : kSizes) {
    const Vector v = random_vector(n, 20);
    const Vector p = random_vector(n, 21);
    const Vector q = random_vector(n, 22);
    const double rho1 = 3.0;
    for_each_thread_count([&](int) {
      Vector d_f(n, 0.0), d_n(n, 0.0);
      waxpy2_scale(v, -0.5, p, -0.125, q, 1.0 / rho1, d_f);
      copy(v, d_n);
      axpy(-0.5, p, d_n);
      axpy(-0.125, q, d_n);
      scale(d_n, 1.0 / rho1);
      expect_bitwise_eq(d_f, d_n, "waxpy2_scale d");
    });
  }
}

TEST(FusedKernels, DiagAxpyAndAxpyXpbyMatchPrimitives) {
  for (const std::size_t n : kSizes) {
    const Vector d = random_vector(n, 23);
    const Vector r = random_vector(n, 24);
    const Vector v = random_vector(n, 25);
    for_each_thread_count([&](int) {
      Vector x_f = random_vector(n, 26);
      Vector x_n = x_f;
      diag_axpy(d, r, x_f);
      for (std::size_t i = 0; i < n; ++i) x_n[i] += d[i] * r[i];
      expect_bitwise_eq(x_f, x_n, "diag_axpy x");

      Vector p_f = random_vector(n, 27);
      Vector p_n = p_f;
      axpy_xpby(-0.5, v, r, 2.0, p_f);
      axpy(-0.5, v, p_n);
      xpby(r, 2.0, p_n);
      expect_bitwise_eq(p_f, p_n, "axpy_xpby p");
    });
  }
}

// ---------------------------------------------------------------------------
// Blocked SpMV vs the plain row loop.
// ---------------------------------------------------------------------------

CsrMatrix matrix_with_empty_rows() {
  // 2000 rows; only every 7th row has entries (three per row, one of which
  // exercises the unroll remainder path).
  CsrBuilder b(2000, 2000);
  for (index_t r = 0; r < 2000; ++r) {
    if (r % 7 == 0) {
      if (r > 0) b.add(r - 1, -1.0);
      b.add(r, 4.0);
      if (r + 1 < 2000) b.add(r + 1, -1.0);
    }
    b.finish_row();
  }
  return std::move(b).build();
}

CsrMatrix single_long_row(index_t nnz) {
  CsrBuilder b(1, nnz);
  Rng rng(31);
  for (index_t c = 0; c < nnz; ++c) b.add(c, rng.uniform() * 2.0 - 1.0);
  b.finish_row();
  return std::move(b).build();
}

void expect_blocked_matches_rowwise(const CsrMatrix& a, std::uint64_t seed) {
  const Vector x = random_vector(static_cast<std::size_t>(a.cols()), seed);
  const Vector b = random_vector(static_cast<std::size_t>(a.rows()), seed + 1);
  for_each_thread_count([&](int threads) {
    Vector y_blk(static_cast<std::size_t>(a.rows()), 0.0);
    Vector y_row(static_cast<std::size_t>(a.rows()), 0.0);
    a.multiply(x, y_blk);
    multiply_rowwise(a, x, y_row);
    expect_bitwise_eq(y_blk, y_row, "multiply");

    Vector r_blk(static_cast<std::size_t>(a.rows()), 0.0);
    Vector r_row(static_cast<std::size_t>(a.rows()), 0.0);
    a.residual(b, x, r_blk);
    residual_rowwise(a, b, x, r_row);
    expect_bitwise_eq(r_blk, r_row, "residual");
    EXPECT_GT(threads, 0);
  });
}

TEST(BlockedSpmv, MatchesRowwiseOnPoisson) {
  const CsrMatrix a = poisson3d_spd(12);  // 1728 rows, ~11k nnz → >1 block
  EXPECT_GT(a.spmv_blocks(), 1);
  expect_blocked_matches_rowwise(a, 40);
}

TEST(BlockedSpmv, MatchesRowwiseOnRandom) {
  RandomSpdOptions opt;
  opt.n = 5000;
  opt.off_per_row = 6;
  expect_blocked_matches_rowwise(random_dominant(opt), 41);
}

TEST(BlockedSpmv, MatchesRowwiseOnEmptyRows) {
  const CsrMatrix a = matrix_with_empty_rows();
  // Short/empty rows: the row cap (not the nnz target) closes blocks.
  EXPECT_EQ(a.spmv_blocks(), (a.rows() + CsrMatrix::kSpmvBlockMaxRows - 1) /
                                 CsrMatrix::kSpmvBlockMaxRows);
  expect_blocked_matches_rowwise(a, 42);
}

TEST(BlockedSpmv, MatchesRowwiseOnSingleLongRow) {
  const CsrMatrix a = single_long_row(10001);  // row bigger than one block
  EXPECT_EQ(a.spmv_blocks(), 1);  // a block always takes at least one row
  expect_blocked_matches_rowwise(a, 43);
}

TEST(BlockedSpmv, EmptyMatrix) {
  const CsrMatrix a;
  EXPECT_EQ(a.spmv_blocks(), 0);
  Vector none;
  a.multiply(none, none);  // must not crash
}

// ---------------------------------------------------------------------------
// Satellite: at() binary search + trusted construction paths.
// ---------------------------------------------------------------------------

TEST(CsrFastPaths, AtMatchesLinearScan) {
  RandomSpdOptions opt;
  opt.n = 300;
  const CsrMatrix a = random_dominant(opt);
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t c = 0; c < a.cols(); ++c) {
      double ref = 0.0;
      for (index_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
        if (col_idx[k] == c) ref = values[k];
      EXPECT_EQ(a.at(r, c), ref) << r << "," << c;
    }
  }
}

TEST(CsrFastPaths, TrustedTransposeRoundTrips) {
  RandomSpdOptions opt;
  opt.n = 200;
  opt.symmetric = false;
  const CsrMatrix a = random_dominant(opt);
  const CsrMatrix att = a.transpose().transpose();
  ASSERT_EQ(att.nnz(), a.nnz());
  att.validate();  // the trusted path must still produce a valid layout
  expect_bitwise_eq(att.values(), a.values(), "transpose values");
  EXPECT_TRUE(std::equal(att.row_ptr().begin(), att.row_ptr().end(),
                         a.row_ptr().begin()));
  EXPECT_TRUE(std::equal(att.col_idx().begin(), att.col_idx().end(),
                         a.col_idx().begin()));
}

TEST(CsrFastPaths, ValidatingConstructorStillRejectsBadInput) {
  // build_validated() must reject what validate() rejects.
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1, 2}, {0, 5}, {1.0, 2.0}), config_error);
}

// ---------------------------------------------------------------------------
// Solver trajectories: fused bodies bitwise-equal to the unfused originals,
// with ≥ 40% fewer full-vector passes per iteration for CG and BiCGStab.
// ---------------------------------------------------------------------------

struct NaiveCg {
  // Replica of the pre-fusion CgSolver iteration body, on the primitive
  // kernels, with an explicit preconditioner (identity = copy).
  const CsrMatrix& a;
  const Preconditioner* m;
  Vector x, r, z, p, q;
  double rho = 0.0, res_norm = 0.0;

  NaiveCg(const CsrMatrix& a_in, const Vector& b, const Preconditioner* m_in)
      : a(a_in),
        m(m_in),
        x(b.size(), 0.0),
        r(b.size(), 0.0),
        z(b.size(), 0.0),
        p(b.size(), 0.0),
        q(b.size(), 0.0) {
    a.residual(b, x, r);
    m->apply(r, z);
    copy(z, p);
    rho = dot(r, z);
    res_norm = norm2(r);
  }

  void step() {
    a.multiply(p, q);
    const double pq = dot(p, q);
    ASSERT_NE(pq, 0.0);
    const double alpha = rho / pq;
    axpy(alpha, p, x);
    axpy(-alpha, q, r);
    m->apply(r, z);
    const double rho_next = dot(r, z);
    const double beta = rho_next / rho;
    rho = rho_next;
    xpby(z, beta, p);
    res_norm = norm2(r);
  }
};

TEST(SolverTrajectories, CgIdentityBitwiseAndPassReduction) {
  const CsrMatrix a = poisson3d_spd(7);
  const Vector b = smooth_rhs(a);
  SolveOptions opts;
  opts.rtol = 1e-30;  // never converge inside the window
  CgSolver solver(a, b, nullptr, opts);
  IdentityPreconditioner ident;
  NaiveCg naive(a, b, &ident);

  std::uint64_t fused_passes = 0, naive_passes = 0;
  for (int it = 0; it < 40; ++it) {
    obs::reset_vector_passes();
    solver.step();
    fused_passes += obs::vector_passes();
    obs::reset_vector_passes();
    naive.step();
    naive_passes += obs::vector_passes();
    EXPECT_EQ(solver.residual_norm(), naive.res_norm) << "iter " << it;
    expect_bitwise_eq(solver.solution(), naive.x, "cg x");
  }
  // Acceptance criterion: ≥ 40% fewer full-vector passes per iteration.
  EXPECT_LE(static_cast<double>(fused_passes),
            0.6 * static_cast<double>(naive_passes))
      << fused_passes << " vs " << naive_passes;
}

TEST(SolverTrajectories, CgJacobiBitwise) {
  const CsrMatrix a = poisson3d_spd(7);
  const Vector b = smooth_rhs(a);
  const JacobiPreconditioner jacobi(a);
  SolveOptions opts;
  opts.rtol = 1e-30;
  CgSolver solver(a, b, &jacobi, opts);
  NaiveCg naive(a, b, &jacobi);
  for (int it = 0; it < 40; ++it) {
    solver.step();
    naive.step();
    EXPECT_EQ(solver.residual_norm(), naive.res_norm) << "iter " << it;
    expect_bitwise_eq(solver.solution(), naive.x, "cg-jacobi x");
  }
}

struct NaiveBicgstab {
  // Replica of the pre-fusion BicgstabSolver iteration body.
  const CsrMatrix& a;
  const Preconditioner* m;
  double tol;
  Vector x, r, rhat, p, v, s, t, ph, sh;
  double rho = 1.0, alpha = 1.0, omega = 1.0, res_norm = 0.0;

  NaiveBicgstab(const CsrMatrix& a_in, const Vector& b,
                const Preconditioner* m_in, double tol_in)
      : a(a_in),
        m(m_in),
        tol(tol_in),
        x(b.size(), 0.0),
        r(b.size(), 0.0),
        rhat(b.size(), 0.0),
        p(b.size(), 0.0),
        v(b.size(), 0.0),
        s(b.size(), 0.0),
        t(b.size(), 0.0),
        ph(b.size(), 0.0),
        sh(b.size(), 0.0) {
    a.residual(b, x, r);
    copy(r, rhat);
    res_norm = norm2(r);
  }

  void step() {
    const double rho_next = dot(rhat, r);
    ASSERT_NE(rho_next, 0.0);
    const double beta = (rho_next / rho) * (alpha / omega);
    rho = rho_next;
    axpy(-omega, v, p);
    xpby(r, beta, p);
    m->apply(p, ph);
    a.multiply(ph, v);
    const double rhat_v = dot(rhat, v);
    ASSERT_NE(rhat_v, 0.0);
    alpha = rho / rhat_v;
    waxpy(r, -alpha, v, s);
    const double s_norm = norm2(s);
    if (s_norm <= tol) {
      axpy(alpha, ph, x);
      copy(s, r);
      res_norm = s_norm;
      return;
    }
    m->apply(s, sh);
    a.multiply(sh, t);
    const double tt = dot(t, t);
    omega = tt != 0.0 ? dot(t, s) / tt : 0.0;
    axpy(alpha, ph, x);
    axpy(omega, sh, x);
    waxpy(s, -omega, t, r);
    res_norm = norm2(r);
  }
};

TEST(SolverTrajectories, BicgstabIdentityBitwiseAndPassReduction) {
  const CsrMatrix a = poisson3d_spd(7);
  const Vector b = smooth_rhs(a);
  SolveOptions opts;
  opts.rtol = 1e-30;
  BicgstabSolver solver(a, b, nullptr, opts);
  IdentityPreconditioner ident;
  NaiveBicgstab naive(a, b, &ident, 0.0);

  std::uint64_t fused_passes = 0, naive_passes = 0;
  for (int it = 0; it < 30; ++it) {
    obs::reset_vector_passes();
    solver.step();
    fused_passes += obs::vector_passes();
    obs::reset_vector_passes();
    naive.step();
    naive_passes += obs::vector_passes();
    EXPECT_EQ(solver.residual_norm(), naive.res_norm) << "iter " << it;
    expect_bitwise_eq(solver.solution(), naive.x, "bicgstab x");
  }
  EXPECT_LE(static_cast<double>(fused_passes),
            0.6 * static_cast<double>(naive_passes))
      << fused_passes << " vs " << naive_passes;
}

TEST(SolverTrajectories, BicgstabJacobiBitwise) {
  const CsrMatrix a = poisson3d_spd(7);
  const Vector b = smooth_rhs(a);
  const JacobiPreconditioner jacobi(a);
  SolveOptions opts;
  opts.rtol = 1e-30;
  BicgstabSolver solver(a, b, &jacobi, opts);
  NaiveBicgstab naive(a, b, &jacobi, 0.0);
  for (int it = 0; it < 30; ++it) {
    solver.step();
    naive.step();
    EXPECT_EQ(solver.residual_norm(), naive.res_norm) << "iter " << it;
    expect_bitwise_eq(solver.solution(), naive.x, "bicgstab-jacobi x");
  }
}

struct NaiveMinres {
  // Replica of the pre-fusion MinresSolver iteration body.
  const CsrMatrix& a;
  Vector x, v_old, v, v_new, d_old, d, d_new;
  double beta = 0.0, eta = 0.0, res_norm = 0.0;
  double c_old = 1.0, c = 1.0, s_old = 0.0, s = 0.0;

  NaiveMinres(const CsrMatrix& a_in, const Vector& b)
      : a(a_in),
        x(b.size(), 0.0),
        v_old(b.size(), 0.0),
        v(b.size(), 0.0),
        v_new(b.size(), 0.0),
        d_old(b.size(), 0.0),
        d(b.size(), 0.0),
        d_new(b.size(), 0.0) {
    a.residual(b, x, v);
    beta = norm2(v);
    res_norm = beta;
    eta = beta;
    if (beta > 0.0) scale(v, 1.0 / beta);
  }

  void step() {
    a.multiply(v, v_new);
    const double alpha = dot(v, v_new);
    axpy(-alpha, v, v_new);
    axpy(-beta, v_old, v_new);
    const double beta_new = norm2(v_new);
    const double rho3 = s_old * beta;
    const double rho2 = s * alpha + c_old * c * beta;
    const double rho1_bar = c * alpha - c_old * s * beta;
    const double rho1 = std::hypot(rho1_bar, beta_new);
    ASSERT_NE(rho1, 0.0);
    const double c_new = rho1_bar / rho1;
    const double s_new = beta_new / rho1;
    copy(v, d_new);
    axpy(-rho3, d_old, d_new);
    axpy(-rho2, d, d_new);
    scale(d_new, 1.0 / rho1);
    axpy(c_new * eta, d_new, x);
    eta = -s_new * eta;
    res_norm = std::fabs(eta);
    std::swap(d_old, d);
    std::swap(d, d_new);
    std::swap(v_old, v);
    std::swap(v, v_new);
    if (beta_new > 0.0) scale(v, 1.0 / beta_new);
    beta = beta_new;
    c_old = c;
    c = c_new;
    s_old = s;
    s = s_new;
  }
};

TEST(SolverTrajectories, MinresBitwise) {
  const CsrMatrix a = poisson3d_spd(7);
  const Vector b = smooth_rhs(a);
  SolveOptions opts;
  opts.rtol = 1e-30;
  MinresSolver solver(a, b, opts);
  NaiveMinres naive(a, b);
  for (int it = 0; it < 40; ++it) {
    solver.step();
    naive.step();
    EXPECT_EQ(solver.residual_norm(), naive.res_norm) << "iter " << it;
    expect_bitwise_eq(solver.solution(), naive.x, "minres x");
  }
}

// ---------------------------------------------------------------------------
// Compression streams: byte-identical to pre-change goldens (CRC-32 + size
// captured from the implementation before this PR's loop restructuring).
// ---------------------------------------------------------------------------

Vector golden_field(std::size_t n) {
  Rng rng(42);
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(0.0005 * static_cast<double>(i)) + 2.0 +
           1e-6 * rng.uniform();
  return v;
}

Vector golden_spiky(std::size_t n) {
  Rng rng(42);
  Vector v(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    if (rng.uniform() < 0.07) v[i] = rng.normal(0.0, 1e3);
  return v;
}

/// Solver-like doubles laid out so that the deflate LZ77 search meets each
/// of its edge cases: hash chains cut by the 64-probe cap (the field's
/// repeated exponent bytes), 258-byte matches (a zero run), a match at
/// exactly the 32 KiB window distance (a random block copied 4096 doubles
/// later), and a final match cut short by the end of the input (a trailing
/// zero run).
Vector golden_ckpt(std::size_t n) {
  Vector v = golden_field(n);
  Rng rng(7);
  for (std::size_t i = 1000; i < 1100; ++i) v[i] = 0.0;
  for (std::size_t i = 2000; i < 2040; ++i) {
    v[i] = rng.normal(0.0, 1e3);
    v[i + 4096] = v[i];
  }
  for (std::size_t i = n - 40; i < n; ++i) v[i] = 0.0;
  return v;
}

/// Even integers with ±65,534 spikes: under an absolute bound of 1 each
/// spike quantizes to SZ's top code (65,535) and the drop back to its
/// lowest (1), so one chunk's codes span the whole quantization alphabet.
Vector golden_edges(std::size_t n) {
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = 2.0 * std::round(4.0 * std::sin(0.02 * static_cast<double>(i)));
  for (std::size_t i = 50; i + 1 < n; i += 97) v[i] = v[i - 1] + 65534.0;
  return v;
}

Vector golden_data(const char* kind, std::size_t n) {
  switch (kind[0]) {
    case 'f': return golden_field(n);
    case 's': return golden_spiky(n);
    case 'e': return golden_edges(n);
    case 'z': return Vector(n, 0.0);
    default: return golden_ckpt(n);
  }
}

/// Quantization codes with a nonzero Huffman length in an absolute- or
/// range-bound SZ stream, parsed straight from its zero-run code-length
/// table (u32 alphabet size, then 0x00 + u16 zero-run or one length byte).
std::vector<std::uint32_t> sz_table_codes(std::span<const byte_t> stream) {
  // "2SZ1" header (u32 magic, u64 n, u8 mode, f64 eb), then the core's
  // f64 eb, u64 n, u32 radius.
  std::size_t at = 4 + 8 + 1 + 8 + 8 + 8 + 4;
  std::uint32_t alphabet = 0;
  std::memcpy(&alphabet, stream.data() + at, 4);
  at += 4;
  std::vector<std::uint32_t> codes;
  for (std::uint32_t sym = 0; sym < alphabet;) {
    if (stream[at] == 0) {
      std::uint16_t run = 0;
      std::memcpy(&run, stream.data() + at + 1, 2);
      sym += run;
      at += 3;
    } else {
      codes.push_back(sym++);
      ++at;
    }
  }
  return codes;
}

TEST(CompressionGoldens, StreamsAreByteIdenticalToPreChangeOutput) {
  struct Golden {
    const char* comp;
    int mode;  // ErrorBound::Mode
    double eb;
    const char* data;
    std::size_t n;
    std::size_t stream_size;
    std::uint32_t crc;
  };
  const Golden goldens[] = {
      {"sz", 0, 1.0e-06, "field", 20000u, 5032u, 0xc272feb1u},
      {"sz", 0, 0.0e+00, "field", 1000u, 8190u, 0x42ad4f92u},
      {"sz", 1, 1.0e-05, "field", 20000u, 4807u, 0xbdcd2106u},
      {"sz", 2, 1.0e-04, "field", 20000u, 4937u, 0xd7f2190bu},
      {"sz", 2, 1.0e-04, "spiky", 20000u, 11282u, 0x40a56e61u},
      {"sz", 2, 1.0e-04, "field", 1u, 113u, 0x19f5a274u},
      {"sz", 2, 1.0e-04, "field", 0u, 107u, 0xe25dc59fu},
      {"trunc", 0, 1.0e-06, "field", 20000u, 31284u, 0x50c44a66u},
      {"trunc", 1, 1.0e-05, "spiky", 20000u, 11556u, 0xdac33908u},
      {"deflate", 0, 0.0e+00, "field", 20000u, 143155u, 0xb0ddf79cu},
      {"shuffle-deflate", 0, 0.0e+00, "field", 20000u, 108871u, 0x038deaedu},
      {"shuffle-rle", 0, 0.0e+00, "spiky", 20000u, 40277u, 0x8748c687u},
      {"lz4", 0, 0.0e+00, "field", 20000u, 160468u, 0x03e2e9b5u},
      {"shuffle-lz4", 0, 0.0e+00, "spiky", 20000u, 48366u, 0xfbfa0b35u},
      {"zfp", 0, 1.0e-06, "field", 20000u, 67928u, 0x52d75c1bu},
      // eb = 0 on spiky data forces raw blocks: 64-bit writes of whole doubles.
      {"zfp", 0, 0.0e+00, "spiky", 20000u, 37952u, 0x060dac02u},
      {"deflate", 0, 0.0e+00, "ckpt", 12288u, 87089u, 0xb2a18fb8u},
      // SZ on one 4,096-element delta chunk: a narrow code band, codes at
      // both alphabet ends, codes 0 and 32,768 only, all outliers, and a
      // single code (recorded before SZ's Huffman setup was sized to the
      // codes a chunk uses).
      {"sz", 2, 1.0e-04, "field", 4096u, 889u, 0xb7b2e8a8u},
      {"sz", 0, 1.0e+00, "edges", 4096u, 711u, 0xd73366b0u},
      {"sz", 0, 0.0e+00, "spiky", 4096u, 5405u, 0x8106d99bu},
      {"sz", 0, 0.0e+00, "field", 4096u, 33345u, 0xa595e038u},
      {"sz", 0, 1.0e-06, "zeros", 4096u, 580u, 0x40051568u},
  };
  for (const Golden& g : goldens) {
    ErrorBound eb;
    switch (g.mode) {
      case 0: eb = ErrorBound::absolute(g.eb); break;
      case 1: eb = ErrorBound::value_range_rel(g.eb); break;
      default: eb = ErrorBound::pointwise_rel(g.eb); break;
    }
    const auto comp = make_compressor(g.comp, eb);
    const Vector v = golden_data(g.data, g.n);
    const auto stream = comp->compress(v);
    EXPECT_EQ(stream.size(), g.stream_size)
        << g.comp << " mode=" << g.mode << " n=" << g.n;
    EXPECT_EQ(crc32(stream), g.crc)
        << g.comp << " mode=" << g.mode << " n=" << g.n;
    // And the restructured decoder must still round-trip its own stream
    // (loose sanity bound; the precise per-mode bounds live in test_sz etc.).
    Vector out(g.n, 0.0);
    comp->decompress(stream, out);
    const double bound = g.eb == 0.0 ? 0.0 : 1.0;
    for (std::size_t i = 0; i < g.n; ++i)
      ASSERT_LE(std::fabs(out[i] - v[i]), bound) << g.comp << " i=" << i;
  }
}

TEST(CompressionGoldens, SzChunkCodeTablesCoverTheirCases) {
  const auto codes = [](double eb, const char* kind) {
    const auto stream =
        make_compressor("sz", ErrorBound::absolute(eb))
            ->compress(golden_data(kind, 4096));
    return sz_table_codes(stream);
  };
  const auto edges = codes(1.0, "edges");
  ASSERT_GE(edges.size(), 3u);
  EXPECT_EQ(edges[1], 1u) << "codes 0 (outliers) and 1 lead the table";
  EXPECT_EQ(edges.back(), 65535u);
  EXPECT_EQ(codes(0.0, "spiky"), (std::vector<std::uint32_t>{0, 32768}));
  EXPECT_EQ(codes(0.0, "field"), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(codes(1e-6, "zeros"), (std::vector<std::uint32_t>{32768}));
}

TEST(CompressionGoldens, SzDeltaChunkStream) {
  // One 48^3 vector through the delta chunk codec at its 4,096-element
  // chunk size: 27 SZ calls, each on a chunk of the whole field.
  const Vector v = golden_field(110592);
  const auto sz = make_compressor("sz", ErrorBound::pointwise_rel(1e-4));
  ByteWriter out;
  out.put(kDeltaMagic);
  out.put(kDeltaFormatVersion);
  out.put(std::int32_t{-1});  // full checkpoint: no base, chain length 0
  out.put(std::uint32_t{0});
  out.put(std::uint32_t{1});  // one variable
  out.put(std::int32_t{0});
  out.put_string("x");
  out.put(static_cast<std::uint8_t>(DeltaVarKind::kVector));
  std::vector<std::uint64_t> hashes;
  const ChunkEncodeStats stats =
      encode_chunked_vector(out, v, *sz, 4096, nullptr, hashes);
  EXPECT_EQ(stats.chunks, 27u);
  EXPECT_EQ(stats.refs, 0u);
  const auto bytes = std::move(out).take();
  EXPECT_EQ(bytes.size(), 29817u);
  EXPECT_EQ(crc32(bytes), 0x2f7b9b34u);
  EXPECT_EQ(crc64(bytes), 0x3b275ad6a8fce1ebull);
  const ParsedDeltaStream parsed = parse_delta_stream(bytes);
  ASSERT_EQ(parsed.vars.size(), 1u);
  Vector back(v.size());
  for (std::size_t c = 0; c < 27; ++c)
    sz->decompress(parsed.vars[0].chunks[c].payload,
                   {back.data() + c * 4096, 4096});
  for (std::size_t i = 0; i < v.size(); ++i)
    ASSERT_LE(std::fabs(back[i] - v[i]), 1e-4 * std::fabs(v[i])) << i;
}

TEST(CompressionGoldens, HuffmanPayloadAndHistogram) {
  Rng rng(9);
  std::vector<std::uint64_t> freqs_naive(512, 0);
  std::vector<std::uint32_t> symbols(100000);
  for (auto& s : symbols) {
    s = 256 + static_cast<std::uint32_t>(rng.normal(0.0, 30.0));
    ++freqs_naive[s];
  }
  // 8-way partial histogram == naive loop-carried histogram.
  const auto freqs = count_frequencies(symbols, 512);
  ASSERT_EQ(freqs.size(), freqs_naive.size());
  EXPECT_EQ(freqs, freqs_naive);

  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_EQ(crc32({lengths.data(), lengths.size()}), 0xaa067733u);
  const HuffmanEncoder enc(lengths);
  BitWriter bw;
  for (const auto s : symbols) enc.encode(bw, s);
  const auto payload = bw.finish();
  EXPECT_EQ(payload.size(), 87057u);
  EXPECT_EQ(crc32(payload), 0xe44275bcu);
}

TEST(CompressionGoldens, HuffmanLongCodePayload) {
  // Fibonacci frequencies build a maximally deep tree that the length
  // limiter flattens to 20-bit codes. Half the stream is drawn uniformly
  // over the alphabet, so most of those symbols have codes longer than an
  // 11-bit first-level decode table.
  std::vector<std::uint64_t> freqs(40);
  std::uint64_t a = 1, b = 1;
  for (auto& f : freqs) {
    f = a;
    const auto next = a + b;
    a = b;
    b = next;
  }
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_EQ(*std::max_element(lengths.begin(), lengths.end()), 20u);
  Rng rng(11);
  std::vector<std::uint32_t> symbols(20000);
  for (auto& s : symbols)
    s = rng.uniform() < 0.5 ? 39u
                            : static_cast<std::uint32_t>(rng.uniform_index(40));
  const HuffmanEncoder enc(lengths);
  BitWriter bw;
  for (const auto s : symbols) enc.encode(bw, s);
  const auto payload = bw.finish();
  EXPECT_EQ(payload.size(), 16807u);
  EXPECT_EQ(crc32(payload), 0xf8a0a14au);
  const HuffmanDecoder dec(lengths);
  BitReader br(payload);
  for (const auto s : symbols) ASSERT_EQ(dec.decode(br), s);
  EXPECT_LT(br.bits_remaining(), 8u);
}

TEST(CompressionGoldens, CountFrequenciesEdgeCases) {
  EXPECT_EQ(count_frequencies({}, 4), (std::vector<std::uint64_t>{0, 0, 0, 0}));
  const std::vector<std::uint32_t> syms{1, 1, 1, 1, 1, 2, 0};  // remainder tail
  const auto freq = count_frequencies(syms, 3);
  EXPECT_EQ(freq, (std::vector<std::uint64_t>{1, 5, 1}));
  // 8 × alphabet symbols and more take the partial histograms; a length
  // that is not a multiple of 8 leaves a remainder tail.
  std::vector<std::uint32_t> many;
  for (std::uint32_t i = 0; i < 29; ++i) many.push_back(i % 7 == 0 ? 2 : 1);
  EXPECT_EQ(count_frequencies(many, 3), (std::vector<std::uint64_t>{0, 24, 5}));
  many.pop_back();
  many.push_back(0);
  EXPECT_EQ(count_frequencies(many, 3), (std::vector<std::uint64_t>{1, 24, 4}));
}

}  // namespace
}  // namespace lck
