/// google-benchmark microbenchmarks for the solver substrate: SpMV,
/// preconditioner application, single iterations of each method, and the
/// thread scaling of the deterministic fixed-partition vector reductions.

#include <benchmark/benchmark.h>

#include "core/experiment.hpp"
#include "solvers/factory.hpp"
#include "sparse/gen/poisson3d.hpp"
#include "sparse/vector_ops.hpp"
#include "support/reference_spmv.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace {

void bm_spmv(benchmark::State& state) {
  const lck::index_t n = state.range(0);
  const auto a = lck::poisson3d_spd(n);
  lck::Vector x(a.rows(), 1.0), y(a.rows());
  for (auto _ : state) {
    a.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          a.nnz());
}

/// Plain row loop pairing bm_spmv: the bm_spmv/bm_spmv_rowwise items/s
/// ratio at equal Arg is the cache-blocked plan's raw speedup.
void bm_spmv_rowwise(benchmark::State& state) {
  const lck::index_t n = state.range(0);
  const auto a = lck::poisson3d_spd(n);
  lck::Vector x(a.rows(), 1.0), y(a.rows());
  for (auto _ : state) {
    lck::multiply_rowwise(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          a.nnz());
}

void bm_preconditioner(benchmark::State& state, const char* name) {
  const auto a = lck::poisson3d_spd(24);
  const auto m = lck::make_preconditioner(name, a, 8);
  lck::Vector r(a.rows(), 1.0), z(a.rows());
  for (auto _ : state) {
    m->apply(r, z);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          a.rows());
}

void bm_solver_step(benchmark::State& state, const char* method) {
  const lck::LocalProblem p = lck::make_local_problem(method, 20, 1e-14,
                                                      1 << 30, false);
  auto solver = p.make_solver();
  for (auto _ : state) {
    auto st = solver->step();
    benchmark::DoNotOptimize(st);
    if (solver->converged()) {
      state.PauseTiming();
      solver->restart(lck::Vector(p.a.rows(), 0.0));
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          p.a.nnz());
}

/// Thread scaling of the deterministic reductions: range(0) elements
/// reduced on range(1) OpenMP threads. The fixed partition means the
/// *result* is bit-identical across the rows — only the time changes —
/// so the ratio of items/s between the 1-thread and N-thread rows is the
/// reduction's parallel speedup. (On a 1-core container the real-time rows
/// coincide; re-measure on a multicore host.)
template <typename Kernel>
void bm_reduction(benchmark::State& state, Kernel&& kernel) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
#if defined(_OPENMP)
  const int prev_threads = omp_get_max_threads();
  omp_set_num_threads(threads);
#else
  if (threads > 1) {
    state.SkipWithError("built without OpenMP");
    return;
  }
#endif
  lck::Vector x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(0.001 * static_cast<double>(i)) + 2.0;
    y[i] = std::cos(0.002 * static_cast<double>(i)) - 1.5;
  }
  for (auto _ : state) {
    double v = kernel(x, y);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["threads"] = threads;
#if defined(_OPENMP)
  omp_set_num_threads(prev_threads);
#endif
}

void bm_dot(benchmark::State& state) {
  bm_reduction(state, [](const lck::Vector& x, const lck::Vector& y) {
    return lck::dot(x, y);
  });
}

void bm_norm2(benchmark::State& state) {
  bm_reduction(state, [](const lck::Vector& x, const lck::Vector&) {
    return lck::norm2(x);
  });
}

void bm_norm_inf(benchmark::State& state) {
  bm_reduction(state, [](const lck::Vector& x, const lck::Vector&) {
    return lck::norm_inf(x);
  });
}

// Fused kernels vs their unfused primitive sequences, on the same
// fixed-partition reduction substrate. Each fused/unfused pair at equal
// (elements, threads) produces bit-identical values; the items/s gap is the
// saved memory traffic. `y` is mutated by the axpy, but the tiny alpha keeps
// values in range across iterations.
void bm_dot_axpy(benchmark::State& state) {
  bm_reduction(state, [](const lck::Vector& x, const lck::Vector& y) {
    auto& xm = const_cast<lck::Vector&>(x);
    auto& ym = const_cast<lck::Vector&>(y);
    return lck::dot_axpy(x, y, 1e-12, xm, ym).rr;
  });
}

void bm_dot_axpy_unfused(benchmark::State& state) {
  bm_reduction(state, [](const lck::Vector& x, const lck::Vector& y) {
    auto& xm = const_cast<lck::Vector&>(x);
    auto& ym = const_cast<lck::Vector&>(y);
    const double pq = lck::dot(x, y);
    const double alpha = 1e-12 / pq;
    lck::axpy(alpha, x, xm);
    lck::axpy(-alpha, y, ym);
    return lck::norm2(y);
  });
}

void bm_axpy_norm2(benchmark::State& state) {
  bm_reduction(state, [](const lck::Vector& x, const lck::Vector& y) {
    return lck::axpy_norm2(1e-12, x, const_cast<lck::Vector&>(y));
  });
}

void bm_axpy_norm2_unfused(benchmark::State& state) {
  bm_reduction(state, [](const lck::Vector& x, const lck::Vector& y) {
    lck::axpy(1e-12, x, const_cast<lck::Vector&>(y));
    return lck::norm2(y);
  });
}

void bm_dot2(benchmark::State& state) {
  bm_reduction(state, [](const lck::Vector& x, const lck::Vector& y) {
    const auto [a, b] = lck::dot2(x, y, x);
    return a + b;
  });
}

void bm_dot2_unfused(benchmark::State& state) {
  bm_reduction(state, [](const lck::Vector& x, const lck::Vector& y) {
    return lck::dot(x, y) + lck::dot(x, x);
  });
}

}  // namespace

BENCHMARK(bm_spmv)->Arg(16)->Arg(32)->Arg(48);
BENCHMARK(bm_spmv_rowwise)->Arg(16)->Arg(32)->Arg(48);
BENCHMARK_CAPTURE(bm_preconditioner, jacobi, "jacobi");
BENCHMARK_CAPTURE(bm_preconditioner, bjacobi, "bjacobi");
BENCHMARK_CAPTURE(bm_preconditioner, ilu0, "ilu0");
BENCHMARK_CAPTURE(bm_preconditioner, ic0, "ic0");
BENCHMARK_CAPTURE(bm_solver_step, jacobi, "jacobi");
BENCHMARK_CAPTURE(bm_solver_step, cg, "cg");
BENCHMARK_CAPTURE(bm_solver_step, gmres, "gmres");
BENCHMARK_CAPTURE(bm_solver_step, bicgstab, "bicgstab");
BENCHMARK(bm_dot)
    ->ArgsProduct({{8 << 20}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_norm2)
    ->ArgsProduct({{8 << 20}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_norm_inf)
    ->ArgsProduct({{8 << 20}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_dot_axpy)
    ->ArgsProduct({{8 << 20}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_dot_axpy_unfused)
    ->ArgsProduct({{8 << 20}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_axpy_norm2)
    ->ArgsProduct({{8 << 20}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_axpy_norm2_unfused)
    ->ArgsProduct({{8 << 20}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_dot2)
    ->ArgsProduct({{8 << 20}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_dot2_unfused)
    ->ArgsProduct({{8 << 20}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
