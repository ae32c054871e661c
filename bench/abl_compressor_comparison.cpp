/// Ablation: compressor comparison on real solver vectors — justifies the
/// paper's choice of SZ for 1-D checkpoint data (§5.1: "SZ has a better
/// performance for 1D data sets" than ZFP/transform coders).
///
/// Compares SZ-like, ZFP-like (via the pointwise-relative adapter),
/// deflate-like, shuffle+deflate, shuffle+RLE and RLE on the CG solution
/// vector at mid-convergence and near-convergence: ratio, local
/// compress/decompress throughput, max pointwise relative error.

#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "common/timer.hpp"

namespace {

void evaluate(const char* stage, const lck::Vector& x) {
  using namespace lck;
  std::printf("\n--- %s (n = %zu) ---\n", stage, x.size());
  std::printf("%-18s %-9s %-14s %-14s %-14s\n", "compressor", "ratio",
              "comp MB/s", "decomp MB/s", "max rel err");
  for (const char* name :
       {"sz", "zfp", "trunc", "deflate", "shuffle-deflate",
        "shuffle-rle", "rle"}) {
    const auto comp = make_compressor(name, ErrorBound::pointwise_rel(1e-4));
    WallTimer tc;
    const auto stream = comp->compress(x);
    const double comp_s = tc.seconds();
    Vector out(x.size());
    WallTimer td;
    comp->decompress(stream, out);
    const double decomp_s = td.seconds();

    double max_rel = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      if (x[i] != 0.0)
        max_rel = std::max(max_rel, std::fabs(x[i] - out[i]) / std::fabs(x[i]));

    const double mb = static_cast<double>(x.size()) * sizeof(double) / 1e6;
    std::printf("%-18s %-9.2f %-14.1f %-14.1f %-14.2e\n", name,
                static_cast<double>(x.size() * sizeof(double)) /
                    static_cast<double>(stream.size()),
                mb / comp_s, mb / decomp_s, max_rel);
  }
}

}  // namespace

int main() {
  using namespace lck;
  bench::banner("Ablation — compressor comparison on solver vectors",
                "Tao et al., HPDC'18 §5.1 (choice of SZ over ZFP/gzip)");

  const LocalProblem p = make_local_problem("cg", 24, 1e-9, 200000, false);
  auto probe = p.make_solver();
  probe->solve();
  const index_t total = probe->iteration();

  auto solver = p.make_solver();
  for (index_t i = 0; i < total / 2; ++i) solver->step();
  evaluate("CG iterate at 50% convergence", solver->solution());
  while (!solver->converged()) solver->step();
  evaluate("CG iterate at convergence", solver->solution());

  std::printf(
      "\nExpected: SZ-class prediction coding wins on ratio for 1-D solver "
      "vectors (paper's rationale for SZ); lossless ratios stay near 1-2x "
      "on Krylov data; all lossy errors respect the 1e-4 bound.\n");
  return 0;
}
