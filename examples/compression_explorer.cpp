/// Domain scenario 2 — scientific-data compression study: evaluate every
/// compressor in the library on several field types at several error
/// bounds, the workflow an HPC engineer follows when choosing a
/// checkpoint compressor for their application (paper §2, §5.1).
///
///   build/examples/compression_explorer

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "common/rng.hpp"
#include "compress/compressor.hpp"
#include "sparse/vector_ops.hpp"

namespace {

using lck::Vector;

std::map<std::string, Vector> make_fields(std::size_t n) {
  lck::Rng rng(31);
  std::map<std::string, Vector> fields;

  Vector smooth(n);
  for (std::size_t i = 0; i < n; ++i)
    smooth[i] = std::sin(6.28 * static_cast<double>(i) / static_cast<double>(n)) *
                    2.0 + 3.0;
  fields["smooth (PDE solution)"] = std::move(smooth);

  Vector noisy(n);
  for (std::size_t i = 0; i < n; ++i)
    noisy[i] = std::sin(0.01 * static_cast<double>(i)) +
               0.01 * rng.uniform(-1.0, 1.0);
  fields["smooth + 1% noise"] = std::move(noisy);

  Vector turbulent(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += rng.uniform(-1.0, 1.0) * 0.1;  // random walk: multiscale field
    turbulent[i] = acc;
  }
  fields["random walk (turbulence-like)"] = std::move(turbulent);

  Vector sparse_field(n, 0.0);
  for (std::size_t i = 0; i < n / 50; ++i)
    sparse_field[rng.uniform_index(n)] = rng.uniform(-5.0, 5.0);
  fields["sparse spikes"] = std::move(sparse_field);

  return fields;
}

}  // namespace

int main() {
  using namespace lck;
  constexpr std::size_t kN = 1u << 18;
  const auto fields = make_fields(kN);

  for (const auto& [field_name, data] : fields) {
    std::printf("\n=== %s (%zu doubles) ===\n", field_name.c_str(),
                data.size());
    std::printf("%-18s %-12s %-10s\n", "compressor", "eb", "ratio");
    for (const char* name : {"deflate", "shuffle-deflate", "shuffle-rle"}) {
      const auto comp = make_compressor(name);
      std::printf("%-18s %-12s %-10.2f\n", name, "lossless",
                  compression_ratio(*comp, data));
    }
    for (const char* name : {"sz", "zfp"}) {
      for (const double eb : {1e-2, 1e-4, 1e-6}) {
        const auto comp = make_compressor(name, ErrorBound::pointwise_rel(eb));
        std::printf("%-18s %-12.0e %-10.2f\n", name, eb,
                    compression_ratio(*comp, data));
      }
    }
  }
  std::printf(
      "\nTakeaway (matches paper §2): lossless tops out near 2x on "
      "floating-point fields; error-bounded lossy compression reaches "
      "10-100x on smooth data, degrading gracefully with entropy.\n");
  return 0;
}
