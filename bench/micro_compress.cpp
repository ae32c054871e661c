/// google-benchmark microbenchmarks for the compression stack: throughput
/// of each compressor on solver-like data, the parallel block pipeline's
/// thread scaling, plus the Huffman core and the CRCs.

#include <benchmark/benchmark.h>

#include <cmath>
#include <span>
#include <string>

#include "ckpt/chunk/chunk_hash.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "compress/block_compressor.hpp"
#include "compress/compressor.hpp"
#include "compress/huffman.hpp"
#include "compress/lossless/byte_codecs.hpp"
#include "parallel/parallel_for.hpp"
#include "sparse/vector_ops.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace {

lck::Vector solver_like(std::size_t n) {
  lck::Rng rng(5);
  lck::Vector v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(0.0005 * static_cast<double>(i)) + 2.0 +
           1e-6 * rng.uniform();
  return v;
}

void bm_compress(benchmark::State& state, const char* name) {
  const auto comp =
      lck::make_compressor(name, lck::ErrorBound::pointwise_rel(1e-4));
  const auto data = solver_like(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto stream = comp->compress(data);
    benchmark::DoNotOptimize(stream);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * 8));
}

void bm_decompress(benchmark::State& state, const char* name) {
  const auto comp =
      lck::make_compressor(name, lck::ErrorBound::pointwise_rel(1e-4));
  const auto data = solver_like(static_cast<std::size_t>(state.range(0)));
  const auto stream = comp->compress(data);
  lck::Vector out(data.size());
  for (auto _ : state) {
    comp->decompress(stream, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * 8));
}

/// Thread scaling of the parallel block pipeline: range(0) elements split
/// into BlockCompressor blocks, compressed on range(1) OpenMP threads.
/// The ratio of items/s between the 1-thread and N-thread rows is the
/// pipeline's parallel speedup (paper §5: compression must stay cheap
/// relative to the PFS write).
void bm_block_compress(benchmark::State& state, const char* name) {
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
  const auto comp = lck::make_compressor(std::string("block+") + name,
                                         lck::ErrorBound::pointwise_rel(1e-4));
  const auto data = solver_like(n);
  for (auto _ : state) {
    auto stream = comp->compress(data);
    benchmark::DoNotOptimize(stream);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * 8));
  state.counters["threads"] = threads;
#if defined(_OPENMP)
  omp_set_num_threads(prev_threads);
#endif
}

/// The 8-way interleaved symbol histogram vs the naive single-array loop.
/// Skewed input (most symbols equal) is the SZ common case and the worst
/// case for a single histogram array's store-to-load dependency chain.
void bm_histogram(benchmark::State& state, bool interleaved) {
  lck::Rng rng(9);
  std::vector<std::uint32_t> symbols(static_cast<std::size_t>(state.range(0)));
  for (auto& s : symbols)
    s = rng.uniform() < 0.9
            ? 32768u
            : static_cast<std::uint32_t>(rng.uniform() * 65536.0);
  for (auto _ : state) {
    if (interleaved) {
      auto freq = lck::count_frequencies(symbols, 65536);
      benchmark::DoNotOptimize(freq);
    } else {
      std::vector<std::uint64_t> freq(65536, 0);
      for (const auto s : symbols) ++freq[s];
      benchmark::DoNotOptimize(freq);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(symbols.size()));
}

void bm_histogram_8way(benchmark::State& state) { bm_histogram(state, true); }
void bm_histogram_naive(benchmark::State& state) { bm_histogram(state, false); }

/// Tiled byte shuffle (the truncation/deflate/lz4 pre-pass).
void bm_shuffle(benchmark::State& state) {
  const auto data = solver_like(static_cast<std::size_t>(state.range(0)));
  const std::span<const lck::byte_t> bytes{
      reinterpret_cast<const lck::byte_t*>(data.data()), data.size() * 8};
  for (auto _ : state) {
    auto out = lck::shuffle_bytes(bytes, sizeof(double));
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}

void bm_huffman_encode(benchmark::State& state) {
  lck::Rng rng(9);
  std::vector<std::uint64_t> freqs(65536, 0);
  std::vector<std::uint32_t> symbols(1 << 16);
  for (auto& s : symbols) {
    s = 32768 + static_cast<std::uint32_t>(rng.normal(0.0, 40.0));
    ++freqs[s];
  }
  const auto lengths = lck::huffman_code_lengths(freqs);
  const lck::HuffmanEncoder enc(lengths);
  for (auto _ : state) {
    lck::BitWriter bw;
    for (const auto s : symbols) enc.encode(bw, s);
    auto out = bw.finish();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(symbols.size()));
}

/// Table-driven canonical Huffman decode of the bm_huffman_encode stream
/// (SZ-like quantization codes: a 65536-symbol alphabet, mostly short codes
/// with a tail longer than the decoder's first-level table).
void bm_huffman_decode(benchmark::State& state) {
  lck::Rng rng(9);
  std::vector<std::uint64_t> freqs(65536, 0);
  std::vector<std::uint32_t> symbols(1 << 16);
  for (auto& s : symbols) {
    s = 32768 + static_cast<std::uint32_t>(rng.normal(0.0, 40.0));
    ++freqs[s];
  }
  const auto lengths = lck::huffman_code_lengths(freqs);
  const lck::HuffmanEncoder enc(lengths);
  lck::BitWriter bw;
  for (const auto s : symbols) enc.encode(bw, s);
  const auto payload = bw.finish();
  const lck::HuffmanDecoder dec(lengths);
  for (auto _ : state) {
    lck::BitReader br(payload);
    std::uint32_t sum = 0;
    for (std::size_t i = 0; i < symbols.size(); ++i) sum += dec.decode(br);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(symbols.size()));
}

/// Byte-wise-equivalent slicing-by-8 CRCs over 4 MiB of solver-like
/// doubles: frame CRCs on write and read, delta chunk hashes and dedup keys.
template <typename Crc>
void bm_crc(benchmark::State& state) {
  const auto data = solver_like(static_cast<std::size_t>(state.range(0)));
  const std::span<const lck::byte_t> bytes{
      reinterpret_cast<const lck::byte_t*>(data.data()), data.size() * 8};
  for (auto _ : state) {
    Crc crc;
    crc.update(bytes);
    benchmark::DoNotOptimize(crc.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}

void bm_crc32(benchmark::State& state) { bm_crc<lck::Crc32>(state); }
void bm_crc64(benchmark::State& state) { bm_crc<lck::Crc64>(state); }

}  // namespace

// 1 << 12 doubles is the delta checkpoint's chunk: one SZ call per chunk.
BENCHMARK_CAPTURE(bm_compress, sz, "sz")
    ->Arg(1 << 12)
    ->Arg(1 << 16)
    ->Arg(1 << 20);
BENCHMARK_CAPTURE(bm_compress, zfp, "zfp")->Arg(1 << 16)->Arg(1 << 20);
// 1 << 18 doubles is the 2 MiB vector of the resilient-solve benchmark's
// 64^3 CG problem.
BENCHMARK_CAPTURE(bm_compress, deflate, "deflate")->Arg(1 << 16)->Arg(1 << 18);
BENCHMARK_CAPTURE(bm_compress, shuffle_rle, "shuffle-rle")->Arg(1 << 20);
BENCHMARK_CAPTURE(bm_decompress, sz, "sz")
    ->Arg(1 << 12)
    ->Arg(1 << 16)
    ->Arg(1 << 20);
BENCHMARK_CAPTURE(bm_decompress, zfp, "zfp")->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK_CAPTURE(bm_decompress, deflate, "deflate")
    ->Arg(1 << 16)
    ->Arg(1 << 18);
BENCHMARK(bm_huffman_encode);
BENCHMARK(bm_huffman_decode);
BENCHMARK(bm_histogram_8way)->Arg(1 << 22);
BENCHMARK(bm_histogram_naive)->Arg(1 << 22);
BENCHMARK(bm_shuffle)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(bm_crc32)->Arg(1 << 19);
BENCHMARK(bm_crc64)->Arg(1 << 19);

// Parallel block-pipeline scaling: 8M-element vector (the paper's per-rank
// dynamic state is of this order) on 1/2/4/8 threads.
BENCHMARK_CAPTURE(bm_block_compress, sz, "sz")
    ->Args({8 << 20, 1})
    ->Args({8 << 20, 2})
    ->Args({8 << 20, 4})
    ->Args({8 << 20, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(bm_block_compress, deflate, "deflate")
    ->Args({8 << 20, 1})
    ->Args({8 << 20, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK_MAIN();
