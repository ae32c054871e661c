/// solvebench — real-time resilient-solve benchmark.
///
///   solvebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// --trace 0 measures the end-to-end metrics on the workload's fixed failure
/// trace: real wall time of ResilientRunner::run() to a verified solution
/// (fleet: the makespan of all jobs), set-up time, peak memory and the
/// run's deterministic outcomes.
/// --trace 1 runs the workload on the failure stream of --seed once
/// untraced and once with timing decorators, replays the layer calls on the
/// same problem, and reports the per-layer metrics plus a Chrome trace in
/// .bench_build/solvebench-out.
///
/// Human-readable lines go first; the last line of standard output is one
/// JSON object {"correct", "attempted", "failed", "metrics"}. See README.md
/// for the workloads and the meaning of every metric.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "ckpt/checkpoint_manager.hpp"
#include "common/simd.hpp"
#include "timing.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace solvebench;

#ifndef SOLVEBENCH_BUILD_TYPE
#define SOLVEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Calls per replayed layer operation; per-call figures are medians.
constexpr int kReplayCalls = 5;
constexpr int kReplaySpmvs = 30;
constexpr int kReplayCheckpoints = 3;
/// memcpy roofline: arrays of this many last-level caches each.
constexpr double kMemcpyLlcMultiple = 4.0;
constexpr int kMemcpyRepeats = 5;
/// Stores, scratch files and Chrome traces, relative to the working
/// directory (the checkout's root).
constexpr const char* kOutDir = ".bench_build/solvebench-out";

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "solvebench: %s\nusage: solvebench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
        have[0] = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
        have[1] = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
        have[2] = true;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
        have[3] = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3]))
    usage("--workload, --seed, --seconds and --trace are required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Time one call as a span named `name` in `log`; returns its seconds.
double timed(SpanLog& log, const std::string& name,
             const std::function<void()>& fn) {
  const double t0 = log.now();
  { Span span(&log, name); fn(); }
  return log.now() - t0;
}

int team_size() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

long host_cores() { return sysconf(_SC_NPROCESSORS_ONLN); }

/// Bytes of the last-level (L3) cache, 32 MiB when the host does not say.
std::size_t llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::size_t>(l3);
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (f >> s && !s.empty()) {
    std::size_t mult = 1;
    if (s.back() == 'K') mult = std::size_t{1} << 10;
    if (s.back() == 'M') mult = std::size_t{1} << 20;
    try {
      return static_cast<std::size_t>(std::stoull(s)) * mult;
    } catch (const std::logic_error&) {
    }
  }
  return std::size_t{32} << 20;
}

/// Cumulative CPU ticks of the host (all CPUs) and the part the hypervisor
/// stole from this machine, from /proc/stat (both 0 where unavailable).
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string label;
  CpuTicks t;
  f >> label;
  double v = 0.0;
  // user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8 && f >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Percent of CPU time stolen between two samples: shared-host contention
/// that slows every thread of a run at once.
double steal_percent(const CpuTicks& a, const CpuTicks& b) {
  const double total = b.total - a.total;
  return total > 0.0 ? 100.0 * (b.steal - a.steal) / total : 0.0;
}

/// Return freed heap to the system and restart the kernel's count of this
/// process's peak resident memory from the current one, so that
/// peak_rss_mb() reports what comes after (the timed solves), not set-up.
/// False where the kernel offers no reset.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// Peak resident memory since the last reset_peak_rss() (VmHWM).
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB → MB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void print_environment(const Workload& w) {
  const auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr ? v : "(unset)";
  };
  std::printf(
      "# env: workload=%s solver_team=%d OMP_NUM_THREADS=%s "
      "OMP_WAIT_POLICY=%s MALLOC_ARENA_MAX=%s isa=%s nproc=%ld "
      "llc_bytes=%zu build=%s\n",
      w.name.c_str(), team_size(), env("OMP_NUM_THREADS"),
      env("OMP_WAIT_POLICY"), env("MALLOC_ARENA_MAX"),
      lck::simd::isa_name(lck::simd::active_isa()), host_cores(), llc_bytes(),
      SOLVEBENCH_BUILD_TYPE);
}

/// One JSON metric value with every digit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::string body;
  for (const Metric& m : metrics) {
    // A non-finite figure is a broken measurement: report it as such.
    if (!std::isfinite(m.value)) {
      std::printf("metric %s is not finite\n", m.name.c_str());
      correct = false;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    body += (body.empty() ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, body.c_str());
  std::fflush(stdout);
}

/// Real (local) stored MB per committed checkpoint of one job.
double ckpt_mb(const Prepared& p, const Outcome& o) {
  const lck::ResilienceConfig cfg = make_config(p, 0);
  return o.mean_ckpt_stored_bytes / cfg.dynamic_scale / 1e6;
}

/// Scratch directories for stores, unique per process.
class Scratch {
 public:
  explicit Scratch(const std::string& out_dir)
      : root_(out_dir + "/tmp-" + std::to_string(getpid())) {
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  /// A fresh, not yet existing path under the root.
  std::string next(const std::string& tag) {
    return root_ + "/" + tag + "-" + std::to_string(counter_++);
  }

 private:
  std::string root_;
  int counter_ = 0;
};

struct Setup {
  std::vector<Prepared> preps;
  std::vector<double> seconds;
};

/// Set up the workload `repeats` times (matrix, right-hand side, the
/// failure-free reference solve and the store directory); keeps the last,
/// freeing each earlier one before the next is built.
Setup run_setup(const Workload& w, Scratch& scratch, int repeats) {
  Setup s;
  for (int k = 0; k < repeats; ++k) {
    s.preps.clear();
    const auto t0 = std::chrono::steady_clock::now();
    for (const JobSpec& spec : w.jobs) s.preps.push_back(prepare(spec));
    const std::string dir = scratch.next("setup");
    fs::create_directories(dir);
    s.seconds.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    fs::remove_all(dir);
  }
  return s;
}

/// Counts the jobs of one workload run that failed outside verification
/// or did not reproduce `expected` (when given) exactly.
long count_failures(const WorkloadRun& run,
                    const std::vector<Outcome>* expected,
                    std::uint64_t expected_l3_physical) {
  long failed = 0;
  for (std::size_t j = 0; j < run.jobs.size(); ++j) {
    const JobRun& jr = run.jobs[j];
    bool ok = jr.verified && jr.error.empty();
    if (expected != nullptr && !(jr.outcome == (*expected)[j])) ok = false;
    if (!ok) ++failed;
  }
  if (expected != nullptr && run.l3_physical_bytes != expected_l3_physical &&
      failed == 0)
    failed = 1;
  return failed;
}

void print_run(const char* tag, std::uint64_t seed, const WorkloadRun& run,
               const std::vector<Prepared>& preps) {
  std::printf("%s run (failure seed %llu): wall %.3f s\n", tag,
              static_cast<unsigned long long>(seed), run.wall_seconds);
  for (std::size_t j = 0; j < run.jobs.size(); ++j) {
    const JobRun& jr = run.jobs[j];
    const Outcome& o = jr.outcome;
    std::printf(
        "  %-9s %.3f s  steps %lld  iters %lld (N %lld, N' %lld)  "
        "failures %d  ckpts %d  recoveries %d  model.tt %.1f s  "
        "ckpt %.3f MB  true rel res %.3e  %s%s\n",
        preps[j].spec.method.c_str(), jr.wall_seconds,
        static_cast<long long>(o.executed_steps),
        static_cast<long long>(o.convergence_iteration),
        static_cast<long long>(preps[j].failure_free_iterations),
        static_cast<long long>(o.convergence_iteration -
                               preps[j].failure_free_iterations),
        o.failures, o.checkpoints, o.recoveries, o.virtual_seconds,
        ckpt_mb(preps[j], o), jr.true_rel_residual,
        jr.verified ? "verified" : "NOT VERIFIED ", jr.error.c_str());
  }
  if (run.l3_logical_bytes > 0)
    std::printf("  shared L3: physical %llu B, logical %llu B, %llu writes, "
                "%llu admission waits\n",
                static_cast<unsigned long long>(run.l3_physical_bytes),
                static_cast<unsigned long long>(run.l3_logical_bytes),
                static_cast<unsigned long long>(run.l3_writes),
                static_cast<unsigned long long>(run.admission_waits));
  std::fflush(stdout);
}

// ----- --trace 0: end-to-end -------------------------------------------------

int measure_end_to_end(const Options& opt, const Workload& w) {
  Scratch scratch(kOutDir);
  const Setup setup = run_setup(w, scratch, kSetupRepeats);
  const auto& preps = setup.preps;
  if (!reset_peak_rss())
    std::printf("peak_rss_mb: the kernel cannot reset the peak; it includes "
                "set-up\n");

  // The timed solves replay the workload's fixed failure trace, so the
  // spread between runs is the host's, not the failure draw's (one lossy
  // restart more or less moves a solve by tens of percent). A first,
  // untimed solve warms the caches and gives the outcome every timed solve
  // must reproduce exactly. A timed solve starts only if it should end
  // within --seconds, judged by the previous one.
  long attempted = 0;
  long failed = 0;
  const WorkloadRun first =
      run_workload(w, preps, kTraceSeed, scratch.next("run"), nullptr);
  print_run("warm-up", kTraceSeed, first, preps);
  attempted += static_cast<long>(first.jobs.size());
  failed += count_failures(first, nullptr, 0);
  std::vector<Outcome> expected;
  for (const JobRun& jr : first.jobs) expected.push_back(jr.outcome);

  std::vector<double> walls;
  const CpuTicks ticks0 = cpu_ticks();
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  do {
    const WorkloadRun run =
        run_workload(w, preps, kTraceSeed, scratch.next("run"), nullptr);
    print_run("timed", kTraceSeed, run, preps);
    attempted += static_cast<long>(run.jobs.size());
    walls.push_back(run.wall_seconds);
    failed += count_failures(run, &expected, first.l3_physical_bytes);
  } while (elapsed() + walls.back() <= opt.seconds);
  std::vector<double> mb;
  std::vector<double> iters;
  std::vector<double> tt;
  for (std::size_t j = 0; j < preps.size(); ++j) {
    const Outcome& o = first.jobs[j].outcome;
    mb.push_back(ckpt_mb(preps[j], o));
    iters.push_back(static_cast<double>(o.convergence_iteration));
    tt.push_back(o.virtual_seconds);
  }
  std::printf("time_to_solution_s: median of %zu timed runs:", walls.size());
  for (const double t : walls) std::printf(" %.3f", t);
  std::printf(" s (host CPU stolen meanwhile: %.1f%%)",
              steal_percent(ticks0, cpu_ticks()));
  std::printf("\nsetup_s: median of %d:", kSetupRepeats);
  for (const double t : setup.seconds) std::printf(" %.3f", t);
  std::printf(" s\nfail_ratio: %ld / %ld\n", failed, attempted);

  const std::vector<Metric> metrics = {
      {"time_to_solution_s", median(walls), "s"},
      {"setup_s", median(setup.seconds), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ckpt_mb", mean(mb), "MB"},
      {"iterations", mean(iters), "count"},
      {"model.tt_s", mean(tt), "model_s"},
  };
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

// ----- --trace 1: per-layer -------------------------------------------------

/// Parallel memcpy over the OpenMP team between two arrays of `bytes`
/// each (first-touched by the same team); returns the median GB/s counting
/// read plus write traffic.
double memcpy_gbps(std::size_t bytes, SpanLog& log) {
  const std::size_t block = std::size_t{1} << 20;
  const auto blocks = static_cast<long>((bytes + block - 1) / block);
  std::unique_ptr<char[]> src(new char[bytes]);
  std::unique_ptr<char[]> dst(new char[bytes]);
  const auto copy = [&](bool touch) {
#pragma omp parallel for schedule(static)
    for (long b = 0; b < blocks; ++b) {
      const std::size_t off = static_cast<std::size_t>(b) * block;
      const std::size_t n = std::min(block, bytes - off);
      if (touch) {
        std::memset(src.get() + off, static_cast<int>(b & 0x7f), n);
        std::memset(dst.get() + off, 0, n);
      } else {
        std::memcpy(dst.get() + off, src.get() + off, n);
      }
    }
  };
  copy(true);
  std::vector<double> rates;
  for (int k = 0; k < kMemcpyRepeats; ++k) {
    const double s = timed(log, "host.memcpy", [&] { copy(false); });
    rates.push_back(2.0 * static_cast<double>(bytes) / s / 1e9);
  }
  if (dst[bytes - 1] != src[bytes - 1]) throw std::runtime_error("memcpy");
  return median(rates);
}

/// Replayed solver-layer medians of one job.
struct SolverReplay {
  double step_s = 0.0;
  double spmv_s = 0.0;
  double restart_s = 0.0;
  double spmv_bytes = 0.0;  ///< Computed bytes one SpMV moves.
};

/// Times restart(), then steps `solver` from a zero guess half way to the
/// failure-free N (the state the checkpoint and codec replays then work
/// on: mid-solve, like the run's checkpoints, not already converged), then
/// SpMV on that state.
SolverReplay replay_solver(const Prepared& p, lck::IterativeSolver& solver,
                           SpanLog& log) {
  SolverReplay r;
  const lck::CsrMatrix& a = p.problem.a;
  const lck::Vector zero(static_cast<std::size_t>(a.rows()), 0.0);
  std::vector<double> restarts;
  std::vector<double> steps;
  std::vector<double> spmvs;
  for (int k = 0; k < kReplayCalls; ++k)
    restarts.push_back(timed(log, "solvers.restart",
                             [&] { solver.restart(zero); }));
  const lck::index_t half =
      std::max<lck::index_t>(1, p.failure_free_iterations / 2);
  for (lck::index_t k = 0; k < half; ++k)
    steps.push_back(timed(log, "solvers.step", [&] { (void)solver.step(); }));
  const lck::Vector x = solver.solution();
  lck::Vector y(x.size(), 0.0);
  for (int k = 0; k < kReplaySpmvs; ++k)
    spmvs.push_back(timed(log, "sparse.spmv", [&] { a.multiply(x, y); }));
  r.step_s = median(steps);
  r.spmv_s = median(spmvs);
  r.restart_s = median(restarts);
  // Computed, not measured: every value, column index and row pointer read
  // once, x read once, y written once.
  r.spmv_bytes = static_cast<double>(
      a.values().size_bytes() + a.col_idx().size_bytes() +
      a.row_ptr().size_bytes() + 2 * x.size() * sizeof(double));
  return r;
}

/// Codec rates of one vector (medians of kReplayCalls calls each).
struct CodecReplay {
  double raw_bytes = 0.0;
  double stored_bytes = 0.0;
  double compress_s = 0.0;
  double decompress_s = 0.0;
};

CodecReplay replay_codec(const std::string& name, const lck::Vector& x,
                         SpanLog& log) {
  const auto codec =
      lck::make_compressor(name, lck::ErrorBound::pointwise_rel(1e-4));
  std::vector<lck::byte_t> stream;
  std::vector<double> c;
  std::vector<double> d;
  lck::Vector out(x.size(), 0.0);
  for (int k = 0; k < kReplayCalls; ++k)
    c.push_back(timed(log, "compress." + name,
                      [&] { stream = codec->compress(x); }));
  for (int k = 0; k < kReplayCalls; ++k)
    d.push_back(timed(log, "decompress." + name,
                      [&] { codec->decompress(stream, out); }));
  return {static_cast<double>(x.size() * sizeof(double)),
          static_cast<double>(stream.size()), median(c), median(d)};
}

/// Replayed checkpoint-layer medians of one job.
struct CkptReplay {
  double checkpoint_s = 0.0;  ///< Whole checkpoint: sync call, or
                              ///< stage + drain wait + commit.
  double stage_s = 0.0;
  double drain_wait_s = 0.0;
  double commit_s = 0.0;
  double recover_s = 0.0;
  double frame_self_s = 0.0;
  bool blobs_identical = false;
};

/// The checkpoint variables of one job, registered the way the runner does
/// (lossy: x plus the iteration blob; otherwise every dynamic vector plus
/// the scalar blob) with a per-variable compressor override.
struct Registration {
  std::vector<lck::byte_t> blob;
  lck::Vector restore;
};

/// Refresh the protected state before a checkpoint, as the runner does:
/// materialize x (GMRES keeps it implicit) and re-serialize the blob.
void capture_like_runner(lck::IterativeSolver& s, const Prepared& p,
                         Registration& reg) {
  (void)s.solution();
  lck::ByteWriter bw;
  if (p.spec.scheme == lck::CkptScheme::kLossy)
    bw.put(static_cast<std::int64_t>(s.iteration()));
  else
    s.save_scalars(bw);
  reg.blob = std::move(bw).take();
}

void register_like_runner(lck::CheckpointManager& m, lck::IterativeSolver& s,
                          const Prepared& p, const lck::Compressor& codec,
                          Registration& reg) {
  capture_like_runner(s, p, reg);
  if (p.spec.scheme == lck::CkptScheme::kLossy) {
    const lck::Vector& x = s.solution();
    reg.restore.assign(x.size(), 0.0);
    m.protect(0, "x", &x, &reg.restore, &codec);
    m.protect_blob(1, "iter", &reg.blob);
  } else {
    int id = 0;
    for (const auto& var : s.checkpoint_vectors())
      m.protect(id++, var.name, var.data, &codec);
    m.protect_blob(100, "scalars", &reg.blob);
  }
  m.set_retention(p.spec.mode == lck::CkptMode::kTiered ? (1 << 28) : 2);
  if (p.spec.delta_chain > 0) m.set_delta(p.spec.delta_chain);
}

/// One checkpoint through `m` in the job's mode; returns its version.
int checkpoint_once(lck::CheckpointManager& m, lck::CkptMode mode,
                    SpanLog* log, CkptReplay* times) {
  if (mode == lck::CkptMode::kSync) {
    int v = -1;
    const auto call = [&] { v = m.checkpoint().version; };
    if (log == nullptr) call();
    else times->checkpoint_s = timed(*log, "ckpt.checkpoint", call);
    return v;
  }
  int v = -1;
  if (log == nullptr) {
    v = m.stage().version;
    (void)m.wait_drain(v);
    m.commit_version(v);
    return v;
  }
  times->stage_s = timed(*log, "ckpt.stage", [&] { v = m.stage().version; });
  times->drain_wait_s =
      timed(*log, "ckpt.drain_wait", [&] { (void)m.wait_drain(v); });
  times->commit_s =
      timed(*log, "ckpt.commit", [&] { m.commit_version(v); });
  times->checkpoint_s = times->stage_s + times->drain_wait_s + times->commit_s;
  return v;
}

/// Replays checkpoint/stage/wait_drain/commit_version/recover of one job on
/// `solver`'s state (stepping it between checkpoints), through a TimedStore
/// around `make_store()` and a TimingCompressor, and checks that the first
/// blob is byte-identical to one written through an undecorated twin stack.
CkptReplay replay_ckpt(
    const Prepared& p, lck::IterativeSolver& solver,
    const std::function<std::unique_ptr<lck::CheckpointStore>()>& make_store,
    SpanLog& log) {
  const lck::ResilienceConfig cfg = make_config(p, 0);
  const auto codec =
      p.spec.scheme == lck::CkptScheme::kLossy
          ? lck::make_compressor(cfg.compression.lossy,
                                 cfg.compression.lossy_eb)
          : lck::make_compressor(cfg.compression.lossless);
  const TimingCompressor timing_codec(*codec, log);

  // Twin first: both managers write their first version from one state.
  auto timed_inner = make_store();
  lck::CheckpointStore* timed_raw = timed_inner.get();
  lck::CheckpointManager timed_mgr(
      std::make_unique<TimedStore>(std::move(timed_inner), log), nullptr);
  lck::CheckpointManager twin_mgr(make_store(), nullptr);
  Registration timed_reg;
  Registration twin_reg;
  register_like_runner(timed_mgr, solver, p, timing_codec, timed_reg);
  register_like_runner(twin_mgr, solver, p, *codec, twin_reg);
  CkptReplay out;
  const int vt = checkpoint_once(timed_mgr, p.spec.mode, nullptr, nullptr);
  const int vu = checkpoint_once(twin_mgr, p.spec.mode, nullptr, nullptr);
  out.blobs_identical =
      vt == vu && timed_raw->read(vt) == twin_mgr.store().read(vu);

  const std::vector<std::string> inner_names = {
      "codec." + codec->name() + ".compress", "store.write",
      "store.write_pending", "store.open_write_pending", "store.sink_append",
      "store.sink_finish", "store.commit"};
  std::vector<CkptReplay> samples;
  for (int k = 0; k < kReplayCheckpoints; ++k) {
    // Advance the solver so every checkpoint carries new state (delta
    // chains would otherwise store nothing but references).
    (void)solver.step();
    capture_like_runner(solver, p, timed_reg);
    CkptReplay t;
    const double inner_before = log.seconds_of(inner_names);
    (void)checkpoint_once(timed_mgr, p.spec.mode, &log, &t);
    t.frame_self_s =
        t.checkpoint_s - (log.seconds_of(inner_names) - inner_before);
    samples.push_back(t);
  }
  std::vector<double> rec;
  for (int k = 0; k < kReplayCalls; ++k)
    rec.push_back(timed(log, "ckpt.recover", [&] { timed_mgr.recover(); }));

  const auto med = [&](double CkptReplay::*field) {
    std::vector<double> v;
    for (const auto& s : samples) v.push_back(s.*field);
    return median(v);
  };
  out.checkpoint_s = med(&CkptReplay::checkpoint_s);
  out.stage_s = med(&CkptReplay::stage_s);
  out.drain_wait_s = med(&CkptReplay::drain_wait_s);
  out.commit_s = med(&CkptReplay::commit_s);
  out.frame_self_s = med(&CkptReplay::frame_self_s);
  out.recover_s = median(rec);
  return out;
}

/// Store-layer figures from the spans a TimedStore recorded.
struct StoreFigures {
  double write_mbps = 0.0;
  double commit_ms = 0.0;
  double read_mbps = 0.0;
  double bytes_written = 0.0;
};

StoreFigures store_figures(const SpanLog& log) {
  StoreFigures f;
  const std::vector<std::string> writes = {"store.write",
                                           "store.write_pending",
                                           "store.sink_append"};
  double wbytes = 0.0;
  for (const auto& n : writes) wbytes += log.totals(n).bytes;
  const double wsec = log.seconds_of({"store.write", "store.write_pending",
                                      "store.open_write_pending",
                                      "store.sink_append",
                                      "store.sink_finish"});
  const double rbytes =
      log.totals("store.read").bytes + log.totals("store.source_read").bytes;
  const double rsec =
      log.seconds_of({"store.read", "store.open_read", "store.source_read"});
  f.bytes_written = wbytes;
  f.write_mbps = wsec > 0.0 ? wbytes / wsec / 1e6 : 0.0;
  f.read_mbps = rsec > 0.0 ? rbytes / rsec / 1e6 : 0.0;
  f.commit_ms = median(log.totals("store.commit").seconds) * 1e3;
  return f;
}

int measure_layers(const Options& opt, const Workload& w) {
  Scratch scratch(kOutDir);
  SpanLog run_log;     // setup, host roofline, the traced run
  SpanLog replay_log;  // replayed layer calls
  SpanLog::set_thread_label("main");

  Setup setup;
  timed(run_log, "setup", [&] { setup = run_setup(w, scratch, 1); });
  const auto& preps = setup.preps;

  const std::size_t llc = llc_bytes();
  const auto copy_bytes =
      static_cast<std::size_t>(kMemcpyLlcMultiple * static_cast<double>(llc));
  const double host_gbps = memcpy_gbps(copy_bytes, run_log);
  std::printf("host.memcpy: %.2f GB/s over two %zu-byte arrays "
              "(LLC %zu bytes, team %d)\n",
              host_gbps, copy_bytes, llc, team_size());

  long attempted = 0;
  long failed = 0;
  const CpuTicks ticks0 = cpu_ticks();
  const WorkloadRun plain =
      run_workload(w, preps, opt.seed, scratch.next("untraced"), nullptr);
  print_run("untraced", opt.seed, plain, preps);
  WorkloadRun traced;
  timed(run_log, "core.run", [&] {
    traced =
        run_workload(w, preps, opt.seed, scratch.next("traced"), &run_log);
  });
  print_run("traced", opt.seed, traced, preps);
  std::printf("host CPU stolen during the two runs: %.1f%%\n",
              steal_percent(ticks0, cpu_ticks()));
  std::vector<Outcome> expected;
  for (const JobRun& jr : plain.jobs) expected.push_back(jr.outcome);
  attempted += static_cast<long>(plain.jobs.size() + traced.jobs.size());
  failed += count_failures(plain, nullptr, 0);
  const long traced_failed =
      count_failures(traced, &expected, plain.l3_physical_bytes);
  if (traced_failed > 0)
    std::printf("traced run differs from the untraced run or failed "
                "verification (%ld jobs)\n",
                traced_failed);
  failed += traced_failed;

  // Store figures of the traced run itself (solo workloads decorate their
  // DiskStore); the fleet's tiered stacks are measured in the replay.
  StoreFigures store = store_figures(run_log);

  // Replays on the same problems, from a mid-solve state.
  std::unique_ptr<lck::svc::CheckpointService> replay_service;
  if (w.fleet)
    replay_service = std::make_unique<lck::svc::CheckpointService>(
        fleet_service_config(scratch.next("replay-l3")));
  std::vector<lck::svc::JobHandle> replay_jobs;
  std::vector<SolverReplay> sr;
  std::vector<CkptReplay> cr;
  std::map<std::string, CodecReplay> codec_sum;
  for (std::size_t j = 0; j < preps.size(); ++j) {
    const Prepared& p = preps[j];
    auto solver = p.problem.make_solver();
    sr.push_back(replay_solver(p, *solver, replay_log));
    const lck::Vector state = solver->solution();
    for (const char* name : {"sz", "deflate"}) {
      const CodecReplay c = replay_codec(name, state, replay_log);
      CodecReplay& sum = codec_sum[name];
      sum.raw_bytes += c.raw_bytes;
      sum.stored_bytes += c.stored_bytes;
      sum.compress_s += c.compress_s;
      sum.decompress_s += c.decompress_s;
    }
    std::function<std::unique_ptr<lck::CheckpointStore>()> make_store;
    if (w.fleet) {
      make_store = [&replay_service, &replay_jobs, j] {
        replay_jobs.push_back(replay_service->open_job(
            fleet_job_config(static_cast<int>(j))));
        return replay_jobs.back().make_store();
      };
    } else {
      make_store = [&scratch] {
        return std::make_unique<lck::DiskStore>(scratch.next("replay-store"));
      };
    }
    cr.push_back(replay_ckpt(p, *solver, make_store, replay_log));
    if (!cr.back().blobs_identical) {
      std::printf("replay: blob written through the timing decorators "
                  "differs from the undecorated one (%s)\n",
                  p.spec.method.c_str());
      ++failed;
    }
  }
  if (w.fleet) store = store_figures(replay_log);
  replay_jobs.clear();

  // Scale the replay's per-call medians by the traced run's counts.
  double steps = 0.0;
  double step_time = 0.0;
  double spmv_time = 0.0;
  double extra_iterations = 0.0;
  double attributed = 0.0;
  double job_wall = 0.0;
  for (std::size_t j = 0; j < preps.size(); ++j) {
    const Outcome& o = traced.jobs[j].outcome;
    const double n = static_cast<double>(o.executed_steps);
    steps += n;
    step_time += n * sr[j].step_s;
    spmv_time += n * spmv_per_step(preps[j].spec.method) * sr[j].spmv_s;
    extra_iterations += static_cast<double>(
        o.convergence_iteration - preps[j].failure_free_iterations);
    double ckpt = o.checkpoints * cr[j].checkpoint_s;
    if (preps[j].spec.mode != lck::CkptMode::kSync) {
      // The drain overlaps the steps between two checkpoints; only the
      // part that outlasts them blocks the solver.
      const double overlap =
          n / std::max(1, o.checkpoints) * sr[j].step_s;
      ckpt = o.checkpoints *
             (cr[j].stage_s + cr[j].commit_s +
              std::max(0.0, cr[j].drain_wait_s - overlap));
    }
    attributed += n * sr[j].step_s + ckpt +
                  o.recoveries * (cr[j].recover_s + sr[j].restart_s);
    job_wall += traced.jobs[j].wall_seconds;
  }
  // Fleet jobs also spend their own time writing the shared L3.
  attributed += traced.l3_write_seconds + traced.admission_wait_seconds;

  std::vector<double> spmv_ms;
  std::vector<double> restart_ms;
  for (const auto& s : sr) {
    spmv_ms.push_back(s.spmv_s * 1e3);
    restart_ms.push_back(s.restart_s * 1e3);
  }
  const double spmv_s = median(spmv_ms) / 1e3;
  const double spmv_gbps = sr.front().spmv_bytes / spmv_s / 1e9;
  const auto pooled = [&](double CkptReplay::*field) {
    std::vector<double> v;
    for (const auto& c : cr) v.push_back(c.*field * 1e3);
    return median(v);
  };
  const CodecReplay& sz = codec_sum["sz"];
  const CodecReplay& df = codec_sum["deflate"];
  const double trace_overhead = traced.wall_seconds / plain.wall_seconds - 1.0;

  std::vector<Metric> m = {
      {"host.memcpy_gbps", host_gbps, "GB/s"},
      {"sparse.spmv_ms", spmv_s * 1e3, "ms"},
      {"sparse.spmv_gbps", spmv_gbps, "GB/s"},
      {"sparse.spmv_roofline_frac", spmv_gbps / host_gbps, "frac"},
      {"solvers.step_ms", step_time / steps * 1e3, "ms"},
      {"solvers.blas1_ms", (step_time - spmv_time) / steps * 1e3, "ms"},
      {"solvers.restart_ms", median(restart_ms), "ms"},
      {"solvers.steps", steps, "count"},
      {"solvers.extra_iterations", extra_iterations, "count"},
      {"compress.sz_mbps", sz.raw_bytes / sz.compress_s / 1e6, "MB/s"},
      {"compress.sz_decomp_mbps", sz.raw_bytes / sz.decompress_s / 1e6,
       "MB/s"},
      {"compress.sz_ratio", sz.raw_bytes / sz.stored_bytes, "ratio"},
      {"compress.deflate_mbps", df.raw_bytes / df.compress_s / 1e6, "MB/s"},
      {"compress.deflate_decomp_mbps", df.raw_bytes / df.decompress_s / 1e6,
       "MB/s"},
      {"compress.deflate_ratio", df.raw_bytes / df.stored_bytes, "ratio"},
      {"ckpt.checkpoint_ms", pooled(&CkptReplay::checkpoint_s), "ms"},
      {"ckpt.stage_ms", pooled(&CkptReplay::stage_s), "ms"},
      {"ckpt.drain_wait_ms", pooled(&CkptReplay::drain_wait_s), "ms"},
      {"ckpt.recover_ms", pooled(&CkptReplay::recover_s), "ms"},
      {"ckpt.frame_self_ms", pooled(&CkptReplay::frame_self_s), "ms"},
      {"store.write_mbps", store.write_mbps, "MB/s"},
      {"store.commit_ms", store.commit_ms, "ms"},
      {"store.read_mbps", store.read_mbps, "MB/s"},
      {"store.bytes_written", store.bytes_written, "B"},
      {"chunk.l3_physical_mb",
       static_cast<double>(traced.l3_physical_bytes) / 1e6, "MB"},
      {"chunk.dedup_ratio",
       traced.l3_physical_bytes > 0
           ? static_cast<double>(traced.l3_logical_bytes) /
                 static_cast<double>(traced.l3_physical_bytes)
           : 0.0,
       "ratio"},
      {"chunk.l3_write_ms",
       traced.l3_writes > 0 ? traced.l3_write_seconds /
                                  static_cast<double>(traced.l3_writes) * 1e3
                            : 0.0,
       "ms"},
      {"svc.admission_wait_ms", traced.admission_wait_seconds * 1e3, "ms"},
      {"svc.admission_waits", static_cast<double>(traced.admission_waits),
       "count"},
      {"core.run_s", traced.wall_seconds, "s"},
      {"core.unattributed_frac", 1.0 - attributed / job_wall, "frac"},
      {"trace.overhead_frac", trace_overhead, "frac"},
  };

  fs::create_directories(kOutDir);
  const std::string trace_path = std::string(kOutDir) + "/trace-" + w.name +
                                 "-seed" + std::to_string(opt.seed) + ".json";
  lck::obs::write_chrome_trace(
      trace_path, {{&run_log.recorder(), "run"},
                   {&replay_log.recorder(), "replay"}});
  std::printf("wrote Chrome trace to %s\n", trace_path.c_str());
  for (const Metric& x : m)
    std::printf("  %-28s %14.6g %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  print_result(failed == 0, attempted, failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Workload w;
  try {
    w = find_workload(opt.workload);
  } catch (const std::invalid_argument& e) {
    std::string names;
    for (const auto& n : workload_names()) names += " " + n;
    usage((std::string(e.what()) + "; workloads:" + names).c_str());
  }
  print_environment(w);
  try {
    return opt.trace ? measure_layers(opt, w) : measure_end_to_end(opt, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "solvebench: %s\n", e.what());
    return 1;
  }
}
