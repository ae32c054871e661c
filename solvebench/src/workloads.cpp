#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <utility>

#include "ckpt/checkpoint_store.hpp"
#include "sim/perf_model.hpp"
#include "timing.hpp"

namespace fs = std::filesystem;

namespace solvebench {

namespace {

// The paper's cluster setting (§5): 78.8 GB of dynamic state per vector on
// 2,048 ranks, static state a quarter of that, a one-hour failure-free run.
constexpr double kClusterVectorBytes = 78.8e9;
constexpr double kBaselineSeconds = 3600.0;
constexpr double kMttiSeconds = 600.0;
/// Outside verification: the recomputed residual may exceed the solver's
/// tolerance by this factor (the recurrence residual CG and friends test
/// drifts slightly from ‖b − A·x‖).
constexpr double kResidualSlack = 2.0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Solve one job under `cfg` and verify the solution from outside.
JobRun solve_job(const Prepared& prep, const lck::ResilienceConfig& cfg) {
  JobRun run;
  try {
    auto solver = prep.problem.make_solver();
    const auto t0 = std::chrono::steady_clock::now();
    lck::ResilientRunner runner(*solver, cfg);
    const lck::ResilienceResult res = runner.run();
    run.wall_seconds = seconds_since(t0);
    run.converged = res.converged;
    run.outcome = {res.executed_steps,  res.convergence_iteration,
                   res.virtual_seconds, res.mean_ckpt_stored_bytes,
                   res.failures,        res.checkpoints,
                   res.recoveries};
    const lck::Vector& b = prep.problem.b;
    lck::Vector r(b.size(), 0.0);
    run.true_rel_residual =
        prep.problem.a.residual_norm2(b, solver->solution(), r) /
        lck::norm2(b);
    run.verified = run.converged && std::isfinite(run.true_rel_residual) &&
                   run.true_rel_residual <= kResidualSlack * prep.spec.rtol;
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  return run;
}

std::function<std::unique_ptr<lck::CheckpointStore>()> disk_store_factory(
    std::string dir, SpanLog* log) {
  return [dir = std::move(dir),
          log]() -> std::unique_ptr<lck::CheckpointStore> {
    auto store = std::make_unique<lck::DiskStore>(dir);
    if (log == nullptr) return store;
    return std::make_unique<TimedStore>(std::move(store), *log);
  };
}

WorkloadRun run_solo(const Prepared& prep, std::uint64_t seed,
                     const std::string& dir, SpanLog* log) {
  lck::ResilienceConfig cfg = make_config(prep, failure_seed(seed, 0));
  cfg.store_factory = disk_store_factory(dir + "/store", log);
  WorkloadRun out;
  out.jobs.push_back(solve_job(prep, cfg));
  out.wall_seconds = out.jobs.back().wall_seconds;
  return out;
}

WorkloadRun run_fleet(const std::vector<Prepared>& preps, std::uint64_t seed,
                      const std::string& dir) {
  WorkloadRun out;
  out.jobs.resize(preps.size());
  lck::svc::CheckpointService service(fleet_service_config(dir + "/l3"));
  {
    std::vector<lck::svc::JobHandle> handles;
    std::vector<lck::ResilienceConfig> cfgs;
    for (std::size_t j = 0; j < preps.size(); ++j) {
      handles.push_back(
          service.open_job(fleet_job_config(static_cast<int>(j))));
      cfgs.push_back(
          make_config(preps[j], failure_seed(seed, static_cast<int>(j))));
      cfgs.back().store_factory = handles.back().store_factory();
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (std::size_t j = 0; j < preps.size(); ++j)
      threads.emplace_back(
          [&, j] { out.jobs[j] = solve_job(preps[j], cfgs[j]); });
    for (auto& t : threads) t.join();
    out.wall_seconds = seconds_since(t0);
    for (const auto& h : handles) {
      const lck::svc::JobStats s = h.stats();
      out.l3_writes += s.l3_writes;
      out.l3_write_seconds += s.write_seconds;
      out.admission_waits += s.admission_waits;
      out.admission_wait_seconds += s.admission_wait_seconds;
    }
  }
  out.l3_physical_bytes = service.l3().physical_bytes();
  out.l3_logical_bytes = service.l3().logical_bytes();
  return out;
}

}  // namespace

Workload find_workload(const std::string& name) {
  using lck::CkptMode;
  using lck::CkptScheme;
  Workload w;
  w.name = name;
  // The solo workloads run 64³, so a solve takes 3–6 s and one run times
  // several.
  if (name == "resilient-cg-lossy") {
    w.jobs = {{"cg", 64, 1e-8, CkptScheme::kLossy, CkptMode::kSync}};
  } else if (name == "resilient-cg-lossless-async") {
    w.jobs = {{"cg", 64, 1e-8, CkptScheme::kLossless, CkptMode::kAsync}};
  } else if (name == "fleet-tiered-delta") {
    w.fleet = true;
    for (const char* method : {"cg", "bicgstab", "gmres", "minres"})
      w.jobs.push_back({method, 48, 1e-8, CkptScheme::kLossy,
                        CkptMode::kTiered, std::string(method) == "gmres",
                        4});
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::vector<std::string> workload_names() {
  return {"resilient-cg-lossy", "resilient-cg-lossless-async",
          "fleet-tiered-delta"};
}

Prepared prepare(const JobSpec& spec) {
  Prepared p{spec,
             lck::make_local_problem(spec.method, spec.grid, spec.rtol,
                                     200000, /*precondition=*/false),
             0};
  auto reference = p.problem.make_solver();
  reference->solve();
  if (!reference->converged())
    throw std::runtime_error("failure-free reference solve of " +
                             spec.method + " did not converge");
  p.failure_free_iterations = reference->iteration();
  return p;
}

std::uint64_t failure_seed(std::uint64_t seed, int job) {
  return seed + 104729u * static_cast<std::uint64_t>(job);
}

lck::ResilienceConfig make_config(const Prepared& prep, std::uint64_t seed) {
  lck::ResilienceConfig cfg;
  cfg.scheme = prep.spec.scheme;
  cfg.ckpt_mode = prep.spec.mode;
  cfg.compression.lossless = "deflate";
  cfg.compression.lossy = "sz";
  cfg.compression.lossy_eb = lck::ErrorBound::pointwise_rel(1e-4);
  cfg.compression.adaptive_error_bound = prep.spec.adaptive_bound;
  cfg.compression.adaptive_theta = 0.25;
  cfg.failure.mtti_seconds = kMttiSeconds;
  cfg.failure.seed = seed;
  cfg.iteration_seconds =
      kBaselineSeconds / static_cast<double>(prep.failure_free_iterations);
  cfg.cluster = lck::ClusterModel{};
  cfg.dynamic_scale = kClusterVectorBytes / prep.problem.vector_bytes();
  cfg.static_bytes = 0.25 * kClusterVectorBytes;
  // The paper's offline pick: Young's interval for an uncompressed write.
  cfg.policy.name = "fixed";
  cfg.policy.interval_seconds = lck::young_interval_seconds(
      cfg.cluster.write_seconds(kClusterVectorBytes), kMttiSeconds);
  cfg.delta.max_delta_chain = prep.spec.delta_chain;
  return cfg;
}

WorkloadRun run_workload(const Workload& w, const std::vector<Prepared>& preps,
                         std::uint64_t seed, const std::string& scratch_dir,
                         SpanLog* log) {
  if (fs::exists(scratch_dir))
    throw std::runtime_error("scratch directory already exists: " +
                             scratch_dir);
  fs::create_directories(scratch_dir);
  WorkloadRun out = w.fleet ? run_fleet(preps, seed, scratch_dir)
                            : run_solo(preps.front(), seed, scratch_dir, log);
  fs::remove_all(scratch_dir);
  return out;
}

lck::svc::ServiceConfig fleet_service_config(const std::string& l3_dir) {
  lck::svc::ServiceConfig cfg;
  cfg.l3_dir = l3_dir;
  return cfg;
}

lck::svc::JobConfig fleet_job_config(int job) {
  return {.name = "job" + std::to_string(job),
          .l3_promote_every = 2,
          .background_promotions = false};
}

int spmv_per_step(const std::string& method) {
  return method == "bicgstab" ? 2 : 1;
}

}  // namespace solvebench
