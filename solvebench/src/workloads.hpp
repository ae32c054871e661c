#pragma once
/// \file workloads.hpp
/// \brief The benchmark's three workloads and the calls that run them
///        through the library's public APIs (ResilientRunner,
///        CheckpointService, DiskStore).
///
///  - resilient-cg-lossy: the paper's own scheme. Unpreconditioned CG on
///    Poisson-3D 64³ (262,144 unknowns), lossy SZ (pointwise-relative
///    1e-4), synchronous checkpoints to a DiskStore.
///  - resilient-cg-lossless-async: the same problem, lossless deflate on x
///    and p, staged checkpoints drained by the background writer.
///  - fleet-tiered-delta: one CheckpointService (disk-backed shared L3)
///    running four concurrent jobs, each a different Krylov method on
///    Poisson-3D 48³, lossy tiered with delta chains.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/resilient_runner.hpp"
#include "svc/checkpoint_service.hpp"

namespace solvebench {

class SpanLog;

/// One solver job of a workload.
struct JobSpec {
  std::string method;         ///< make_solver name.
  lck::index_t grid = 0;      ///< Poisson-3D grid edge (grid³ unknowns).
  double rtol = 0.0;
  lck::CkptScheme scheme = lck::CkptScheme::kLossy;
  lck::CkptMode mode = lck::CkptMode::kSync;
  bool adaptive_bound = false;  ///< Theorem-3 bound (GMRES).
  int delta_chain = 0;
};

struct Workload {
  std::string name;
  std::vector<JobSpec> jobs;
  bool fleet = false;  ///< Jobs run concurrently through one service.
};

/// The workload named `name`; throws std::invalid_argument when unknown.
[[nodiscard]] Workload find_workload(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

/// A job's problem plus its failure-free reference (the setup phase).
struct Prepared {
  JobSpec spec;
  lck::LocalProblem problem;
  lck::index_t failure_free_iterations = 0;  ///< The paper's N.
};

/// Build matrix and right-hand side and run the failure-free reference
/// solve that sets iteration_seconds.
[[nodiscard]] Prepared prepare(const JobSpec& spec);

/// Seed of the fixed failure trace the end-to-end metrics are measured on
/// (the seed the workload sizes were first measured at).
inline constexpr std::uint64_t kTraceSeed = 2024;

/// Failure seed of job `job` in a run with failure seed `seed` (job 0
/// uses `seed` itself).
[[nodiscard]] std::uint64_t failure_seed(std::uint64_t seed, int job);

/// The resilience configuration of one job (store left to the caller).
[[nodiscard]] lck::ResilienceConfig make_config(const Prepared& prep,
                                                std::uint64_t seed);

/// What a run must reproduce exactly for a given seed.
struct Outcome {
  lck::index_t executed_steps = 0;
  lck::index_t convergence_iteration = 0;
  double virtual_seconds = 0.0;
  double mean_ckpt_stored_bytes = 0.0;  ///< Cluster-scale (runner units).
  int failures = 0;
  int checkpoints = 0;
  int recoveries = 0;
  bool operator==(const Outcome&) const = default;
};

/// One job's solve, verified from outside.
struct JobRun {
  Outcome outcome;
  bool converged = false;
  /// ‖b − A·x‖ / ‖b‖ recomputed with CsrMatrix::residual_norm2.
  double true_rel_residual = 0.0;
  bool verified = false;  ///< converged and true residual within tolerance
  double wall_seconds = 0.0;  ///< Runner construction + run().
  std::string error;          ///< Exception text, if the solve threw.
};

/// A whole workload run: one job, or the fleet's concurrent jobs.
struct WorkloadRun {
  std::vector<JobRun> jobs;
  double wall_seconds = 0.0;  ///< Solo: the job's; fleet: the makespan.
  /// Fleet only: the shared L3's aggregate state and per-job service stats.
  std::uint64_t l3_physical_bytes = 0;
  std::uint64_t l3_logical_bytes = 0;
  std::uint64_t l3_writes = 0;
  double l3_write_seconds = 0.0;
  std::uint64_t admission_waits = 0;
  double admission_wait_seconds = 0.0;
};

/// Run the workload once with failure seed `seed`.
/// `scratch_dir` must not exist yet; it holds the stores and is removed
/// afterwards. When `log` is set, every DiskStore is wrapped in a
/// TimedStore recording into it (the fleet's tiered stacks have no
/// decorator seam and run undecorated).
[[nodiscard]] WorkloadRun run_workload(const Workload& w,
                                       const std::vector<Prepared>& preps,
                                       std::uint64_t seed,
                                       const std::string& scratch_dir,
                                       SpanLog* log);

/// Shared-service settings of the fleet workload.
[[nodiscard]] lck::svc::ServiceConfig fleet_service_config(
    const std::string& l3_dir);
[[nodiscard]] lck::svc::JobConfig fleet_job_config(int job);

/// SpMV calls per solver step (for the BLAS-1 share of a step).
[[nodiscard]] int spmv_per_step(const std::string& method);

}  // namespace solvebench
