#pragma once
/// \file resilient_runner.hpp
/// \brief The paper's primary contribution, executable: drive any iterative
///        solver to convergence under fail-stop failure injection with
///        traditional, lossless-compressed, or lossy-compressed
///        checkpointing (Algorithms 1 and 2).
///
/// Solver mathematics (iterations, residuals, compression losses) run for
/// real; wall-clock time is accumulated on a virtual clock using the
/// calibrated ClusterModel, so cluster-scale results (paper §5.4) are
/// reproducible on one node. See DESIGN.md §5 for the rationale.
///
/// Every checkpoint runs one pipeline: request → write → drain window →
/// commit. A request settles the drain still in flight (waiting out the
/// rest of its window is back-pressure), writes, and opens a drain window
/// priced as compression plus the write; a failure inside the window tears
/// the version and recovery falls back to the previous commit. The
/// checkpoint mode (ResilienceConfig::ckpt_mode) only sets parameters:
///  - CkptMode::kSync — the paper's setting, the blocking case: the write
///    runs inline and the solver waits out the whole PFS drain at once.
///  - CkptMode::kAsync — only the staging copy blocks the virtual clock;
///    the drain overlaps subsequent iterations.
///  - CkptMode::kTiered — staged into a node-local L1 tier; committed
///    versions are promoted L1→L2(partner)→L3(PFS) in the background, and
///    a severity-k failure recovers from the cheapest surviving tier.

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "ckpt/checkpoint_manager.hpp"
#include "common/severity.hpp"
#include "core/ckpt_policy.hpp"
#include "obs/observability.hpp"
#include "sim/cluster_model.hpp"
#include "sim/failure.hpp"
#include "solvers/solver.hpp"

namespace lck {

class TieredCheckpointStore;

/// Which checkpointing scheme to run (paper §5.1 terminology).
enum class CkptScheme { kTraditional, kLossless, kLossy };

[[nodiscard]] const char* to_string(CkptScheme s) noexcept;

/// Compressor selection for the compressed schemes (names resolved through
/// make_compressor) plus the Theorem-3 adaptive error bound.
struct CompressionConfig {
  std::string lossless = "deflate";
  std::string lossy = "sz";
  ErrorBound lossy_eb = ErrorBound::pointwise_rel(1e-4);

  /// Theorem 3: refresh the lossy error bound to θ·||r||/||b|| before every
  /// checkpoint (the paper's GMRES setting).
  bool adaptive_error_bound = false;
  double adaptive_theta = 1.0;
};

/// Fail-stop failure injection (λ = 1/MTTI) and the severity mix of the
/// multi-level hierarchy.
struct FailureConfig {
  double mtti_seconds = 3600.0;
  /// Disable for failure-free baselines.
  bool inject = true;
  std::uint64_t seed = 1;
  /// Probability of each failure severity (process, node, partition,
  /// system); must sum to 1. Only sampled in tiered mode.
  std::array<double, kSeverityCount> severity_weights =
      kDefaultSeverityWeights;
  /// Inter-arrival distribution: "exponential" (the paper's model, default)
  /// or "weibull" (bursty fleet failures; see sim/failure.hpp).
  std::string distribution = "exponential";
  /// Weibull shape k; < 1 front-loads the hazard (bursts). Only read when
  /// distribution == "weibull".
  double weibull_shape = 0.7;
  /// Weibull scale λ; 0 derives it from mtti_seconds so the mean
  /// inter-arrival stays the configured MTTI (λ = MTTI / Γ(1 + 1/k)).
  double weibull_scale = 0.0;
};

/// Multi-level hierarchy knobs (CkptMode::kTiered only).
struct TieredConfig {
  /// Every k-th committed checkpoint is promoted to the L2 partner tier.
  int l2_promote_every = 1;
  /// Every k-th committed checkpoint is promoted to the L3 PFS tier.
  int l3_promote_every = 4;
  /// Committed versions each tier retains (older ones pruned per tier).
  int retention = 2;
};

/// Chunked content-addressed delta checkpointing (ckpt/chunk/). Disabled by
/// default: at `max_delta_chain = 0` every scheme × mode combination emits
/// streams byte-identical to the pre-delta serializer.
struct DeltaConfig {
  /// Maximum consecutive delta checkpoints riding on one full checkpoint
  /// before the next full is forced (bounds recovery read amplification
  /// and how long retention must keep chain bases). 0 disables delta
  /// encoding entirely.
  int max_delta_chain = 0;
  /// Chunk size in doubles — the unit of hashing, dedup and parallel
  /// compression.
  std::size_t chunk_elems = CheckpointManager::kDefaultChunkElems;
};

/// Checkpoint pacing (see ckpt_policy.hpp for the policy implementations).
struct PolicyConfig {
  /// make_policy name: "fixed" (the paper's offline interval, default),
  /// "young" (model-derived once) or "adaptive" (online re-derivation).
  std::string name = "fixed";
  /// Virtual seconds between checkpoints for the fixed policy
  /// (Young-optimal in the paper), and every policy's fallback when
  /// failure injection is off.
  double interval_seconds = 420.0;
};

struct ResilienceConfig {
  CkptScheme scheme = CkptScheme::kLossy;

  /// Synchronous (paper), staged/overlapped, or multi-level writes.
  CkptMode ckpt_mode = CkptMode::kSync;

  CompressionConfig compression{};
  FailureConfig failure{};
  TieredConfig tiered{};
  PolicyConfig policy{};
  DeltaConfig delta{};
  /// Streaming framed serializer (ckpt/frame_stream.hpp): bounded-memory
  /// checkpoint writes/reads. On by default; delta mode takes precedence.
  StreamingConfig streaming{};
  /// Observability gates (obs/observability.hpp). Both off by default: no
  /// registry or recorder is allocated and every instrumentation site in
  /// the checkpoint stack reduces to one null-pointer test. Enabling them
  /// never changes simulation decisions — runs stay bit-stable.
  obs::ObservabilityConfig obs{};

  /// Externally-owned store stack: when set, the runner calls this factory
  /// instead of building its own store (the multi-tenant CheckpointService
  /// hands per-job stacks out this way — see svc/checkpoint_service.hpp).
  /// In tiered mode the factory must yield a TieredCheckpointStore (the
  /// runner drives promote_now on it); any CheckpointStore works otherwise.
  /// The returned store is owned by the runner's manager; resources it
  /// borrows (the service's shared L3) must outlive the runner.
  std::function<std::unique_ptr<CheckpointStore>()> store_factory;

  /// Virtual cost of one solver iteration at cluster scale (calibrated per
  /// method, e.g. GMRES ≈ 1.22 s at 2,048 ranks — paper §4.3).
  double iteration_seconds = 1.0;

  ClusterModel cluster{};

  /// Cluster-scale bytes per real (local) byte of dynamic state: the
  /// evaluation solves a laptop-sized instance whose vectors stand in for
  /// the paper's 78.8 GB ones. Compression ratios are measured on the real
  /// data; sizes and times are scaled by this factor.
  double dynamic_scale = 1.0;

  /// Cluster-scale bytes of static state (A, M, b) re-read on recovery.
  double static_bytes = 0.0;

  /// Safety cap on executed solver steps.
  index_t max_steps = 2000000;

  /// Check every knob and throw one config_error naming *all* violations
  /// (one clear message per violation). Called by the runner constructor.
  void validate() const;
};

struct ResilienceResult {
  bool converged = false;

  /// Solver steps actually executed (includes rollback re-execution).
  index_t executed_steps = 0;
  /// solver.iteration() at convergence: N plus any lossy delay N′,
  /// excluding rollback re-execution (the paper's Fig. 8 metric).
  index_t convergence_iteration = 0;
  double final_residual_norm = 0.0;

  /// Virtual wall-clock of the whole run (paper's Tt).
  double virtual_seconds = 0.0;

  int failures = 0;
  int checkpoints = 0;
  int recoveries = 0;
  /// Versions rolled back before they committed: torn by a failure during
  /// their stage or drain (async, tiered), or whose codec or store threw
  /// (any mode). A sync write torn by a failure is discarded, not counted.
  int aborted_drains = 0;

  /// Virtual seconds the solver was *blocked* by checkpointing: the full
  /// compress+write in sync mode; staging copies plus back-pressure waits
  /// in async and tiered mode.
  double ckpt_seconds_total = 0.0;
  /// Async and tiered: drain seconds (compression plus the PFS or L1 write)
  /// that ran overlapped with iterations — off the critical path, not part
  /// of virtual_seconds. The back-pressured tail of a drain counts toward
  /// ckpt_seconds_total/backpressure_seconds_total instead, never here.
  double ckpt_drain_seconds_total = 0.0;
  /// Async and tiered: portion of ckpt_seconds_total spent stalled because
  /// a new checkpoint was requested while the previous drain was in flight.
  double backpressure_seconds_total = 0.0;
  double recovery_seconds_total = 0.0;
  /// Mean blocking seconds per *committed* checkpoint (excludes the staging
  /// cost of later-aborted versions, which stays in ckpt_seconds_total).
  double mean_ckpt_seconds = 0.0;
  double mean_recovery_seconds = 0.0;

  /// Failure count per severity class. Without the tiered severity model
  /// every failure is kProcess.
  std::array<int, kSeverityCount> failures_by_severity{};
  /// Tiered only: recoveries served by each hierarchy level (0 = L1
  /// node-local, 1 = L2 partner, 2 = L3 PFS).
  std::array<int, 3> recoveries_by_tier{};
  /// Tiered only: L1→L2/L3 promotions that completed before the run (or a
  /// failure) cut them off, and their total virtual seconds — background
  /// work, never part of virtual_seconds.
  int promotions_completed = 0;
  double promotion_seconds_total = 0.0;

  /// Cluster-scale stored checkpoint size (mean over checkpoints) and the
  /// achieved dynamic-state compression ratio. With delta encoding the
  /// ratio reflects *full* checkpoints only (a delta's raw/stored quotient
  /// would conflate chunk dedup with the codec); delta savings are in
  /// delta_bytes_total / chunks_deduped below.
  double mean_ckpt_stored_bytes = 0.0;
  double compression_ratio = 1.0;

  /// Delta checkpointing counters. At max_delta_chain = 0,
  /// delta_bytes_total and chunks_deduped are zero and full_checkpoints
  /// equals checkpoints (every committed checkpoint is full).
  /// delta_bytes_total: cluster-scale stored bytes of the committed
  /// *delta* (non-full) checkpoints — what the runner actually paid to
  /// stage/drain them.
  double delta_bytes_total = 0.0;
  /// Chunks stored as references instead of payload bytes, summed over
  /// committed checkpoints.
  std::size_t chunks_deduped = 0;
  /// Committed chain-start (full) checkpoints.
  int full_checkpoints = 0;

  /// The pacing policy's target interval when the run ended (the fixed
  /// interval for "fixed", the derived one for "young"/"adaptive") and how
  /// many times it changed mid-run (0 for the static policies) — so benches
  /// and tests can observe pacing without parsing logs.
  double policy_interval_final = 0.0;
  int interval_adjustments = 0;
};

/// Drives one solver instance to convergence under the configured scheme.
class ResilientRunner {
 public:
  ResilientRunner(IterativeSolver& solver, ResilienceConfig cfg);
  ~ResilientRunner();

  /// Execute to convergence (or the step cap). May be called once.
  [[nodiscard]] ResilienceResult run();

  /// The pacing policy driving this run (for observability; owned).
  [[nodiscard]] const CheckpointPolicy& policy() const noexcept {
    return *policy_;
  }

  /// The run's metrics registry, or nullptr when cfg.obs.metrics is off.
  /// Snapshot it after run() for per-stage histograms and counters.
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return metrics_.get();
  }
  /// The run's trace recorder, or nullptr when cfg.obs.trace is off.
  [[nodiscard]] obs::TraceRecorder* trace() const noexcept {
    return trace_.get();
  }
  /// Transfer ownership of the trace recorder so callers can merge several
  /// runs into one Chrome trace file after the runners are gone. Returns
  /// null when tracing was off.
  [[nodiscard]] std::unique_ptr<obs::TraceRecorder> take_trace() noexcept;

 private:
  void register_variables();
  /// Model predictions and failure rates the pacing policy is built from.
  [[nodiscard]] PolicyContext make_policy_context() const;
  /// Scheme-dependent virtual cost of (de)compressing `raw_bytes` of
  /// dynamic state (zero for the traditional scheme).
  [[nodiscard]] double compress_cost(double raw_bytes) const;
  [[nodiscard]] double decompress_cost(double raw_bytes) const;
  /// Virtual seconds of one drain window: compression plus the write on the
  /// mode's drain channel (PFS, or node-local L1 in tiered mode). Prices
  /// both the runner's clock and the policy's predicted drain.
  [[nodiscard]] double drain_seconds(double stored_bytes,
                                     double raw_bytes) const;
  /// Cluster-scale size of `bytes` real bytes of dynamic state.
  [[nodiscard]] double scaled(std::size_t bytes) const {
    return static_cast<double>(bytes) * cfg_.dynamic_scale;
  }
  /// Tiered recovery cost from hierarchy level `level`; `worst` is the
  /// highest severity seen since the last successful recovery (node or
  /// worse adds the static-state PFS re-read).
  [[nodiscard]] double tiered_recovery_duration(int version, int level,
                                                FailureSeverity worst) const;
  void refresh_adaptive_bound();
  void capture_solver_state();  ///< Copy x / scalars into protected buffers.

  // The checkpoint pipeline: request → write → drain window → commit. Each
  // step that can meet a failure returns false once it has handled it.
  /// Settle the drain in flight, then write inline (blocking mode, waiting
  /// out the window at once) or stage on the clock, opening drain_ at t_.
  void request_checkpoint();
  /// Solver blocking time (kind = sync|stage|backpressure) for drain_.
  void charge_blocking(double seconds, const char* kind);
  /// Join drain_ and fix its virtual window; false if the drain threw.
  [[nodiscard]] bool ensure_drain_record();
  /// Roll back drain_ (torn at its stage, or its codec or store threw) and
  /// count it as aborted; `event`, if any, is its trace instant on `track`.
  void abort_drain(const char* track, const char* event);
  /// Block for the rest of drain_'s window, then commit it.
  [[nodiscard]] bool await_drain();
  /// Commit drain_ and account for it; `overlapped_drain_seconds` is the
  /// part of its window that ran concurrently with iterations.
  void commit_drain(double overlapped_drain_seconds);
  /// Settle drain_ at t_ without blocking: a closed window commits; an open
  /// one is torn by the failure, or — `at_exit` — finishes after the run.
  void settle_drain(bool at_exit);
  /// Jump the clock to the armed failure, settle the drain and recover.
  void handle_failure();
  /// Count a failure with severity `sev`; in tiered mode also applies
  /// matured promotions, drops in-flight promotion work and invalidates
  /// the destroyed tiers.
  void note_failure(FailureSeverity sev);
  /// Enqueue the virtual L1→L2/L3 promotion of a committed version on the
  /// (serial) background channel, starting no earlier than `ready_t`.
  void schedule_virtual_promotions(int version, double stored_bytes,
                                   double ready_t);
  /// Execute every queued promotion whose virtual window ended by `now`.
  void apply_promotions(double now);

  IterativeSolver& solver_;
  ResilienceConfig cfg_;
  /// Per-mode facts of the checkpoint pipeline, derived from ckpt_mode.
  struct PipelineMode {
    bool blocking;     ///< sync: windows are waited out at once, no staging
    bool drain_to_l1;  ///< tiered: drains write node-local L1, not the PFS
    bool promotions;   ///< tiered: commits feed the L2/L3 promotion channel
  };
  const PipelineMode mode_;
  std::unique_ptr<CheckpointPolicy> policy_;
  // Allocated only when cfg_.obs enables them; sink_ carries the borrowed
  // pointers down the checkpoint stack.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::TraceRecorder> trace_;
  obs::Sink sink_{};
  std::unique_ptr<Compressor> compressor_;
  LossyCompressor* lossy_ = nullptr;  // non-null iff scheme == kLossy
  std::unique_ptr<CheckpointManager> manager_;

  Vector x_buf_;                   // lossy scheme: checkpointed copy of x
  std::vector<byte_t> scalar_blob_;  // traditional/lossless scalar state
  std::vector<byte_t> iter_blob_;  // serialized solver iteration (lossy path)

  FailureInjector injector_;
  double t_ = 0.0;                 // virtual clock
  double last_ckpt_t_ = 0.0;
  ResilienceResult result_;
  double stored_bytes_last_ = 0.0;  // cluster-scale stored size of last
  double raw_dyn_bytes_last_ = 0.0;  // *committed* checkpoint
  /// Cluster-scale bytes a recovery of the last committed version must
  /// read: the version itself plus its delta-chain bases (== the stored
  /// size when delta encoding is off).
  double chain_stored_last_ = 0.0;

  /// The drain in flight (version < 0: none).
  struct Drain {
    int version = -1;
    bool known = false;  ///< record joined, window fixed
    double start_t = 0.0, window = 0.0, end_t = 0.0;  ///< virtual window
    double blocking = 0.0;  ///< solver blocking time charged to it
    CheckpointRecord rec{};
  };
  Drain drain_;
  double committed_blocking_total_ = 0.0;  // numerator of mean_ckpt_seconds

  // Tiered hierarchy: borrowed from manager_'s store (manager owns it).
  TieredCheckpointStore* tiered_ = nullptr;
  /// One committed-version hop (into L2 or L3) on the serial virtual
  /// promotion channel.
  struct VirtualPromotion {
    int version = -1;
    int level = -1;
    double done_t = 0.0;  ///< Virtual completion time.
    double cost = 0.0;    ///< Seconds of background channel time.
  };
  std::deque<VirtualPromotion> promo_queue_;
  double promo_tail_t_ = 0.0;  ///< Busy-until time of the promotion channel.
  /// Cluster-scale stored/raw bytes and delta base per committed version,
  /// so recovery from an older tier copy is charged that version's true
  /// size — including its chain bases when delta encoding is on.
  struct VersionBytes {
    double stored = 0.0;
    double raw = 0.0;
    int base = -1;
  };
  std::map<int, VersionBytes> version_bytes_;
  /// Versions already enqueued on the promotion channel per target level
  /// (index 0 = L2, 1 = L3), so a delta's chain bases are promoted exactly
  /// once even when the cadence skips them. Cleared on failure: the queue
  /// died, and exists_at() tells us what actually made it.
  std::array<std::set<int>, 2> scheduled_promos_;
};

}  // namespace lck
