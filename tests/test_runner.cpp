/// Integration tests for the resilient runner: failure-free equivalence,
/// convergence under failure injection for all three schemes, virtual-time
/// accounting, and the adaptive GMRES bound.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "ckpt/tier/partner_store.hpp"
#include "ckpt/tier/tiered_store.hpp"
#include "core/experiment.hpp"
#include "core/resilient_runner.hpp"

namespace lck {
namespace {

ResilienceConfig base_config(CkptScheme scheme) {
  ResilienceConfig cfg;
  cfg.scheme = scheme;
  cfg.policy.interval_seconds = 20.0;
  cfg.failure.mtti_seconds = 60.0;  // aggressive failures for test coverage
  cfg.iteration_seconds = 5.0;  // short local solves still span many MTTIs
  cfg.failure.seed = 7;
  cfg.dynamic_scale = 1.0;
  cfg.cluster.ranks = 64;
  cfg.cluster.pfs_per_rank_overhead = 0.001;
  cfg.static_bytes = 1e6;
  return cfg;
}

double true_rel_residual(const CsrMatrix& a, const Vector& b,
                         const Vector& x) {
  Vector r(b.size());
  a.residual(b, x, r);
  return norm2(r) / norm2(b);
}

TEST(Runner, FailureFreeRunMatchesPlainSolve) {
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto plain = p.make_solver();
  plain->solve();

  auto solver = p.make_solver();
  ResilienceConfig cfg = base_config(CkptScheme::kLossy);
  cfg.failure.inject = false;
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();

  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.convergence_iteration, plain->iteration());
  EXPECT_EQ(res.failures, 0);
  EXPECT_EQ(res.recoveries, 0);
  // Virtual time = iterations + checkpoint costs only.
  EXPECT_GE(res.virtual_seconds,
            static_cast<double>(res.executed_steps) * cfg.iteration_seconds);
}

class RunnerScheme : public ::testing::TestWithParam<CkptScheme> {};

TEST_P(RunnerScheme, ConvergesUnderFailures) {
  const CkptScheme scheme = GetParam();
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg = base_config(scheme);
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();

  EXPECT_TRUE(res.converged) << to_string(scheme);
  EXPECT_GT(res.failures, 0) << "test should exercise failures";
  EXPECT_EQ(res.recoveries, res.failures - (res.failures - res.recoveries));
  EXPECT_LE(true_rel_residual(p.a, p.b, solver->solution()), 1e-7)
      << to_string(scheme);
}

TEST_P(RunnerScheme, JacobiConvergesUnderFailures) {
  const CkptScheme scheme = GetParam();
  const LocalProblem p = make_local_problem("jacobi", 7, 1e-6);
  auto solver = p.make_solver();
  ResilienceConfig cfg = base_config(scheme);
  cfg.failure.seed = 11;
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  EXPECT_TRUE(res.converged) << to_string(scheme);
  EXPECT_LE(true_rel_residual(p.a, p.b, solver->solution()), 1.2e-6);
}

TEST_P(RunnerScheme, GmresConvergesUnderFailures) {
  const CkptScheme scheme = GetParam();
  const LocalProblem p = make_local_problem("gmres", 7, 1e-7);
  auto solver = p.make_solver();
  ResilienceConfig cfg = base_config(scheme);
  cfg.compression.adaptive_error_bound = scheme == CkptScheme::kLossy;
  cfg.failure.seed = 13;
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  EXPECT_TRUE(res.converged) << to_string(scheme);
  EXPECT_LE(true_rel_residual(p.a, p.b, solver->solution()), 1.2e-7);
}

INSTANTIATE_TEST_SUITE_P(Schemes, RunnerScheme,
                         ::testing::Values(CkptScheme::kTraditional,
                                           CkptScheme::kLossless,
                                           CkptScheme::kLossy),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Runner, TraditionalRecoveryIsIterationExactForCg) {
  // With exact state restoration, the convergence iteration equals the
  // failure-free count regardless of how many failures struck.
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto baseline = p.make_solver();
  baseline->solve();

  auto solver = p.make_solver();
  ResilienceConfig cfg = base_config(CkptScheme::kTraditional);
  cfg.failure.seed = 17;
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  ASSERT_GT(res.failures, 0);
  EXPECT_EQ(res.convergence_iteration, baseline->iteration());
}

TEST(Runner, LossyRecoveryMayDelayCgButConverges) {
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto baseline = p.make_solver();
  baseline->solve();

  auto solver = p.make_solver();
  ResilienceConfig cfg = base_config(CkptScheme::kLossy);
  cfg.compression.lossy_eb = ErrorBound::pointwise_rel(1e-4);
  cfg.failure.seed = 17;
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  ASSERT_GT(res.recoveries, 0);
  EXPECT_TRUE(res.converged);
  // Lossy restarts can only add iterations relative to the baseline.
  EXPECT_GE(res.convergence_iteration, baseline->iteration());
  // ... but not pathologically many (paper: 10–25% per recovery).
  EXPECT_LE(res.convergence_iteration,
            baseline->iteration() * 3 + 50 * res.recoveries);
}

TEST(Runner, LossyCheckpointsAreSmallerThanTraditional) {
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);

  auto s1 = p.make_solver();
  ResilienceConfig c1 = base_config(CkptScheme::kTraditional);
  c1.failure.inject = false;
  const auto r1 = ResilientRunner(*s1, c1).run();

  auto s2 = p.make_solver();
  ResilienceConfig c2 = base_config(CkptScheme::kLossy);
  c2.failure.inject = false;
  const auto r2 = ResilientRunner(*s2, c2).run();

  ASSERT_GT(r1.checkpoints, 0);
  ASSERT_GT(r2.checkpoints, 0);
  EXPECT_LT(r2.mean_ckpt_stored_bytes, r1.mean_ckpt_stored_bytes / 2.0);
  EXPECT_GT(r2.compression_ratio, 2.0);
  EXPECT_LT(r2.mean_ckpt_seconds, r1.mean_ckpt_seconds);
}

TEST(Runner, CheckpointIntervalIsHonoured) {
  const LocalProblem p = make_local_problem("jacobi", 6, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg = base_config(CkptScheme::kTraditional);
  cfg.failure.inject = false;
  cfg.policy.interval_seconds = 50.0;
  cfg.iteration_seconds = 1.0;
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  // Expected checkpoints ≈ productive time / (interval + ckpt cost).
  const double productive = static_cast<double>(res.executed_steps);
  EXPECT_LE(res.checkpoints, static_cast<int>(productive / 50.0) + 1);
  EXPECT_GE(res.checkpoints, static_cast<int>(productive / 50.0) - 2);
}

TEST(Runner, VirtualTimeDecomposes) {
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg = base_config(CkptScheme::kLossy);
  cfg.failure.inject = false;
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  const double expected = static_cast<double>(res.executed_steps) *
                              cfg.iteration_seconds +
                          res.ckpt_seconds_total + res.recovery_seconds_total;
  EXPECT_NEAR(res.virtual_seconds, expected, 1e-9);
}

TEST(Runner, FailureBeforeFirstCheckpointRestartsFromScratch) {
  const LocalProblem p = make_local_problem("jacobi", 6, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg = base_config(CkptScheme::kLossy);
  cfg.policy.interval_seconds = 1e9;  // never checkpoint
  cfg.failure.mtti_seconds = 600.0;
  cfg.failure.seed = 23;
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.checkpoints, 0);
  EXPECT_GT(res.failures, 0);
  // Every failure forced a from-scratch restart; executed steps exceed the
  // convergence iteration count.
  EXPECT_GT(res.executed_steps, res.convergence_iteration);
}

TEST(Runner, AdaptiveBoundTightensWithConvergence) {
  // Indirect check: with the adaptive bound the achieved compression ratio
  // should drop as the solver converges (tighter eb near convergence), yet
  // the run must stay correct.
  const LocalProblem p = make_local_problem("gmres", 7, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg = base_config(CkptScheme::kLossy);
  cfg.compression.adaptive_error_bound = true;
  cfg.failure.inject = false;
  cfg.policy.interval_seconds = 10.0;
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.checkpoints, 1);
}

TEST(Runner, RejectsBadConfiguration) {
  const LocalProblem p = make_local_problem("cg", 4, 1e-6);
  auto solver = p.make_solver();
  ResilienceConfig cfg = base_config(CkptScheme::kLossy);
  cfg.policy.interval_seconds = 0.0;
  EXPECT_THROW(ResilientRunner(*solver, cfg), config_error);
  cfg = base_config(CkptScheme::kLossy);
  cfg.iteration_seconds = -1.0;
  EXPECT_THROW(ResilientRunner(*solver, cfg), config_error);
}

TEST(Runner, DeterministicForFixedSeed) {
  const LocalProblem p = make_local_problem("cg", 7, 1e-8);
  ResilienceConfig cfg = base_config(CkptScheme::kLossy);
  cfg.failure.seed = 31;

  auto s1 = p.make_solver();
  const auto r1 = ResilientRunner(*s1, cfg).run();
  auto s2 = p.make_solver();
  const auto r2 = ResilientRunner(*s2, cfg).run();

  EXPECT_EQ(r1.failures, r2.failures);
  EXPECT_EQ(r1.executed_steps, r2.executed_steps);
  EXPECT_DOUBLE_EQ(r1.virtual_seconds, r2.virtual_seconds);
}

/// Store whose `fail_at`-th write (write() or write_pending(), counted
/// together) throws, as a full disk would. Every other call reaches an
/// in-memory store. The counter is atomic: staged drains write from the
/// writer thread.
class FailingWriteStore final : public CheckpointStore {
 public:
  explicit FailingWriteStore(int fail_at) : fail_at_(fail_at) {}
  void write(int v, std::span<const byte_t> d) override {
    count_write();
    inner_.write(v, d);
  }
  void write_pending(int v, std::span<const byte_t> d) override {
    count_write();
    inner_.write_pending(v, d);
  }
  void commit(int v) override { inner_.commit(v); }
  void abort(int v) override { inner_.abort(v); }
  [[nodiscard]] bool has_pending(int v) const override {
    return inner_.has_pending(v);
  }
  [[nodiscard]] std::vector<byte_t> read(int v) const override {
    return inner_.read(v);
  }
  [[nodiscard]] bool exists(int v) const override { return inner_.exists(v); }
  void remove(int v) override { inner_.remove(v); }
  [[nodiscard]] int latest_version() const override {
    return inner_.latest_version();
  }

 private:
  void count_write() {
    if (++writes_ == fail_at_)
      throw corrupt_stream_error("failing store: injected write error");
  }
  MemoryStore inner_;
  const int fail_at_;
  std::atomic<int> writes_{0};
};

class RunnerWriteError : public ::testing::TestWithParam<CkptMode> {};

/// A store error during a checkpoint write is rolled back and counted the
/// same way in every mode: the run keeps going from the previous committed
/// checkpoint instead of the error escaping run().
TEST_P(RunnerWriteError, RollsBackTheWriteAndConverges) {
  const CkptMode mode = GetParam();
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg = base_config(CkptScheme::kLossy);
  cfg.ckpt_mode = mode;
  cfg.store_factory = [mode]() -> std::unique_ptr<CheckpointStore> {
    auto failing = std::make_unique<FailingWriteStore>(/*fail_at=*/2);
    if (mode != CkptMode::kTiered) return failing;
    // The error strikes the node-local L1 tier the drain writes into.
    std::vector<TieredCheckpointStore::Level> levels;
    levels.push_back({TierSpec{"L1", FailureSeverity::kProcess, 2, 1},
                      std::move(failing)});
    levels.push_back({TierSpec{"L2", FailureSeverity::kNode, 2, 1},
                      std::make_unique<PartnerStore>()});
    levels.push_back({TierSpec{"L3", FailureSeverity::kSystem, 2, 2},
                      std::make_unique<MemoryStore>()});
    return std::make_unique<TieredCheckpointStore>(std::move(levels),
                                                   /*auto_promote=*/false);
  };
  ResilientRunner runner(*solver, cfg);
  ResilienceResult res;
  ASSERT_NO_THROW(res = runner.run());

  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.failures, 0);
  EXPECT_GT(res.checkpoints, 1);
  EXPECT_EQ(res.aborted_drains, 1);
  EXPECT_LT(true_rel_residual(p.a, p.b, solver->solution()), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Modes, RunnerWriteError,
                         ::testing::Values(CkptMode::kSync, CkptMode::kAsync,
                                           CkptMode::kTiered),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace lck
