/// Asynchronous (staged) checkpoint pipeline tests: stage/drain/commit and
/// abort semantics at the manager level, double-buffer back-pressure on the
/// real writer thread, pending-vs-committed store states, retention
/// interplay, and the ResilientRunner async mode (failure during drain
/// recovers from the previous committed version, bit-stable reruns, and the
/// blocking-time win over sync).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "ckpt/async_writer.hpp"
#include "ckpt/checkpoint_manager.hpp"
#include "compress/compressor.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/resilient_runner.hpp"
#include "obs/metrics.hpp"
#include "sparse/vector_ops.hpp"

namespace lck {
namespace {

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (auto& x : v) x = rng.uniform(-5.0, 5.0);
  return v;
}

// ----- AsyncCheckpointWriter ------------------------------------------------

TEST(AsyncWriter, RunsJobsInOrderAndReturnsRecords) {
  AsyncCheckpointWriter w;
  std::atomic<int> order{0};
  int first = -1, second = -1;
  w.submit(0, [&] {
    first = order.fetch_add(1);
    CheckpointRecord rec;
    rec.version = 0;
    rec.stored_bytes = 11;
    return rec;
  });
  w.submit(1, [&] {
    second = order.fetch_add(1);
    CheckpointRecord rec;
    rec.version = 1;
    rec.stored_bytes = 22;
    return rec;
  });
  EXPECT_EQ(w.wait(1).stored_bytes, 22u);
  EXPECT_EQ(w.wait(0).stored_bytes, 11u);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(AsyncWriter, PropagatesJobExceptions) {
  AsyncCheckpointWriter w;
  w.submit(5, []() -> CheckpointRecord {
    throw corrupt_stream_error("drain blew up");
  });
  EXPECT_THROW((void)w.wait(5), corrupt_stream_error);
}

TEST(AsyncWriter, DestructorDrainsQueuedJobs) {
  std::atomic<int> ran{0};
  {
    AsyncCheckpointWriter w;
    for (int v = 0; v < 8; ++v)
      w.submit(v, [&ran] {
        ++ran;
        return CheckpointRecord{};
      });
  }
  EXPECT_EQ(ran.load(), 8);
}

// ----- manager: stage/drain/commit ------------------------------------------

TEST(AsyncManager, StagedStreamIsBitIdenticalToSyncCheckpoint) {
  // Same protected values must serialize to the same bytes on both paths,
  // so sync and async recoveries are interchangeable.
  Vector x = random_vector(4000, 1);
  std::vector<byte_t> blob{1, 2, 3, 4};

  auto sync_store = std::make_unique<MemoryStore>();
  auto* sync_raw = sync_store.get();
  NoneCompressor none;
  CheckpointManager sync_mgr(std::move(sync_store), &none);
  sync_mgr.protect(0, "x", &x);
  sync_mgr.protect_blob(1, "s", &blob);
  sync_mgr.checkpoint();

  auto async_store = std::make_unique<MemoryStore>();
  auto* async_raw = async_store.get();
  CheckpointManager async_mgr(std::move(async_store), &none);
  async_mgr.protect(0, "x", &x);
  async_mgr.protect_blob(1, "s", &blob);
  const StageTicket ticket = async_mgr.stage();
  EXPECT_EQ(ticket.version, 0);
  EXPECT_EQ(ticket.raw_bytes, 4000 * sizeof(double) + 4);
  const CheckpointRecord rec = async_mgr.wait_drain(ticket.version);
  async_mgr.commit_version(ticket.version);

  EXPECT_EQ(sync_raw->read(0), async_raw->read(0));
  EXPECT_EQ(rec.stored_bytes, sync_raw->read(0).size());
}

TEST(AsyncManager, StagingIsolatesFromLaterMutation) {
  // Values mutated after stage() must not leak into the drained version.
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  Vector x(100, 1.0);
  mgr.protect(0, "x", &x);
  const StageTicket ticket = mgr.stage();
  x.assign(100, 7.0);  // solver keeps iterating while the drain runs
  mgr.wait_drain(ticket.version);
  mgr.commit_version(ticket.version);
  mgr.recover();
  EXPECT_DOUBLE_EQ(x[0], 1.0);
}

TEST(AsyncManager, PendingVersionInvisibleUntilCommit) {
  NoneCompressor none;
  auto store = std::make_unique<MemoryStore>();
  auto* store_raw = store.get();
  CheckpointManager mgr(std::move(store), &none);
  Vector x(50, 2.0);
  mgr.protect(0, "x", &x);

  const StageTicket ticket = mgr.stage();
  mgr.wait_drain(ticket.version);
  EXPECT_FALSE(mgr.has_checkpoint());
  EXPECT_EQ(mgr.latest_version(), -1);
  EXPECT_TRUE(store_raw->has_pending(ticket.version));

  mgr.commit_version(ticket.version);
  EXPECT_TRUE(mgr.has_checkpoint());
  EXPECT_EQ(mgr.latest_version(), ticket.version);
  EXPECT_FALSE(store_raw->has_pending(ticket.version));
}

TEST(AsyncManager, AbortDuringDrainRecoversPreviousCommittedVersion) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  mgr.set_retention(2);
  Vector x(100, 1.0);
  mgr.protect(0, "x", &x);

  // v0 commits normally.
  const StageTicket t0 = mgr.stage();
  mgr.wait_drain(t0.version);
  mgr.commit_version(t0.version);

  // v1's drain is interrupted by a "failure": abort instead of commit.
  x.assign(100, 2.0);
  const StageTicket t1 = mgr.stage();
  mgr.wait_drain(t1.version);
  mgr.abort_version(t1.version);
  EXPECT_FALSE(mgr.store().has_pending(t1.version));
  EXPECT_EQ(mgr.latest_version(), t0.version);

  x.assign(100, 0.0);
  mgr.recover();
  EXPECT_DOUBLE_EQ(x[0], 1.0);  // v0's state, not v1's

  // The version counter does not reuse the aborted slot.
  x.assign(100, 3.0);
  const StageTicket t2 = mgr.stage();
  EXPECT_EQ(t2.version, t1.version + 1);
  mgr.wait_drain(t2.version);
  mgr.commit_version(t2.version);
  x.assign(100, 9.0);
  mgr.recover();
  EXPECT_DOUBLE_EQ(x[0], 3.0);
}

TEST(AsyncManager, DestructionJoinsInFlightDrainsAndAbortsUndecided) {
  // Destroying the manager with a drain still in flight must join the
  // worker before the staging slots and store are torn down (no use-after-
  // free; exercised under TSan in CI), and undecided versions roll back so
  // no .lck.pending file outlives the manager.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lckpt_async_dtor_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  NoneCompressor none;
  {
    CheckpointManager mgr(std::make_unique<DiskStore>(dir.string()), &none);
    Vector x(1u << 20, 1.5);
    mgr.protect(0, "x", &x);
    (void)mgr.stage();
  }  // dtor joins the drain and aborts the undecided version
  DiskStore reopened(dir.string());
  EXPECT_EQ(reopened.latest_version(), -1);
  EXPECT_FALSE(reopened.has_pending(0));
  std::filesystem::remove_all(dir);
}

TEST(AsyncManager, RetentionPrunesOnlyCommittedVersions) {
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  mgr.set_retention(2);
  Vector x(10, 0.0);
  mgr.protect(0, "x", &x);

  for (int v = 0; v < 3; ++v) {
    const StageTicket t = mgr.stage();
    mgr.wait_drain(t.version);
    mgr.commit_version(t.version);
  }
  // retention 2 after committing v0..v2: v0 pruned.
  EXPECT_FALSE(mgr.store().exists(0));
  EXPECT_TRUE(mgr.store().exists(1));
  EXPECT_TRUE(mgr.store().exists(2));

  // A pending drain is not pruned by a later... (cannot happen with the
  // double buffer's in-order commits, but the store must not count pending
  // versions as committed either way).
  const StageTicket t3 = mgr.stage();
  mgr.wait_drain(t3.version);
  EXPECT_TRUE(mgr.store().has_pending(3));
  EXPECT_EQ(mgr.latest_version(), 2);
  mgr.commit_version(t3.version);
  EXPECT_FALSE(mgr.store().exists(1));  // pruned by v3's commit
  EXPECT_TRUE(mgr.store().exists(2));
  EXPECT_TRUE(mgr.store().exists(3));
}

TEST(AsyncManager, RetentionPrunesAcrossAbortGaps) {
  // An aborted drain leaves a hole in the version sequence; pruning must
  // step over it instead of stopping, or stale versions pile up forever.
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  mgr.set_retention(1);
  Vector x(10, 0.0);
  mgr.protect(0, "x", &x);

  const StageTicket t0 = mgr.stage();
  mgr.wait_drain(t0.version);
  mgr.commit_version(t0.version);  // committed v0

  const StageTicket t1 = mgr.stage();
  mgr.wait_drain(t1.version);
  mgr.abort_version(t1.version);  // hole at v1

  const StageTicket t2 = mgr.stage();
  mgr.wait_drain(t2.version);
  mgr.commit_version(t2.version);  // committed v2: v0 must go despite the hole
  EXPECT_FALSE(mgr.store().exists(t0.version));
  EXPECT_TRUE(mgr.store().exists(t2.version));
}

TEST(AsyncManager, OutOfOrderCommitStillHonoursRetention) {
  // The double buffer allows two drains in flight; committing the newer
  // one first must not exempt the older from retention pruning.
  NoneCompressor none;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &none);
  mgr.set_retention(1);
  Vector x(32, 4.0);
  mgr.protect(0, "x", &x);

  const StageTicket t0 = mgr.stage();
  const StageTicket t1 = mgr.stage();
  mgr.wait_drain(t0.version);
  mgr.wait_drain(t1.version);
  mgr.commit_version(t1.version);  // newer first
  mgr.commit_version(t0.version);  // superseded: pruned immediately
  EXPECT_EQ(mgr.latest_version(), t1.version);
  EXPECT_FALSE(mgr.store().exists(t0.version));
  EXPECT_TRUE(mgr.store().exists(t1.version));
}

/// Compressor whose compress() always throws — drives the drain-failure
/// path through the writer and the staging slots.
class ThrowingCompressor final : public Compressor {
 public:
  [[nodiscard]] std::string name() const override { return "throwing"; }
  [[nodiscard]] bool lossy() const noexcept override { return false; }
  [[nodiscard]] std::vector<byte_t> compress(
      std::span<const double>) const override {
    throw corrupt_stream_error("compressor failure during drain");
  }
  void decompress(std::span<const byte_t>, std::span<double>) const override {
    throw corrupt_stream_error("unreachable");
  }
};

TEST(AsyncManager, DrainExceptionFreesStagingSlotAndPropagates) {
  // Three failing drains in a row: without slot release on the exception
  // path the third stage() would deadlock on the exhausted double buffer.
  ThrowingCompressor bad;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &bad);
  mgr.set_block_pipeline(0);
  Vector x(64, 1.0);
  mgr.protect(0, "x", &x);
  for (int round = 0; round < 3; ++round) {
    const StageTicket t = mgr.stage();
    EXPECT_THROW((void)mgr.wait_drain(t.version), corrupt_stream_error);
    mgr.abort_version(t.version);
    EXPECT_FALSE(mgr.store().has_pending(t.version));
  }
  EXPECT_EQ(mgr.versions_in_flight(), 0);
  EXPECT_FALSE(mgr.has_checkpoint());
}

TEST(AsyncManager, LossyStagedCheckpointHonoursErrorBound) {
  const ErrorBound eb = ErrorBound::pointwise_rel(1e-4);
  const auto sz = make_compressor("sz", eb);
  CheckpointManager mgr(std::make_unique<MemoryStore>(), sz.get());
  Vector x(20000);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(0.001 * static_cast<double>(i)) + 2.0;
  const Vector original = x;
  mgr.protect(0, "x", &x);

  const StageTicket t = mgr.stage();
  const CheckpointRecord rec = mgr.wait_drain(t.version);
  EXPECT_LT(rec.stored_bytes * 5, rec.raw_bytes);  // actually compressed
  mgr.commit_version(t.version);
  x.assign(x.size(), 0.0);
  mgr.recover();
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_LE(std::fabs(x[i] - original[i]),
              1e-4 * std::fabs(original[i]) + 1e-300);
}

// ----- double-buffer back-pressure ------------------------------------------

/// Compressor whose compress() blocks until released — lets the test hold a
/// drain open deterministically to exercise slot back-pressure for real.
/// Every wait is bounded by a generous deadline: on a loaded single-core
/// container the worker thread can be scheduled very late, but a wait that
/// exceeds the deadline is a genuine hang and must fail the test rather
/// than wedge the whole CTest run.
class GateCompressor final : public Compressor {
 public:
  static constexpr auto kDeadline = std::chrono::seconds(60);

  [[nodiscard]] std::string name() const override { return "none"; }
  [[nodiscard]] bool lossy() const noexcept override { return false; }
  [[nodiscard]] std::vector<byte_t> compress(
      std::span<const double> data) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      if (!cv_.wait_for(lock, kDeadline, [&] { return open_; }))
        throw corrupt_stream_error("gate compressor: deadline expired");
    }
    return none_.compress(data);
  }
  void decompress(std::span<const byte_t> stream,
                  std::span<double> out) const override {
    none_.decompress(stream, out);
  }
  void open() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  [[nodiscard]] bool wait_entered(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kDeadline, [&] { return entered_ >= n; });
  }

 private:
  NoneCompressor none_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int entered_ = 0;
  bool open_ = false;
};

TEST(AsyncManager, ThirdStageBlocksUntilASlotDrains) {
  GateCompressor gate;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &gate);
  // Keep the manager's automatic block pipeline out of the way so the gate
  // compressor sees exactly one compress() call per stage.
  mgr.set_block_pipeline(0);
  Vector x(64, 1.0);
  mgr.protect(0, "x", &x);

  const StageTicket t0 = mgr.stage();  // worker enters the gate
  ASSERT_TRUE(gate.wait_entered(1)) << "drain never reached the compressor";
  const StageTicket t1 = mgr.stage();  // second slot: stages fine

  std::atomic<bool> third_staged{false};
  std::thread t([&] {
    (void)mgr.stage();  // both slots busy: must block until the gate opens
    third_staged = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_staged.load()) << "third stage() must back-pressure";

  gate.open();
  t.join();
  EXPECT_TRUE(third_staged.load());
  for (const int v : {t0.version, t1.version, t1.version + 1}) {
    mgr.wait_drain(v);
    mgr.commit_version(v);
  }
  EXPECT_EQ(mgr.latest_version(), t1.version + 1);
}

// ----- the joiner helps the drain -------------------------------------------

/// Lossless compressor that pins one drain/joiner interleaving: the drain
/// thread's first compress() waits until the thread that built the
/// compressor (the owner, joining in wait_drain) has entered compress() for
/// a later chunk, so the owner is sure to claim one. With fail_on_owner set,
/// the owner's chunks throw. Waits are bounded like GateCompressor's.
class HandoffCompressor final : public Compressor {
 public:
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool lossy() const noexcept override { return false; }
  [[nodiscard]] std::vector<byte_t> compress(
      std::span<const double> data) const override {
    const bool on_owner = std::this_thread::get_id() == owner_;
    bool fail = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (on_owner) {
        ++owner_calls_;
        fail = fail_on_owner_;
        cv_.notify_all();
      } else if (!drain_waited_) {
        drain_waited_ = true;
        (void)cv_.wait_for(lock, GateCompressor::kDeadline,
                           [&] { return owner_calls_ > 0; });
      }
    }
    if (fail) throw corrupt_stream_error("codec failure on the joiner's chunk");
    return inner_->compress(data);
  }
  void decompress(std::span<const byte_t> stream,
                  std::span<double> out) const override {
    inner_->decompress(stream, out);
  }
  /// Re-arm for the next drain.
  void reset(bool fail_on_owner) {
    const std::lock_guard<std::mutex> lock(mu_);
    fail_on_owner_ = fail_on_owner;
    drain_waited_ = false;
    owner_calls_ = 0;
  }
  [[nodiscard]] int owner_calls() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return owner_calls_;
  }

 private:
  std::unique_ptr<Compressor> inner_ = make_compressor("deflate");
  std::thread::id owner_ = std::this_thread::get_id();
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool drain_waited_ = false;
  mutable int owner_calls_ = 0;
  bool fail_on_owner_ = false;
};

TEST(AsyncManager, HelpedDrainIsBitIdenticalToSyncCheckpoint) {
  // Many small chunks, and wait_drain() right after stage(): the owner
  // compresses some of them, yet the stream is the sync path's, byte for
  // byte.
  Vector x = random_vector(20000, 3);
  Vector p = random_vector(20000, 4);
  std::vector<byte_t> blob{9, 8, 7};
  const auto deflate = make_compressor("deflate");

  auto sync_store = std::make_unique<MemoryStore>();
  auto* sync_raw = sync_store.get();
  CheckpointManager sync_mgr(std::move(sync_store), deflate.get());
  sync_mgr.set_block_pipeline(1024);
  sync_mgr.protect(0, "x", &x);
  sync_mgr.protect(1, "p", &p);
  sync_mgr.protect_blob(2, "s", &blob);
  sync_mgr.checkpoint();

  HandoffCompressor handoff;
  obs::MetricsRegistry reg;
  auto async_store = std::make_unique<MemoryStore>();
  auto* async_raw = async_store.get();
  CheckpointManager async_mgr(std::move(async_store), &handoff);
  async_mgr.set_observability({&reg, nullptr});
  async_mgr.set_block_pipeline(1024);
  async_mgr.protect(0, "x", &x);
  async_mgr.protect(1, "p", &p);
  async_mgr.protect_blob(2, "s", &blob);
  const StageTicket t = async_mgr.stage();
  const CheckpointRecord rec = async_mgr.wait_drain(t.version);
  async_mgr.commit_version(t.version);

  EXPECT_EQ(sync_raw->read(0), async_raw->read(0));
  EXPECT_EQ(rec.stored_bytes, sync_raw->read(0).size());
  EXPECT_GE(handoff.owner_calls(), 1) << "the joiner never helped";
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("ckpt.drain_helped_chunks"),
            static_cast<double>(handoff.owner_calls()));
  const auto* join = snap.histogram("ckpt.drain_join_seconds");
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->count, 1u);
}

TEST(AsyncManager, CodecErrorOnJoinersChunkSurfacesFromWaitDrain) {
  HandoffCompressor handoff;
  CheckpointManager mgr(std::make_unique<MemoryStore>(), &handoff);
  mgr.set_block_pipeline(1024);
  Vector x = random_vector(20000, 5);
  const Vector original = x;
  mgr.protect(0, "x", &x);

  handoff.reset(/*fail_on_owner=*/true);
  const StageTicket bad = mgr.stage();
  EXPECT_THROW((void)mgr.wait_drain(bad.version), corrupt_stream_error);
  EXPECT_GE(handoff.owner_calls(), 1);
  mgr.abort_version(bad.version);
  EXPECT_FALSE(mgr.store().has_pending(bad.version));
  EXPECT_EQ(mgr.versions_in_flight(), 0);

  // Both staging slots are free again: two stages in a row do not block.
  handoff.reset(/*fail_on_owner=*/false);
  const StageTicket t0 = mgr.stage();
  const StageTicket t1 = mgr.stage();
  for (const int v : {t0.version, t1.version}) {
    mgr.wait_drain(v);
    mgr.commit_version(v);
  }
  x.assign(x.size(), 0.0);
  mgr.recover();
  EXPECT_EQ(x, original);
}

// ----- stores: pending state across both backends ---------------------------

TEST(AsyncStore, DiskCommitIsRenameOnlyAndStalePendingIsSweptOnReopen) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lckpt_async_disk_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    DiskStore store(dir.string());
    store.write_pending(3, std::vector<byte_t>{1, 2});
    store.commit(3);  // rename .lck.pending -> .lck
    EXPECT_EQ(store.latest_version(), 3);
    EXPECT_EQ(store.read(3), (std::vector<byte_t>{1, 2}));

    store.write_pending(4, std::vector<byte_t>{9, 8, 7});
    EXPECT_TRUE(store.has_pending(4));
    EXPECT_EQ(store.latest_version(), 3);  // pending is invisible
  }  // "crash" with version 4 still pending
  {
    DiskStore reopened(dir.string());
    // The uncommitted leftover was swept; committed state is untouched.
    EXPECT_FALSE(reopened.has_pending(4));
    EXPECT_EQ(reopened.latest_version(), 3);
    EXPECT_THROW(reopened.commit(4), config_error);
  }
  std::filesystem::remove_all(dir);
}

TEST(AsyncStore, AbortDropsPendingWithoutTouchingCommitted) {
  MemoryStore store;
  store.write(0, std::vector<byte_t>{1});
  store.write_pending(1, std::vector<byte_t>{2});
  store.abort(1);
  EXPECT_FALSE(store.has_pending(1));
  EXPECT_EQ(store.latest_version(), 0);
  EXPECT_THROW(store.commit(1), config_error);
}

// ----- runner: async mode ---------------------------------------------------

ResilienceConfig async_config(CkptScheme scheme) {
  ResilienceConfig cfg;
  cfg.scheme = scheme;
  cfg.ckpt_mode = CkptMode::kAsync;
  cfg.policy.interval_seconds = 20.0;
  cfg.failure.mtti_seconds = 60.0;  // aggressive failures for coverage
  cfg.iteration_seconds = 5.0;
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

class AsyncRunnerScheme : public ::testing::TestWithParam<CkptScheme> {};

TEST_P(AsyncRunnerScheme, ConvergesUnderFailures) {
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg = async_config(GetParam());
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  EXPECT_TRUE(res.converged) << to_string(GetParam());
  EXPECT_GT(res.failures, 0) << "test should exercise failures";
  EXPECT_LE(true_rel_residual(p.a, p.b, solver->solution()), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Schemes, AsyncRunnerScheme,
                         ::testing::Values(CkptScheme::kTraditional,
                                           CkptScheme::kLossless,
                                           CkptScheme::kLossy),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(AsyncRunner, FailureDuringDrainFallsBackToCommittedVersion) {
  // Make every drain much longer than the checkpoint interval so failures
  // regularly strike inside drain windows; the run must keep converging by
  // recovering from older committed versions (and count the aborts).
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg = async_config(CkptScheme::kTraditional);
  cfg.cluster.pfs_write_bw = 100.0;  // glacial PFS: drains span intervals
  cfg.failure.mtti_seconds = 120.0;
  cfg.failure.seed = 3;
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.failures, 0);
  EXPECT_GT(res.aborted_drains, 0)
      << "config should force failures inside drain windows";
  EXPECT_LE(true_rel_residual(p.a, p.b, solver->solution()), 1e-7);
}

TEST(AsyncRunner, BackpressureAccruesWhenDrainOutlivesInterval) {
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);
  auto solver = p.make_solver();
  ResilienceConfig cfg = async_config(CkptScheme::kTraditional);
  cfg.failure.inject = false;
  cfg.cluster.pfs_write_bw = 100.0;  // drain ≫ interval ⇒ every stage waits
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  EXPECT_TRUE(res.converged);
  ASSERT_GT(res.checkpoints, 1);
  EXPECT_GT(res.backpressure_seconds_total, 0.0);
  // Blocking time decomposition stays exact under back-pressure.
  EXPECT_NEAR(res.virtual_seconds,
              static_cast<double>(res.executed_steps) * cfg.iteration_seconds +
                  res.ckpt_seconds_total + res.recovery_seconds_total,
              1e-9);
  // Only genuinely concurrent drain work counts as overlapped: it can
  // never exceed the iteration time it overlapped with, and the
  // back-pressured tails are charged as blocking time, not here.
  EXPECT_LE(res.ckpt_drain_seconds_total,
            static_cast<double>(res.executed_steps) * cfg.iteration_seconds);
}

TEST(AsyncRunner, BlockingCheckpointTimeDropsVsSync) {
  // The acceptance metric: same run, sync vs async — the blocking portion
  // (ckpt_seconds_total) must shrink, and the drain must move off the
  // critical path (shorter total virtual time).
  const LocalProblem p = make_local_problem("cg", 8, 1e-8);

  ResilienceConfig sync_cfg = async_config(CkptScheme::kTraditional);
  sync_cfg.ckpt_mode = CkptMode::kSync;
  sync_cfg.failure.inject = false;
  auto s1 = p.make_solver();
  const auto sync_res = ResilientRunner(*s1, sync_cfg).run();

  ResilienceConfig async_cfg_ = async_config(CkptScheme::kTraditional);
  async_cfg_.failure.inject = false;
  auto s2 = p.make_solver();
  const auto async_res = ResilientRunner(*s2, async_cfg_).run();

  ASSERT_GT(sync_res.checkpoints, 0);
  ASSERT_GT(async_res.checkpoints, 0);
  EXPECT_LT(async_res.ckpt_seconds_total, 0.5 * sync_res.ckpt_seconds_total);
  EXPECT_LT(async_res.virtual_seconds, sync_res.virtual_seconds);
  EXPECT_GT(async_res.ckpt_drain_seconds_total, 0.0);
}

TEST(AsyncRunner, RecoveredStateMatchesSyncForSameCheckpointData) {
  // Recovery itself is mode-agnostic: a checkpoint drained asynchronously
  // restores exactly the state a synchronous checkpoint of the same values
  // would. (Verified at the manager layer bit-for-bit; here end-to-end.)
  const LocalProblem p = make_local_problem("jacobi", 6, 1e-8);

  auto sync_solver = p.make_solver();
  for (int i = 0; i < 40; ++i) sync_solver->step();
  NoneCompressor none;
  Vector sync_x = sync_solver->solution();

  auto async_solver = p.make_solver();
  for (int i = 0; i < 40; ++i) async_solver->step();
  Vector async_x = async_solver->solution();

  CheckpointManager sync_mgr(std::make_unique<MemoryStore>(), &none);
  sync_mgr.protect(0, "x", &sync_x);
  sync_mgr.checkpoint();

  CheckpointManager async_mgr(std::make_unique<MemoryStore>(), &none);
  async_mgr.protect(0, "x", &async_x);
  const StageTicket t = async_mgr.stage();
  async_mgr.wait_drain(t.version);
  async_mgr.commit_version(t.version);

  sync_x.assign(sync_x.size(), 0.0);
  async_x.assign(async_x.size(), 0.0);
  sync_mgr.recover();
  async_mgr.recover();
  EXPECT_EQ(sync_x, async_x);
}

TEST(AsyncRunner, BitStableAcrossRerunsForFixedSeed) {
  const LocalProblem p = make_local_problem("cg", 7, 1e-8);
  ResilienceConfig cfg = async_config(CkptScheme::kLossy);
  cfg.failure.seed = 31;

  auto s1 = p.make_solver();
  const auto r1 = ResilientRunner(*s1, cfg).run();
  auto s2 = p.make_solver();
  const auto r2 = ResilientRunner(*s2, cfg).run();

  EXPECT_EQ(r1.failures, r2.failures);
  EXPECT_EQ(r1.executed_steps, r2.executed_steps);
  EXPECT_EQ(r1.checkpoints, r2.checkpoints);
  EXPECT_EQ(r1.aborted_drains, r2.aborted_drains);
  EXPECT_DOUBLE_EQ(r1.virtual_seconds, r2.virtual_seconds);
  EXPECT_DOUBLE_EQ(r1.ckpt_seconds_total, r2.ckpt_seconds_total);
  EXPECT_DOUBLE_EQ(r1.ckpt_drain_seconds_total, r2.ckpt_drain_seconds_total);
  // The recovered solver state itself is bit-stable.
  const Vector& x1 = s1->solution();
  const Vector& x2 = s2->solution();
  ASSERT_EQ(x1.size(), x2.size());
  for (std::size_t i = 0; i < x1.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(x1[i]),
              std::bit_cast<std::uint64_t>(x2[i]));
}

TEST(AsyncRunner, RetentionTwoSurvivesAbortedDrains) {
  // retention=2 with pending versions: after an aborted drain the previous
  // committed version must still exist (never pruned out from under us).
  const LocalProblem p = make_local_problem("jacobi", 6, 1e-6);
  auto solver = p.make_solver();
  ResilienceConfig cfg = async_config(CkptScheme::kLossy);
  cfg.cluster.pfs_write_bw = 5e4;
  cfg.failure.mtti_seconds = 90.0;
  cfg.failure.seed = 19;
  ResilientRunner runner(*solver, cfg);
  const auto res = runner.run();
  EXPECT_TRUE(res.converged);
  EXPECT_LE(true_rel_residual(p.a, p.b, solver->solution()), 1.2e-6);
}

}  // namespace
}  // namespace lck
