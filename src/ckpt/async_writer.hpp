#pragma once
/// \file async_writer.hpp
/// \brief Background drain thread for the staged checkpoint pipeline.
///
/// The CheckpointManager stages a snapshot (fast memcpy) and hands this
/// writer a drain job — compress the staged variables, serialize them and
/// write the result as a *pending* store version — so the solver keeps
/// iterating while the expensive part runs off the critical path (the
/// FTI/SCR multilevel-checkpointing overlap the paper's Tt metric pays for
/// synchronously). Jobs start strictly in submission order on one worker
/// thread, which does all of a job's serialization; a thread that joins a
/// job in wait() first runs the job's help hook, so it can compress the
/// job's chunks instead of sitting idle (see DrainBoard). Completion is
/// observed with wait() and the commit or abort decision stays with the
/// caller.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/checkpoint_record.hpp"
#include "common/types.hpp"
#include "compress/compressor.hpp"

namespace lck {

class AsyncCheckpointWriter {
 public:
  /// A drain job: compress + serialize + write_pending, returning the
  /// accounting record of the produced (pending) checkpoint.
  using Job = std::function<CheckpointRecord()>;
  /// Work a joining thread may do for its job before blocking on it. It
  /// runs on the thread in wait() and must return once the job has nothing
  /// left to share (at the latest when the job finishes).
  using Help = std::function<void()>;

  AsyncCheckpointWriter();
  /// Joins the worker after finishing every queued job. Results never
  /// fetched are dropped (their pending store versions stay pending; the
  /// owning manager aborts or commits them as it sees fit).
  ~AsyncCheckpointWriter();

  AsyncCheckpointWriter(const AsyncCheckpointWriter&) = delete;
  AsyncCheckpointWriter& operator=(const AsyncCheckpointWriter&) = delete;

  /// Enqueue the drain for `version`, with the help hook wait() runs.
  /// Versions must be unique among jobs whose results have not been
  /// fetched yet.
  void submit(int version, Job job, Help help = {});

  /// Run `version`'s help hook, then block until its drain finishes and
  /// return its record, rethrowing any exception the job raised. Each
  /// submitted version may be waited on exactly once.
  CheckpointRecord wait(int version);

 private:
  struct Outcome {
    CheckpointRecord record;
    std::exception_ptr error;
  };

  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<int, Job>> queue_;
  std::map<int, Help> help_;  ///< Hooks of submitted, not yet waited jobs.
  std::map<int, Outcome> done_;
  bool stop_ = false;
  std::thread worker_;
};

/// The compress tasks of one checkpoint, shared between the drain thread
/// and the thread that joins it. It is the only place the manager
/// compresses chunks: the framed serializer's chunks and the delta
/// serializer's literal chunks both go through it, and checkpoint() uses a
/// board nobody helps.
///
/// The drain publishes its (variable, chunk) tasks in stream order and
/// take()s each chunk's payload in that order, compressing it itself unless
/// the joiner already claimed it. The joiner, in help(), claims only the
/// chunk right after the one the drain is compressing or writing itself,
/// so at most two payloads exist at once: the drain's and the joiner's.
/// Every payload is the same comp->compress() of the same slice whichever
/// thread ran it, so the stream is byte-identical to an unhelped drain.
class DrainBoard {
 public:
  struct Task {
    const Compressor* comp = nullptr;
    std::span<const double> slice;
  };

  /// Drain: announce every task, in stream order (at most once).
  void publish(std::vector<Task> tasks);

  /// Drain: the payload of task `i`; tasks are taken in order 0, 1, ....
  /// Compresses on the calling thread, or waits for the joiner's payload if
  /// the joiner claimed `i` and rethrows the joiner's codec exception.
  std::vector<byte_t> take(std::size_t i);

  /// Drain: no more takes. Waits until a chunk the joiner is compressing is
  /// done, so the staged data the tasks point into may be released after
  /// this returns, and releases the joiner. Idempotent.
  void close();

  /// Joiner: compress claimable chunks until the drain has claimed the
  /// rest or closed the board. Returns the number of chunks compressed.
  std::size_t help();

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// The joiner may claim task next_ (call with mu_ held).
  [[nodiscard]] bool claimable() const noexcept;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Task> tasks_;
  bool published_ = false;
  bool closed_ = false;
  std::size_t next_ = 0;      ///< First task nobody has claimed.
  bool drain_owns_ = false;   ///< Task next_ - 1 is the drain's own.
  std::size_t helper_task_ = kNone;  ///< The joiner's claim, if any.
  bool helper_done_ = false;  ///< The claim's payload (or error) is in.
  std::vector<byte_t> helper_payload_;
  std::exception_ptr helper_error_;
};

}  // namespace lck
