#pragma once
/// \file timing.hpp
/// \brief Outside-in layer timing for the resilient-solve benchmark.
///
/// Every per-layer number the benchmark reports is measured here, from the
/// benchmark's own files, by timing calls into the library's public
/// functions. Nothing inside the library is instrumented:
///  - SpanLog keeps a span tree in memory (name, thread, start, end,
///    parent, bytes moved) plus per-name totals, and writes it at exit as a
///    Chrome trace through the library's own trace writer;
///  - TimedStore decorates any CheckpointStore (plugged in through
///    ResilienceConfig::store_factory or handed to a CheckpointManager);
///  - TimingCompressor decorates any Compressor (passed through protect()'s
///    per-variable override).
/// Both decorators forward every call unchanged, so the bytes they let
/// through are identical to the undecorated path (checked by the selftest
/// and by every traced run).

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ckpt/checkpoint_store.hpp"
#include "compress/compressor.hpp"
#include "obs/trace.hpp"

namespace solvebench {

/// Median of `v` (mean of the middle two for even sizes; 0 when empty).
[[nodiscard]] double median(std::vector<double> v);

/// Per-name aggregate of the spans recorded under that name.
struct LayerTotals {
  std::vector<double> seconds;  ///< One entry per call, in record order.
  double bytes = 0.0;           ///< Bytes the calls moved (0 if not known).
  [[nodiscard]] double total_seconds() const;
};

/// In-memory span tree. Spans go straight into a library TraceRecorder
/// (timestamps are real seconds since the log was created; each span
/// carries its id, its parent's id and the bytes it moved as arguments),
/// and per-name totals are kept beside it. Thread-safe: the async drain
/// thread and the owner thread record concurrently. A thread's spans share
/// one track, named by set_thread_label() or "thread-<n>" for threads the
/// library starts; parent links follow the calling thread's open spans.
class SpanLog {
 public:
  SpanLog();

  /// Seconds since the log was created (the trace's time origin).
  [[nodiscard]] double now() const;

  /// Totals of every span recorded under `name` so far (copy).
  [[nodiscard]] LayerTotals totals(const std::string& name) const;
  /// Sum of total seconds over several names.
  [[nodiscard]] double seconds_of(const std::vector<std::string>& names) const;

  /// The recorded spans (write several logs into one Chrome trace with
  /// lck::obs::write_chrome_trace).
  [[nodiscard]] const lck::obs::TraceRecorder& recorder() const noexcept {
    return trace_;
  }

  /// Name the calling thread's track.
  static void set_thread_label(std::string label);

 private:
  friend class Span;
  std::uint64_t reserve_id();
  /// Record a finished call [t0, t1] moving `bytes` on the calling
  /// thread's track.
  void record(const std::string& name, double t0, double t1, double bytes,
              std::uint64_t id, std::uint64_t parent);

  std::chrono::steady_clock::time_point epoch_;
  lck::obs::TraceRecorder trace_;
  mutable std::mutex mu_;
  std::map<std::string, LayerTotals> totals_;
  std::uint64_t next_id_ = 1;
};

/// RAII span: opens on construction, records on destruction (also when the
/// timed call throws). Nested Spans on one thread form a parent chain. A
/// null log makes the span a no-op.
class Span {
 public:
  Span(SpanLog* log, std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_bytes(double bytes) { bytes_ = bytes; }

 private:
  SpanLog* log_;
  std::string name_;
  double t0_ = 0.0;
  double bytes_ = 0.0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

/// CheckpointStore decorator timing write, write_pending, the sinks from
/// open_write_pending, commit, abort, read and the sources from open_read.
/// Span names: store.write, store.write_pending, store.open_write_pending,
/// store.sink_append, store.sink_finish, store.commit, store.abort,
/// store.read, store.open_read, store.source_read. Writes and reads carry
/// the bytes they moved.
class TimedStore final : public lck::CheckpointStore {
 public:
  TimedStore(std::unique_ptr<lck::CheckpointStore> inner, SpanLog& log);

  void write(int version, std::span<const lck::byte_t> data) override;
  [[nodiscard]] std::vector<lck::byte_t> read(int version) const override;
  [[nodiscard]] bool exists(int version) const override;
  void remove(int version) override;
  [[nodiscard]] int latest_version() const override;

  void write_pending(int version, std::span<const lck::byte_t> data) override;
  void commit(int version) override;
  void abort(int version) override;
  [[nodiscard]] bool has_pending(int version) const override;

  [[nodiscard]] std::unique_ptr<lck::ByteSink> open_write_pending(
      int version) override;
  [[nodiscard]] std::unique_ptr<lck::ByteSource> open_read(
      int version) const override;

  void set_observability(lck::obs::Sink sink) override;

 private:
  std::unique_ptr<lck::CheckpointStore> inner_;
  SpanLog& log_;
};

/// Compressor decorator timing compress() and decompress() (span names
/// codec.<inner name>.compress / .decompress, bytes = raw bytes). Forwards
/// name() and lossy(), so streams are byte-identical and recovery accepts
/// them. Safe to call from several threads at once.
class TimingCompressor final : public lck::Compressor {
 public:
  TimingCompressor(const lck::Compressor& inner, SpanLog& log);

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool lossy() const noexcept override { return inner_.lossy(); }
  [[nodiscard]] std::vector<lck::byte_t> compress(
      std::span<const double> data) const override;
  void decompress(std::span<const lck::byte_t> stream,
                  std::span<double> out) const override;

 private:
  const lck::Compressor& inner_;
  SpanLog& log_;
};

}  // namespace solvebench
