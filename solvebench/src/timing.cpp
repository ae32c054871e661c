#include "timing.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

namespace solvebench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> t_open_spans;
/// Track name of the calling thread ("" until first use or a label).
thread_local std::string t_label;
std::atomic<int> g_unlabeled_threads{0};

const std::string& thread_label() {
  if (t_label.empty())
    t_label = "thread-" + std::to_string(++g_unlabeled_threads);
  return t_label;
}

}  // namespace

double LayerTotals::total_seconds() const {
  double s = 0.0;
  for (const double v : seconds) s += v;
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}


SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::uint64_t SpanLog::reserve_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanLog::record(const std::string& name, double t0, double t1,
                     double bytes, std::uint64_t id, std::uint64_t parent) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    LayerTotals& t = totals_[name];
    t.seconds.push_back(t1 - t0);
    t.bytes += bytes;
  }
  std::vector<lck::obs::TraceArg> args{
      lck::obs::TraceArg::num("id", static_cast<double>(id)),
      lck::obs::TraceArg::num("parent", static_cast<double>(parent))};
  if (bytes > 0.0) args.push_back(lck::obs::TraceArg::num("bytes", bytes));
  trace_.complete(thread_label(), name, t0, t1, std::move(args));
}

LayerTotals SpanLog::totals(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = totals_.find(name);
  return it != totals_.end() ? it->second : LayerTotals{};
}

double SpanLog::seconds_of(const std::vector<std::string>& names) const {
  double s = 0.0;
  for (const auto& n : names) s += totals(n).total_seconds();
  return s;
}

void SpanLog::set_thread_label(std::string label) {
  t_label = std::move(label);
}

Span::Span(SpanLog* log, std::string name)
    : log_(log), name_(std::move(name)) {
  if (log_ == nullptr) return;
  parent_ = t_open_spans.empty() ? 0 : t_open_spans.back();
  id_ = log_->reserve_id();
  t_open_spans.push_back(id_);
  t0_ = log_->now();
}

Span::~Span() {
  if (log_ == nullptr) return;
  const double t1 = log_->now();
  t_open_spans.pop_back();
  log_->record(name_, t0_, t1, bytes_, id_, parent_);
}

// ----- TimedStore -----------------------------------------------------------

namespace {

class TimedSink final : public lck::ByteSink {
 public:
  TimedSink(std::unique_ptr<lck::ByteSink> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  void append(std::span<const lck::byte_t> bytes) override {
    Span span(&log_, "store.sink_append");
    span.set_bytes(static_cast<double>(bytes.size()));
    inner_->append(bytes);
  }
  void finish() override {
    Span span(&log_, "store.sink_finish");
    inner_->finish();
  }

 private:
  std::unique_ptr<lck::ByteSink> inner_;
  SpanLog& log_;
};

class TimedSource final : public lck::ByteSource {
 public:
  TimedSource(std::unique_ptr<lck::ByteSource> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  [[nodiscard]] std::size_t read_some(std::span<lck::byte_t> dst) override {
    Span span(&log_, "store.source_read");
    const std::size_t n = inner_->read_some(dst);
    span.set_bytes(static_cast<double>(n));
    return n;
  }

 private:
  std::unique_ptr<lck::ByteSource> inner_;
  SpanLog& log_;
};

}  // namespace

TimedStore::TimedStore(std::unique_ptr<lck::CheckpointStore> inner,
                       SpanLog& log)
    : inner_(std::move(inner)), log_(log) {}

void TimedStore::write(int version, std::span<const lck::byte_t> data) {
  Span span(&log_, "store.write");
  span.set_bytes(static_cast<double>(data.size()));
  inner_->write(version, data);
}

std::vector<lck::byte_t> TimedStore::read(int version) const {
  Span span(&log_, "store.read");
  std::vector<lck::byte_t> out = inner_->read(version);
  span.set_bytes(static_cast<double>(out.size()));
  return out;
}

bool TimedStore::exists(int version) const { return inner_->exists(version); }

void TimedStore::remove(int version) { inner_->remove(version); }

int TimedStore::latest_version() const { return inner_->latest_version(); }

void TimedStore::write_pending(int version,
                               std::span<const lck::byte_t> data) {
  Span span(&log_, "store.write_pending");
  span.set_bytes(static_cast<double>(data.size()));
  inner_->write_pending(version, data);
}

void TimedStore::commit(int version) {
  Span span(&log_, "store.commit");
  inner_->commit(version);
}

void TimedStore::abort(int version) {
  Span span(&log_, "store.abort");
  inner_->abort(version);
}

bool TimedStore::has_pending(int version) const {
  return inner_->has_pending(version);
}

std::unique_ptr<lck::ByteSink> TimedStore::open_write_pending(int version) {
  Span span(&log_, "store.open_write_pending");
  return std::make_unique<TimedSink>(inner_->open_write_pending(version),
                                     log_);
}

std::unique_ptr<lck::ByteSource> TimedStore::open_read(int version) const {
  Span span(&log_, "store.open_read");
  return std::make_unique<TimedSource>(inner_->open_read(version), log_);
}

void TimedStore::set_observability(lck::obs::Sink sink) {
  inner_->set_observability(sink);
}

// ----- TimingCompressor -----------------------------------------------------

TimingCompressor::TimingCompressor(const lck::Compressor& inner, SpanLog& log)
    : inner_(inner), log_(log) {}

std::vector<lck::byte_t> TimingCompressor::compress(
    std::span<const double> data) const {
  Span span(&log_, "codec." + inner_.name() + ".compress");
  span.set_bytes(static_cast<double>(data.size_bytes()));
  return inner_.compress(data);
}

void TimingCompressor::decompress(std::span<const lck::byte_t> stream,
                                  std::span<double> out) const {
  Span span(&log_, "codec." + inner_.name() + ".decompress");
  span.set_bytes(static_cast<double>(out.size_bytes()));
  inner_.decompress(stream, out);
}

}  // namespace solvebench
