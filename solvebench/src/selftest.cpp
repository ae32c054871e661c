/// Self-test of the benchmark's own instruments:
///  - blobs stored through TimedStore + TimingCompressor are byte-identical
///    to blobs stored without them, on every store write path (streamed
///    frames, the legacy whole-blob writes, staged drains, delta chains,
///    the in-memory pending default), and recover the same values;
///  - the decorators record what they forwarded (calls and bytes);
///  - a traced workload run reproduces the untraced run's outcome exactly.
///
/// Run: python3 solvebench/run.py --selftest   (or ctest in the build dir).
/// Exits 0 when every check passes.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint_manager.hpp"
#include "timing.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace solvebench;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// Runs one group of checks; an exception fails the group instead of
/// ending the program.
void guarded(const std::string& what, const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    check(false, what + " threw: " + e.what());
  }
}

/// Scratch directory in the working directory, private to this process.
const std::string kTmp =
    "solvebench-selftest-tmp-" + std::to_string(getpid());

lck::Vector field(std::size_t n, double phase) {
  lck::Vector v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = 1.5 + std::sin(0.001 * static_cast<double>(i) + phase);
  return v;
}

/// How a manager writes: sync or staged, streamed or legacy, delta or not.
struct Path {
  std::string name;
  bool staged = false;
  bool streaming = true;
  int delta_chain = 0;
  bool disk = true;
};

/// Writes three versions of two vectors through a plain and a decorated
/// stack and compares every stored blob, then recovers through both.
void check_identical_blobs(const Path& path, const std::string& codec_name) {
  const std::string tag = path.name + "/" + codec_name;
  SpanLog log;
  const auto codec = lck::make_compressor(codec_name);
  const TimingCompressor timing(*codec, log);
  const auto make_store = [&](const std::string& dir)
      -> std::unique_ptr<lck::CheckpointStore> {
    if (path.disk) return std::make_unique<lck::DiskStore>(dir);
    return std::make_unique<lck::MemoryStore>();
  };
  fs::remove_all(kTmp);
  lck::CheckpointManager plain(make_store(kTmp + "/plain"), nullptr);
  auto inner = make_store(kTmp + "/timed");
  lck::CheckpointManager timed(
      std::make_unique<TimedStore>(std::move(inner), log), nullptr);

  // Larger than one block/frame, so chunked paths are exercised.
  lck::Vector x = field(200000, 0.0);
  lck::Vector p = field(200000, 1.0);
  lck::Vector xr_plain(x.size()), pr_plain(p.size());
  lck::Vector xr_timed(x.size()), pr_timed(p.size());
  std::vector<lck::byte_t> blob{1, 2, 3, 4};
  plain.protect(0, "x", &x, &xr_plain, codec.get());
  plain.protect(1, "p", &p, &pr_plain, codec.get());
  plain.protect_blob(2, "scalars", &blob);
  timed.protect(0, "x", &x, &xr_timed, &timing);
  timed.protect(1, "p", &p, &pr_timed, &timing);
  timed.protect_blob(2, "scalars", &blob);
  for (lck::CheckpointManager* m : {&plain, &timed}) {
    lck::StreamingConfig sc;
    sc.enabled = path.streaming;
    m->set_streaming(sc);
    m->set_retention(8);
    if (path.delta_chain > 0) m->set_delta(path.delta_chain);
  }

  bool same = true;
  for (int k = 0; k < 3; ++k) {
    // Change half of x so delta versions mix literal and reference chunks.
    for (std::size_t i = 0; i < x.size() / 2; ++i) x[i] += 0.25;
    blob[0] = static_cast<lck::byte_t>(k);
    int versions[2] = {-1, -1};
    int slot = 0;
    for (lck::CheckpointManager* m : {&plain, &timed}) {
      if (path.staged) {
        const int v = m->stage().version;
        (void)m->wait_drain(v);
        m->commit_version(v);
        versions[slot++] = v;
      } else {
        versions[slot++] = m->checkpoint().version;
      }
    }
    same = same && versions[0] == versions[1] &&
           plain.store().read(versions[0]) == timed.store().read(versions[1]);
  }
  check(same, tag + ": decorated blobs are byte-identical");

  (void)plain.recover();
  (void)timed.recover();
  check(xr_plain == xr_timed && pr_plain == pr_timed,
        tag + ": recovery through the decorators restores the same values");

  const double codec_calls =
      static_cast<double>(log.totals("codec." + codec_name + ".compress")
                              .seconds.size());
  check(codec_calls > 0, tag + ": TimingCompressor saw compress calls");
  double written = 0.0;
  for (const char* n : {"store.write", "store.write_pending",
                        "store.sink_append"})
    written += log.totals(n).bytes;
  double stored = 0.0;
  for (int v = 0; v < 3; ++v)
    stored += static_cast<double>(timed.store().read(v).size());
  // Delta blobs are assembled in memory, others may be streamed; either
  // way every stored byte crossed the decorator exactly once.
  check(written == stored, tag + ": TimedStore counted every stored byte");
  check(!log.totals("store.commit").seconds.empty() ||
            !log.totals("store.write").seconds.empty(),
        tag + ": TimedStore saw the commit");
  const double read_bytes = log.totals("store.read").bytes +
                            log.totals("store.source_read").bytes;
  check(read_bytes > 0.0, tag + ": TimedStore counted recovery reads");
  fs::remove_all(kTmp);
}

void check_span_tree() {
  SpanLog log;
  {
    Span outer(&log, "outer");
    { Span inner(&log, "inner"); }
  }
  const auto events = log.recorder().events();
  bool linked = events.size() == 2;
  if (linked) {
    // Inner closes first; its parent argument is the outer span's id.
    std::string inner_parent;
    std::string outer_id;
    for (const auto& a : events[0].args)
      if (a.key == "parent") inner_parent = a.value;
    for (const auto& a : events[1].args)
      if (a.key == "id") outer_id = a.value;
    linked = events[0].name == "inner" && inner_parent == outer_id;
  }
  check(linked, "nested spans link child to parent");
  LayerTotals t;
  t.seconds = {3.0, 1.0, 2.0, 10.0};
  check(median(t.seconds) == 2.5 && median({4.0, 1.0, 9.0}) == 4.0 &&
            t.total_seconds() == 16.0,
        "median and LayerTotals total");
}

void check_traced_run_matches(const JobSpec& spec, const std::string& tag) {
  Workload w;
  w.name = tag;
  w.jobs = {spec};
  std::vector<Prepared> preps;
  preps.push_back(prepare(spec));
  SpanLog log;
  fs::remove_all(kTmp);
  const WorkloadRun plain = run_workload(w, preps, 7, kTmp + "/a", nullptr);
  const WorkloadRun traced = run_workload(w, preps, 7, kTmp + "/b", &log);
  const Outcome& a = plain.jobs.front().outcome;
  const Outcome& b = traced.jobs.front().outcome;
  check(plain.jobs.front().verified && traced.jobs.front().verified,
        tag + ": both runs converge and verify from outside");
  check(a == b, tag + ": traced outcome equals the untraced outcome");
  check(a.failures > 0 && a.recoveries > 0,
        tag + ": the run exercised failures and recoveries");
  check(!log.totals("store.open_read").seconds.empty(),
        tag + ": the traced run's recoveries went through the TimedStore");
  fs::remove_all(kTmp);
}

}  // namespace

int main() {
  check_span_tree();
  const std::vector<Path> paths = {
      {"sync-streamed", false, true, 0, true},
      {"sync-legacy", false, false, 0, true},
      {"staged-streamed", true, true, 0, true},
      {"staged-legacy", true, false, 0, true},
      {"staged-delta", true, true, 2, true},
      {"sync-delta-memory", false, true, 2, false},
      {"staged-streamed-memory", true, true, 0, false},
  };
  for (const Path& path : paths)
    for (const char* codec : {"sz", "deflate"})
      guarded(path.name + "/" + codec,
              [&] { check_identical_blobs(path, codec); });
  guarded("lossy-sync", [] {
    check_traced_run_matches(
        {"cg", 16, 1e-8, lck::CkptScheme::kLossy, lck::CkptMode::kSync},
        "lossy-sync");
  });
  guarded("lossless-async", [] {
    check_traced_run_matches(
        {"cg", 16, 1e-8, lck::CkptScheme::kLossless, lck::CkptMode::kAsync},
        "lossless-async");
  });
  std::printf("%s: %d failed checks\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
