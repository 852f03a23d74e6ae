// Shared plumbing of the end-to-end benchmark: clocks and process counters,
// percentile statistics, the in-memory span recorder of the traced run, and
// the result record every workload fills.
//
// The benchmark times calls into the program's public functions from its own
// files; nothing here reaches inside a layer. A workload runs in one process
// and reports two kinds of numbers:
//   - end-to-end metrics (latency percentiles, throughput, CPU per op, set-up
//     time, peak RSS), measured with tracing off;
//   - per-layer metrics (span times around layer calls, program counters),
//     measured in a separate traced run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace emibench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// User + system CPU of the whole process (every thread), in milliseconds.
double process_cpu_ms();
// Peak resident set size of this process image, in MiB.
double peak_rss_mb();

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 when
// the sample is empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

// splitmix64: the benchmark's only random source, seeded from --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double uniform(double lo, double hi);  // [lo, hi)
  std::size_t below(std::size_t n);      // [0, n)

 private:
  std::uint64_t s_;
};

// Spans kept in memory and written at exit as Chrome trace-event JSON.
// Thread-safe: the daemon probe records from several client threads.
class Tracer {
 public:
  static constexpr std::int64_t kNoParent = -1;

  struct Span {
    std::string name;
    double start_us = 0.0;  // since the tracer's epoch
    double end_us = 0.0;
    std::int64_t parent = kNoParent;
    std::uint64_t op = 0;
    std::uint32_t tid = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  // Record a finished span; returns its id (kNoParent when disabled).
  std::int64_t record(std::string name, Clock::time_point start, Clock::time_point end,
                      std::int64_t parent, std::uint64_t op, std::uint32_t tid = 0);
  // Open a span whose end (and so id) is known only later; close() fills it.
  std::int64_t open(std::string name, Clock::time_point start, std::int64_t parent,
                    std::uint64_t op, std::uint32_t tid = 0);
  void close(std::int64_t id, Clock::time_point end);

  struct NameSummary {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  // duration minus the part its children cover
  };
  // Per span name, over every recorded span.
  std::map<std::string, NameSummary> summarize() const;
  // {"traceEvents": [...]} with complete ("X") events; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  double us_since_epoch(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// RAII span around one call; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, std::int64_t parent, std::uint64_t op,
             std::uint32_t tid = 0)
      : t_(t), id_(t.enabled() ? t.open(std::move(name), Clock::now(), parent, op, tid)
                               : Tracer::kNoParent) {}
  ~ScopedSpan() {
    if (id_ != Tracer::kNoParent) t_.close(id_, Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int64_t id_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace path; empty = do not write
  std::size_t nproc = 1;  // CPUs this process may use
  // Pool lanes of grid-edit's loop and of design-flow's lane-scaling check:
  // half the CPUs. With every CPU busy, a CPU taken by another
  // tenant of a shared host stalls each parallel region until it returns,
  // which swung whole runs by a third.
  std::size_t lanes = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload hands back to main: the correctness verdict, the op
// counts, the end-to-end metrics of its timed loop, the per-layer metrics
// (traced run only) and a few descriptive fields (lanes, executors,
// clients) for the result set's provenance.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> check_errors;  // first few, for stderr

  void note_failure(std::string why);
};

// One timed op: its latency, and where it ended on the loop's wall and CPU
// clocks (both measured from the start of the timed loop).
struct OpSample {
  double end_ms = 0.0;
  double end_cpu_ms = 0.0;
  double latency_ms = 0.0;
};

// Ops per window of the end-to-end statistics: enough that ten samples lie
// beyond each window's 90th percentile.
inline constexpr std::size_t kWindowOps = 100;

// The end-to-end metric set shared by every workload. Latency percentiles,
// throughput and CPU per op are each the median over consecutive windows of
// kWindowOps ops (in completion order), so a burst of interference from
// outside the process that hits a minority of windows does not move them,
// while a change that slows every window does. The failed ratio is the
// record's failed / attempted.
struct EndToEnd {
  std::vector<double> setup_s;  // one entry per set-up repetition
  std::vector<OpSample> ops;    // ascending end_ms

  // Single caller: the loop's clocks advance only while an op runs, so the
  // checks between ops stay off the clock.
  void add_serial_op(double latency_ms, double cpu_ms);
  double wall_ms() const { return ops.empty() ? 0.0 : ops.back().end_ms; }
  double cpu_ms() const { return ops.empty() ? 0.0 : ops.back().end_cpu_ms; }
};
void add_end_to_end(Result& r, const EndToEnd& e);

// Per-layer metrics of the traced run, in report order. Every traced run
// reports all of them; a workload sets the values of the layers it reaches
// and the rest read 0. Each metric here is nonzero on correct code in the
// traced run of at least one workload: a counter that only a fault or a
// failed check moves (shed or failed jobs, serial fallbacks) is a check,
// not a metric.
struct LayerMetric {
  const char* name;
  const char* unit;
};
extern const std::vector<LayerMetric> kLayerMetrics;
using LayerValues = std::map<std::string, double>;
// Adds every kLayerMetrics entry to r; throws on a name not in the list.
void add_layer_metrics(Result& r, const LayerValues& values);

// The end of a timed loop that starts now and runs for `seconds`.
inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

// Set-up is repeated at least kSetupMinReps times and for at least
// kSetupMinSeconds; setup_s is the median repetition. A short set-up
// (design-flow's is about 50 ms) timed over half a second took its speed
// from whatever the shared host was doing in that half second, and read
// one of two values 25% apart from run to run.
inline constexpr int kSetupMinReps = 5;
inline constexpr double kSetupMinSeconds = 2.0;

// Run `fn` as set-up (see kSetupMinReps); returns each repetition's wall
// seconds.
template <typename Fn>
std::vector<double> time_setup(Fn&& fn) {
  std::vector<double> out;
  double total_s = 0.0;
  while (out.size() < static_cast<std::size_t>(kSetupMinReps) || total_s < kSetupMinSeconds) {
    const Clock::time_point t0 = Clock::now();
    fn();
    out.push_back(ms_between(t0, Clock::now()) / 1e3);
    total_s += out.back();
  }
  return out;
}

// Each workload: set up (time_setup), run the timed loop for
// opt.seconds, check every output off the clock, fill the metrics of the
// requested mode. Spans go to `tracer` (enabled only in the traced run).
Result run_design_flow(const Options& opt, Tracer& tracer);
Result run_grid_edit(const Options& opt, Tracer& tracer);

// The svc and io layers (daemon_probe.cpp): a few seconds of jobs through a
// daemon on its real socket, run after the traced design-flow loop. Fills
// the svc.*, io.* and peec.global_hit_ratio entries of `lv`; its jobs count
// in r.attempted and failed checks in r.failed.
void probe_daemon_layers(const Options& opt, Tracer& tracer, Result& r, LayerValues& lv);

}  // namespace emibench
