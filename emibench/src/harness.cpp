#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace emibench {

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM is the high-water RSS of this process image. ru_maxrss would also
  // carry the RSS of the parent that forked us (Linux folds the pre-exec
  // image into it), so it is only the fallback.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(next() >> 11) * 0x1.0p-53);
}

std::size_t Rng::below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

double Tracer::us_since_epoch(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

std::int64_t Tracer::record(std::string name, Clock::time_point start,
                            Clock::time_point end, std::int64_t parent, std::uint64_t op,
                            std::uint32_t tid) {
  if (!enabled_) return kNoParent;
  Span s{std::move(name), us_since_epoch(start), us_since_epoch(end), parent, op, tid};
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::int64_t Tracer::open(std::string name, Clock::time_point start,
                          std::int64_t parent, std::uint64_t op, std::uint32_t tid) {
  return record(std::move(name), start, start, parent, op, tid);
}

void Tracer::close(std::int64_t id, Clock::time_point end) {
  if (!enabled_ || id < 0) return;
  const double e = us_since_epoch(end);
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_us = e;
}

std::map<std::string, Tracer::NameSummary> Tracer::summarize() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Children of each span, to subtract the union of their intervals.
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t p = spans_[i].parent;
    if (p >= 0) children[static_cast<std::size_t>(p)].push_back(i);
  }
  std::map<std::string, NameSummary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>> iv;
    for (std::size_t c : children[i]) {
      iv.emplace_back(std::max(spans_[c].start_us, s.start_us),
                      std::min(spans_[c].end_us, s.end_us));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    NameSummary& n = out[s.name];
    const double dur = s.end_us - s.start_us;
    n.count += 1;
    n.total_ms += dur / 1e3;
    n.self_ms += (dur - covered) / 1e3;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %lld, \"op\": %llu}}%s\n",
                  s.name.c_str(), s.tid, s.start_us, s.end_us - s.start_us, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.op),
                  i + 1 < spans_.size() ? "," : "");
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

void Result::note_failure(std::string why) {
  correct = false;
  ++failed;
  if (check_errors.size() < 8) check_errors.push_back(std::move(why));
}

void EndToEnd::add_serial_op(double latency_ms, double cpu_ms) {
  ops.push_back({wall_ms() + latency_ms, this->cpu_ms() + cpu_ms, latency_ms});
}

void add_end_to_end(Result& r, const EndToEnd& e) {
  std::vector<double> p50, p90, throughput, cpu_per_op;
  const std::size_t n = e.ops.size();
  const std::size_t window = std::min(kWindowOps, n);
  double prev_ms = 0.0;
  double prev_cpu = 0.0;
  for (std::size_t lo = 0; window > 0 && lo + window <= n; lo += window) {
    std::vector<double> lat;
    for (std::size_t i = lo; i < lo + window; ++i) lat.push_back(e.ops[i].latency_ms);
    const OpSample& last = e.ops[lo + window - 1];
    const double w = static_cast<double>(window);
    p50.push_back(quantile(lat, 0.50));
    p90.push_back(quantile(lat, 0.90));
    throughput.push_back(w / ((last.end_ms - prev_ms) / 1e3));
    cpu_per_op.push_back((last.end_cpu_ms - prev_cpu) / w);
    prev_ms = last.end_ms;
    prev_cpu = last.end_cpu_ms;
  }
  r.end_to_end = {
      {"setup_s", median(e.setup_s), "s"},
      {"latency_p50_ms", median(p50), "ms"},
      {"latency_p90_ms", median(p90), "ms"},
      {"throughput_ops_s", median(throughput), "1/s"},
      {"cpu_ms_per_op", median(cpu_per_op), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

const std::vector<LayerMetric> kLayerMetrics = {
    // flow: one span per FlowEngine unit (design-flow)
    {"flow.sensitivity_ms", "ms"},
    {"flow.initial_prediction_ms", "ms"},
    {"flow.rule_derivation_ms", "ms"},
    {"flow.placement_ms", "ms"},
    {"flow.verification_ms", "ms"},
    {"flow.unaccounted_ms", "ms"},
    {"flow.profile_gap_ms", "ms"},
    // peec: kernel counters per op, cache ratios, extraction spans
    {"peec.exact_pairs", "count"},
    {"peec.sample_evals", "count"},
    {"peec.rule_derivation.exact_pairs", "count"},
    {"peec.mutual_hit_ratio", "ratio"},
    {"peec.row_extract_ms", "ms"},
    {"peec.ns_per_sample_eval", "ns"},
    {"peec.global_hit_ratio", "ratio"},
    // sweep / ckt / emi, through the flow's counters (per op)
    {"sweep.full_solves", "count"},
    {"sweep.interp_points", "count"},
    {"flow.pairs_simulated", "count"},
    // place
    {"place.candidates_evaluated", "count"},
    {"place.edit_drc_ms", "ms"},
    // core: pool counters per op, CPU use, lane scaling
    {"pool.chunks", "count"},
    {"pool.steals", "count"},
    {"core.cpu_utilization", "ratio"},
    {"core.parallel_speedup", "ratio"},
    // svc / io
    {"svc.submit_rtt_ms", "ms"},
    {"svc.result_wait_ms", "ms"},
    {"io.ping_rtt_us", "us"},
    {"io.checkpoint_save_ms", "ms"},
    {"io.checkpoint_load_ms", "ms"},
    {"io.checkpoint_bytes", "bytes"},
};

void add_layer_metrics(Result& r, const LayerValues& values) {
  for (const auto& [name, v] : values) {
    bool known = false;
    for (const LayerMetric& m : kLayerMetrics) known = known || name == m.name;
    if (!known) throw std::logic_error("unknown layer metric " + name);
  }
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = values.find(m.name);
    r.layers.push_back({m.name, it != values.end() ? it->second : 0.0, m.unit});
  }
}

}  // namespace emibench
