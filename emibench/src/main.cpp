// emibench: one process, one workload, one result record.
//
//   emibench --workload design-flow|grid-edit --seed N
//            --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints human-readable progress on stderr and, as the last line of stdout,
// one JSON record: correct/attempted/failed, the metrics of the requested
// mode (end-to-end with --trace 0, per-layer with --trace 1), the end-to-end
// metrics of the timed loop in either mode (traced minus untraced gives the
// tracing overhead), descriptive info (lanes, executors, clients, build) and,
// with --trace 1, the per-span self-time summary. run.py wraps this binary;
// see emibench/README.md.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

using emibench::Options;
using emibench::Result;
using emibench::Tracer;

std::size_t cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<emibench::Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: emibench --workload design-flow|grid-edit "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return usage();
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(opt.seconds > 0.0)) return usage();
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage();
      opt.trace = v == "1";
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else {
      return usage();
    }
  }
  opt.nproc = cpus_available();
  opt.lanes = std::max<std::size_t>(1, opt.nproc / 2);

  Tracer tracer(opt.trace);
  Result r;
  try {
    if (opt.workload == "design-flow") {
      r = emibench::run_design_flow(opt, tracer);
    } else if (opt.workload == "grid-edit") {
      r = emibench::run_grid_edit(opt, tracer);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emibench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& e : r.check_errors) {
    std::fprintf(stderr, "emibench: check failed: %s\n", e.c_str());
  }
  if (opt.trace && !opt.trace_out.empty() && !tracer.write_chrome_json(opt.trace_out)) {
    std::fprintf(stderr, "emibench: cannot write trace %s\n", opt.trace_out.c_str());
    return 1;
  }

  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": " + json_metrics(opt.trace ? r.layers : r.end_to_end);
  line += ", \"end_to_end\": " + json_metrics(r.end_to_end);
  line += ", \"info\": {";
  r.info.emplace_back("nproc", std::to_string(opt.nproc));
  r.info.emplace_back("seed", std::to_string(opt.seed));
  r.info.emplace_back("compiler", EMIBENCH_COMPILER);
  r.info.emplace_back("build_type", EMIBENCH_BUILD_TYPE);
  r.info.emplace_back("cxx_flags", EMIBENCH_CXX_FLAGS);
  r.info.emplace_back("sanitizer", sanitized_build() ? "on" : "off");
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + json_escape(r.info[i].first) + "\": \"" +
            json_escape(r.info[i].second) + "\"";
  }
  line += "}";
  if (opt.trace) {
    line += ", \"spans\": {";
    bool first = true;
    for (const auto& [name, s] : tracer.summarize()) {
      if (!first) line += ", ";
      first = false;
      line += "\"" + json_escape(name) + "\": {\"count\": " + std::to_string(s.count) +
              ", \"total_ms\": " + json_number(s.total_ms) +
              ", \"self_ms\": " + json_number(s.self_ms) + "}";
    }
    line += "}";
  }
  line += "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}
