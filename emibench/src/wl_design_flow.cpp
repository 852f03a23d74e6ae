// Workload `design-flow`: the paper's flow in process, closed loop, one
// caller, one pool lane in the timed loop.
//
// Each op is one flow::run_design_flow with exactly the options that
// `emiplace flow --points 60 --adaptive` builds, on a fresh copy of the buck
// or boost converter (seeded order, equal counts), so every op extracts
// with a cold private cache as a CLI run does. Outputs are checked against
// 1-lane reference fingerprints computed during set-up; the traced run also
// checks its Options::lanes flows against them, which the determinism
// contract makes exact at any lane count.
//
// Why one lane: a flow op is a chain of short fork-join regions, and on a
// shared host a parallel region waits for whichever of its CPUs another
// tenant has taken. At two lanes the op's wall time rose by up to half
// between sets of runs while its CPU time held within 1%; at one lane wall
// time tracks CPU time. The traced run still reports the flow's lane
// scaling (`core.parallel_speedup`, 1 lane against Options::lanes).
//
// The traced run steps flow::FlowEngine itself, one span per unit, so the
// step spans plus `flow.unaccounted_ms` add up to the op's wall time, and
// compares each span with the program's own `flow.<stage>_s` timers.
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "src/core/thread_pool.hpp"
#include "src/flow/buck_converter.hpp"
#include "src/flow/checkpoint.hpp"
#include "src/flow/design_flow.hpp"
#include "src/flow/flow_units.hpp"
#include "src/peec/partial_inductance.hpp"

namespace emibench {
namespace {

using namespace emi;

struct Converter {
  flow::BuckConverter bc;
  place::Layout initial;
  std::uint64_t reference = 0;  // 1-lane result fingerprint
};

std::array<Converter, 2> make_converters() {
  std::array<Converter, 2> c;
  c[0].bc = flow::make_buck_converter();
  c[0].initial = flow::layout_unfavorable(c[0].bc);
  c[1].bc = flow::make_boost_converter();
  c[1].initial = flow::boost_layout_unfavorable(c[1].bc);
  return c;
}

const char* kTopology[2] = {"buck", "boost"};

// What `emiplace flow --points 60 --adaptive` runs.
flow::FlowOptions cli_adaptive_options() {
  flow::FlowOptions fopt;
  fopt.sweep.n_points = 60;
  fopt.sweep_accel.adaptive = true;
  fopt.sweep_accel.surrogate = true;
  return fopt;
}

flow::FlowResult run_once(const Converter& c, const flow::FlowOptions& fopt) {
  flow::BuckConverter bc = c.bc;  // the flow installs derived rules into bc.board
  return flow::run_design_flow(bc, c.initial, fopt);
}

// Per-op counters of the traced run, summed over ops.
struct LayerTotals {
  std::array<double, flow::kFlowStageCount> step_ms{};
  double unaccounted_ms = 0.0;
  double profile_gap_ms = 0.0;
  double rule_ms = 0.0;
  std::uint64_t rule_exact_pairs = 0;
  std::uint64_t rule_sample_evals = 0;
  std::uint64_t mutual_hits = 0;
  std::uint64_t mutual_misses = 0;
  std::uint64_t full_solves = 0;
  std::uint64_t interp_points = 0;
  std::uint64_t pairs_simulated = 0;
  std::uint64_t candidates = 0;
};

// One op with the engine stepped here: a span per unit under the op span.
flow::FlowResult run_traced(const Converter& c, const char* topology,
                            const flow::FlowOptions& fopt, Tracer& tracer, std::uint64_t op,
                            LayerTotals& t) {
  flow::BuckConverter bc = c.bc;
  const Clock::time_point t0 = Clock::now();
  const std::int64_t op_span =
      tracer.open(std::string("op.") + topology, t0, Tracer::kNoParent, op);
  flow::FlowEngine engine(bc, c.initial, fopt);
  double steps_ms = 0.0;
  std::array<double, flow::kFlowStageCount> span_ms{};
  while (const std::optional<flow::FlowStage> unit = engine.next_unit()) {
    const std::size_t idx = static_cast<std::size_t>(*unit);
    const peec::KernelStats k0 = peec::kernel_stats();
    const Clock::time_point s0 = Clock::now();
    engine.step();
    const Clock::time_point s1 = Clock::now();
    const peec::KernelStats k1 = peec::kernel_stats();
    tracer.record(std::string("flow.") + flow::flow_stage_name(*unit), s0, s1, op_span,
                  op);
    span_ms[idx] += ms_between(s0, s1);
    steps_ms += ms_between(s0, s1);
    if (*unit == flow::FlowStage::kRuleDerivation) {
      t.rule_ms += ms_between(s0, s1);
      t.rule_exact_pairs += k1.exact_pairs - k0.exact_pairs;
      t.rule_sample_evals += k1.sample_evals - k0.sample_evals;
    }
  }
  flow::FlowResult res = engine.finish();
  const Clock::time_point t1 = Clock::now();
  tracer.close(op_span, t1);
  t.unaccounted_ms += ms_between(t0, t1) - steps_ms;
  for (std::size_t i = 0; i < flow::kFlowStageCount; ++i) {
    const std::string timer =
        std::string("flow.") + flow::flow_stage_name(static_cast<flow::FlowStage>(i)) + "_s";
    t.step_ms[i] += span_ms[i];
    t.profile_gap_ms += span_ms[i] - res.profile.seconds(timer) * 1e3;
  }
  return res;
}

}  // namespace

Result run_design_flow(const Options& opt, Tracer& tracer) {
  Result r;
  EndToEnd e;
  const flow::FlowOptions fopt = cli_adaptive_options();

  // Set-up: build both converters and compute their references, which
  // also warms both topologies.
  std::array<Converter, 2> conv;
  core::ThreadPool::set_global_thread_count(1);
  e.setup_s = time_setup([&] {
    conv = make_converters();
    for (Converter& c : conv) c.reference = flow::result_fingerprint(run_once(c, fopt));
  });

  // Seeded order with equal counts: each block of two ops runs buck and
  // boost once, in a seeded order.
  Rng rng(opt.seed);
  LayerTotals lt;
  const peec::KernelStats kern0 = peec::kernel_stats();
  const core::PoolStats pool0 = core::ThreadPool::global().stats();
  const Clock::time_point deadline = deadline_after(opt.seconds);
  std::size_t first = 0;
  for (std::uint64_t op = 0; Clock::now() < deadline; ++op) {
    if (op % 2 == 0) first = rng.below(2);
    const std::size_t which = op % 2 == 0 ? first : 1 - first;
    const Converter& c = conv[which];
    ++r.attempted;
    const double cpu0 = process_cpu_ms();
    const Clock::time_point t0 = Clock::now();
    flow::FlowResult res = tracer.enabled()
                               ? run_traced(c, kTopology[which], fopt, tracer, op, lt)
                               : run_once(c, fopt);
    const Clock::time_point t1 = Clock::now();
    const double cpu1 = process_cpu_ms();
    e.add_serial_op(ms_between(t0, t1), cpu1 - cpu0);

    // Off the op's clock: output check and counters.
    const std::uint64_t fp = flow::result_fingerprint(res);
    if (!res.complete || fp != c.reference) {
      char why[160];
      std::snprintf(why, sizeof why,
                    "design-flow op %llu (%s): complete=%d fp=%016llx ref=%016llx",
                    static_cast<unsigned long long>(op), kTopology[which],
                    res.complete ? 1 : 0, static_cast<unsigned long long>(fp),
                    static_cast<unsigned long long>(c.reference));
      r.note_failure(why);
    }
    lt.mutual_hits += res.profile.count("peec.mutual_cache_hits");
    lt.mutual_misses += res.profile.count("peec.mutual_cache_misses");
    lt.full_solves += res.profile.count("sweep.full_solves");
    lt.interp_points += res.profile.count("sweep.interp_points");
    lt.pairs_simulated += res.simulated_pairs.size();
    lt.candidates += res.place_stats.candidates_evaluated;
  }
  const peec::KernelStats kern1 = peec::kernel_stats();
  const core::PoolStats pool1 = core::ThreadPool::global().stats();

  r.info.emplace_back("lanes", "1");
  r.info.emplace_back("clients", "1");
  r.info.emplace_back("executors", "0");
  add_end_to_end(r, e);
  if (!tracer.enabled()) return r;

  // 1-lane versus opt.lanes flows on the same op sequence, off the clock;
  // every result must match the 1-lane reference.
  const auto timed_flows = [&](std::size_t lanes) {
    core::ThreadPool::set_global_thread_count(lanes);
    double ms = 0.0;
    for (std::size_t i = 0; i < 8; ++i) {
      const Converter& c = conv[i % 2];
      ++r.attempted;
      const Clock::time_point t0 = Clock::now();
      const flow::FlowResult res = run_once(c, fopt);
      ms += ms_between(t0, Clock::now());
      if (!res.complete || flow::result_fingerprint(res) != c.reference) {
        r.note_failure(std::string("design-flow at ") + std::to_string(lanes) + " lanes (" +
                       kTopology[i % 2] + ") differs from the 1-lane reference");
      }
    }
    return ms;
  };
  const double serial_ms = timed_flows(1);
  const double parallel_ms = timed_flows(opt.lanes);

  const double ops = static_cast<double>(e.ops.size());
  const auto per_op = [&](double v) { return ops > 0.0 ? v / ops : 0.0; };
  const auto per_op_u = [&](std::uint64_t v) { return per_op(static_cast<double>(v)); };
  LayerValues lv;
  for (std::size_t i = 0; i < flow::kFlowStageCount; ++i) {
    lv[std::string("flow.") + flow::flow_stage_name(static_cast<flow::FlowStage>(i)) +
       "_ms"] = per_op(lt.step_ms[i]);
  }
  lv["flow.unaccounted_ms"] = per_op(lt.unaccounted_ms);
  lv["flow.profile_gap_ms"] = per_op(lt.profile_gap_ms);
  lv["peec.exact_pairs"] = per_op_u(kern1.exact_pairs - kern0.exact_pairs);
  lv["peec.sample_evals"] = per_op_u(kern1.sample_evals - kern0.sample_evals);
  lv["peec.rule_derivation.exact_pairs"] = per_op_u(lt.rule_exact_pairs);
  const std::uint64_t probes = lt.mutual_hits + lt.mutual_misses;
  lv["peec.mutual_hit_ratio"] =
      probes > 0 ? static_cast<double>(lt.mutual_hits) / static_cast<double>(probes) : 0.0;
  // Rule derivation is extraction-bound (bisection over exact pair
  // integrals), so its span per kernel sample is the per-sample cost.
  lv["peec.ns_per_sample_eval"] =
      lt.rule_sample_evals > 0 ? lt.rule_ms * 1e6 / static_cast<double>(lt.rule_sample_evals)
                               : 0.0;
  lv["sweep.full_solves"] = per_op_u(lt.full_solves);
  lv["sweep.interp_points"] = per_op_u(lt.interp_points);
  lv["flow.pairs_simulated"] = per_op_u(lt.pairs_simulated);
  lv["place.candidates_evaluated"] = per_op_u(lt.candidates);
  lv["pool.chunks"] = per_op_u(pool1.chunks - pool0.chunks);
  lv["pool.steals"] = per_op_u(pool1.steals - pool0.steals);
  lv["core.cpu_utilization"] =
      e.cpu_ms() / e.wall_ms();  // one lane
  lv["core.parallel_speedup"] = serial_ms / parallel_ms;
  probe_daemon_layers(opt, tracer, r, lv);
  add_layer_metrics(r, lv);
  return r;
}

}  // namespace emibench
