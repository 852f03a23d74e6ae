// Workload `grid-edit`: the paper's interactive mode on a large layout,
// closed loop, one caller, pool lanes = nproc / 2 (see Options::lanes).
//
// The input is flow::make_large_scenario at 32 stages (64 components, 2048
// segments). Set-up extracts the full mutual matrix once into the session's
// ExtractionCache. Each op is one seeded edit - a place::InteractiveSession
// move that nudges a component within the scenario's jitter margin (about
// 70%) or an undo of the previous move (about 30%) - with its online DRC
// feedback, followed by re-extraction of the edited component's row with
// CouplingExtractor::mutual_batch against the session cache. Moves write new
// cache entries; undo reads them back.
//
// Checks, off the clock: sampled rows are bitwise equal to a fresh,
// cacheless, 1-lane extractor's mutual(), and the edit feedback equals
// full_check() restricted to the edited component.
#include <malloc.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "src/core/thread_pool.hpp"
#include "src/flow/scenario_large.hpp"
#include "src/peec/coupling.hpp"
#include "src/peec/extraction_cache.hpp"
#include "src/peec/partial_inductance.hpp"
#include "src/place/drc.hpp"
#include "src/place/interactive.hpp"

namespace emibench {
namespace {

using namespace emi;

constexpr std::size_t kStages = 32;
constexpr std::size_t kSampleEvery = 16;  // ops between row checks
constexpr std::size_t kMaxSamples = 24;
// Undo follows a move with this probability, so undos are 30% of all edits:
// p / (1 + p) = 0.3.
constexpr double kUndoAfterMove = 3.0 / 7.0;

struct Grid {
  flow::LargeScenario scenario;
  std::vector<geom::Vec2> home;  // generated positions, the nudge centres
  std::unique_ptr<peec::CouplingExtractor> extractor;
  std::unique_ptr<place::InteractiveSession> session;
};

void build_grid(Grid& g, std::uint64_t seed) {
  flow::LargeScenarioOptions so;
  so.n_stages = kStages;
  so.seed = seed;
  g = Grid{};  // the previous repetition's grid is gone before this one is built
  g.scenario = flow::make_large_scenario(so);
  g.home.clear();
  for (const place::Placement& p : g.scenario.layout.placements) g.home.push_back(p.position);
  g.extractor = std::make_unique<peec::CouplingExtractor>(
      peec::QuadratureOptions{}, peec::KernelOptions{},
      std::make_shared<peec::ExtractionCache>());
  (void)g.extractor->mutual_matrix(g.scenario.placed);
  g.session = std::make_unique<place::InteractiveSession>(g.scenario.board,
                                                          g.scenario.layout);
}

// Keep the field model's pose in step with the session's layout.
void sync_pose(Grid& g, std::size_t idx) {
  const place::Placement& p = g.session->layout().placements[idx];
  g.scenario.placed[idx].pose = peec::Pose{{p.position.x, p.position.y, 0.0}, p.rot_deg};
}

bool same_violations(const std::vector<place::Violation>& a,
                     const std::vector<place::Violation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].a != b[i].a || a[i].b != b[i].b ||
        a[i].actual != b[i].actual || a[i].required != b[i].required) {
      return false;
    }
  }
  return true;
}

struct RowSample {
  std::uint64_t op = 0;
  std::size_t comp = 0;
  std::vector<peec::PlacedModel> placed;  // poses at the time of the op
  std::vector<double> row;                // mutual_batch values, henry
};

}  // namespace

Result run_grid_edit(const Options& opt, Tracer& tracer) {
  Result r;
  EndToEnd e;
  core::ThreadPool::set_global_thread_count(opt.lanes);

  Grid g;
  e.setup_s = time_setup([&] { build_grid(g, opt.seed); });
  // Hand the pages that set-up freed back to the kernel. Otherwise whether
  // the loop's cache growth reused them depended on the heap's layout after
  // set-up, and peak RSS took one of two values 5 MB apart from run to run.
  malloc_trim(0);
  const double jitter = flow::LargeScenarioOptions{}.jitter.raw();
  const std::size_t n = g.scenario.placed.size();
  const place::DrcEngine drc(g.scenario.board);

  Rng rng(opt.seed);
  std::vector<RowSample> samples;
  std::size_t moves = 0;
  std::size_t undos = 0;
  double edit_ms = 0.0;
  double row_ms = 0.0;
  std::uint64_t row_evals = 0;
  const peec::KernelStats kern0 = peec::kernel_stats();
  const core::PoolStats pool0 = core::ThreadPool::global().stats();
  const peec::ExtractionCacheStats cache0 = g.extractor->cache_stats();
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::size_t last_moved = 0;
  bool can_undo = false;
  const Clock::time_point deadline = deadline_after(opt.seconds);
  for (std::uint64_t op = 0; Clock::now() < deadline; ++op) {
    const bool undo = can_undo && rng.uniform(0.0, 1.0) < kUndoAfterMove;
    const std::size_t comp = undo ? last_moved : rng.below(n);
    const geom::Vec2 target{g.home[comp].x + rng.uniform(-jitter, jitter),
                            g.home[comp].y + rng.uniform(-jitter, jitter)};
    const std::string& name = g.scenario.board.components()[comp].name;
    pairs.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (j != comp) pairs.emplace_back(comp, j);
    }
    ++r.attempted;

    const double cpu0 = process_cpu_ms();
    const Clock::time_point t0 = Clock::now();
    const std::int64_t op_span =
        tracer.open(undo ? "op.undo" : "op.move", t0, Tracer::kNoParent, op);
    place::EditFeedback fb;
    {
      ScopedSpan s(tracer, "place.edit_drc", op_span, op);
      if (undo) {
        g.session->undo();
        fb.violations = drc.check_component(g.session->layout(), comp);
      } else {
        fb = g.session->move(name, target);
      }
    }
    const Clock::time_point t1 = Clock::now();
    sync_pose(g, comp);
    const peec::KernelStats k0 = peec::kernel_stats();
    std::vector<units::Henry> row;
    {
      ScopedSpan s(tracer, "peec.row_extract", op_span, op);
      row = g.extractor->mutual_batch(g.scenario.placed, pairs);
    }
    const Clock::time_point t2 = Clock::now();
    tracer.close(op_span, t2);
    const double cpu1 = process_cpu_ms();
    row_evals += peec::kernel_stats().sample_evals - k0.sample_evals;
    e.add_serial_op(ms_between(t0, t2), cpu1 - cpu0);
    edit_ms += ms_between(t0, t1);
    row_ms += ms_between(t1, t2);
    (undo ? undos : moves) += 1;
    can_undo = !undo;
    last_moved = comp;

    // Off the op's clock: the feedback check, and a row kept for the
    // cacheless comparison after the loop.
    std::vector<place::Violation> expect;
    for (const place::Violation& v : drc.check(g.session->layout()).violations) {
      if (v.a == name || v.b == name) expect.push_back(v);
    }
    if (!same_violations(fb.violations, expect)) {
      r.note_failure("grid-edit op " + std::to_string(op) + ": feedback for " + name + " has " +
                     std::to_string(fb.violations.size()) + " violations, full check " +
                     std::to_string(expect.size()));
    }
    if (op % kSampleEvery == 0 && samples.size() < kMaxSamples) {
      RowSample smp{op, comp, g.scenario.placed, {}};
      for (const units::Henry& h : row) smp.row.push_back(h.raw());
      samples.push_back(std::move(smp));
    }
  }
  const peec::KernelStats kern1 = peec::kernel_stats();
  const core::PoolStats pool1 = core::ThreadPool::global().stats();
  const peec::ExtractionCacheStats cache1 = g.extractor->cache_stats();

  // Sampled rows against a fresh, cacheless, 1-lane extractor.
  core::ThreadPool::set_global_thread_count(1);
  for (const RowSample& smp : samples) {
    const peec::CouplingExtractor fresh;
    std::size_t k = 0;
    for (std::size_t j = 0; j < smp.placed.size(); ++j) {
      if (j == smp.comp) continue;
      const double want = fresh.mutual(smp.placed[smp.comp], smp.placed[j]).raw();
      if (std::memcmp(&want, &smp.row[k], sizeof want) != 0) {
        char why[160];
        std::snprintf(why, sizeof why, "grid-edit op %llu: row %zu col %zu: %.17g != %.17g",
                      static_cast<unsigned long long>(smp.op), smp.comp, j, smp.row[k], want);
        r.note_failure(why);
        break;
      }
      ++k;
    }
  }

  r.info.emplace_back("lanes", std::to_string(opt.lanes));
  r.info.emplace_back("clients", "1");
  r.info.emplace_back("executors", "0");
  r.info.emplace_back("moves", std::to_string(moves));
  r.info.emplace_back("undos", std::to_string(undos));
  r.info.emplace_back("rows_checked", std::to_string(samples.size()));
  add_end_to_end(r, e);
  if (!tracer.enabled()) return r;

  // Row extraction at 1 lane versus the workload's lanes, cacheless, same rows.
  const auto time_rows = [&](std::size_t lanes) {
    core::ThreadPool::set_global_thread_count(lanes);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t s = 0; s < samples.size() && s < 6; ++s) {
      const peec::CouplingExtractor fresh;
      pairs.clear();
      for (std::size_t j = 0; j < n; ++j) {
        if (j != samples[s].comp) pairs.emplace_back(samples[s].comp, j);
      }
      (void)fresh.mutual_batch(samples[s].placed, pairs);
    }
    return ms_between(t0, Clock::now());
  };
  const double serial_ms = time_rows(1);
  const double parallel_ms = time_rows(opt.lanes);

  const double ops = static_cast<double>(e.ops.size());
  const std::uint64_t hits = cache1.mutual_hits - cache0.mutual_hits;
  const std::uint64_t probes = hits + cache1.mutual_misses - cache0.mutual_misses;
  LayerValues lv;
  lv["peec.exact_pairs"] = static_cast<double>(kern1.exact_pairs - kern0.exact_pairs) / ops;
  lv["peec.sample_evals"] = static_cast<double>(kern1.sample_evals - kern0.sample_evals) / ops;
  lv["peec.mutual_hit_ratio"] =
      probes > 0 ? static_cast<double>(hits) / static_cast<double>(probes) : 0.0;
  lv["peec.row_extract_ms"] = row_ms / ops;
  lv["peec.ns_per_sample_eval"] =
      row_evals > 0 ? row_ms * 1e6 / static_cast<double>(row_evals) : 0.0;
  lv["place.edit_drc_ms"] = edit_ms / ops;
  lv["pool.chunks"] = static_cast<double>(pool1.chunks - pool0.chunks) / ops;
  lv["pool.steals"] = static_cast<double>(pool1.steals - pool0.steals) / ops;
  lv["core.cpu_utilization"] =
      e.cpu_ms() / (e.wall_ms() * static_cast<double>(opt.lanes));
  lv["core.parallel_speedup"] = parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  add_layer_metrics(r, lv);
  return r;
}

}  // namespace emibench
