// The end-to-end methodology of the paper, as one callable pipeline:
//
//   1. circuit simulation with parasitics        (ckt)
//   2. sensitivity analysis of coupling factors  (emc::rank_coupling_sensitivity)
//   3. PEEC extraction of the relevant couplings (peec::CouplingExtractor)
//   4. interference prediction                   (emc::conducted_emission)
//   5. design-rule derivation (PEMD table)       (emc::RuleDeriver)
//   6. automatic placement honoring the rules    (place::auto_place)
//   7. re-extraction + verification
//
// "Using the proposed approach in the design stage allows both a statement
// on achievable performance with the given components and the minimization
// of the system volume."
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "src/core/deadline.hpp"
#include "src/core/profile.hpp"
#include "src/core/status.hpp"
#include "src/emi/measurement.hpp"
#include "src/emi/rules.hpp"
#include "src/emi/sensitivity.hpp"
#include "src/flow/buck_converter.hpp"
#include "src/peec/extraction_cache.hpp"
#include "src/place/drc.hpp"
#include "src/place/metrics.hpp"
#include "src/place/placer.hpp"

namespace emi::flow {

struct FlowOptions {
  // Sensitivity pruning: pairs below this emission impact are not field
  // simulated. 0 disables pruning (full n(n-1)/2 extraction).
  double sensitivity_threshold_db = 1.0;
  // Rule derivation threshold (paper: k = 0.01 already hurts a pi filter).
  double k_threshold = 0.01;
  // Couplings below this are not installed in the circuit.
  double k_min = 1e-4;
  emc::EmissionSweepOptions sweep{};
  // Sweep acceleration (sweep::SweepAccel): `adaptive` turns on adaptive
  // frequency refinement for the dense emission sweeps; `surrogate`, which
  // needs adaptive, adds the reduced-order coupling model (with adaptive
  // escalation) for the per-pair sensitivity sweeps. The default keeps the
  // exact dense path, so flow results stay bit-identical to older builds;
  // with adaptive on the options join the checkpoint context digest (like
  // KernelOptions::cluster) and degrade along the deadline ladder (tol_db /
  // gate_db doubled per degradation step). Economics surface as `sweep.*`
  // profile counters.
  emi::sweep::SweepAccel sweep_accel{};
  peec::QuadratureOptions quadrature{};
  // Pair-kernel fast-path gates (peec::KernelOptions). The default keeps the
  // exact kernel, so flow results stay bit-identical to older builds; this
  // is the intended opt-in site for the analytic / far-field approximations
  // (documented relative-error bounds in partial_inductance.hpp). Applied to
  // every extractor the flow builds, and part of the checkpoint context.
  peec::KernelOptions kernel{};
  // Geometry prescreen: before field-simulating the sensitivity-selected
  // pairs, rank them by placed-geometry |k| (one batched
  // emc::rank_geometric_coupling extraction on the *initial* layout) and
  // drop pairs below k_min. Saves the per-pair rule searches for pairs the
  // layout already decouples; dropped pairs count into field_solves_saved.
  bool geometric_prescreen = false;
  // Coupling-aware placement: add `w_coupling * sum |k(candidate, placed)|`
  // to every legal candidate's cost (PlacerOptions::candidate_cost), wired
  // through CouplingExtractor::mutual_batch so each candidate costs one
  // batched extraction against the already-placed field models. Off by
  // default: placement stays bit-identical to older builds.
  bool coupling_aware_placement = false;
  double w_coupling = 50.0;
  place::AutoPlaceOptions placement{};
  int cispr_class = 3;
  // Per-stage retry budget. A retry jitters the AC pivot threshold (which
  // re-keys injected lu faults) and the last attempt runs with serial lanes -
  // a scheduling change only, results are bit-identical by the pool's
  // determinism contract.
  int stage_attempts = 2;

  // Time budgets (milliseconds; 0 = unlimited). The total budget bounds the
  // whole flow, the stage budget bounds each attempt of each stage; an
  // attempt runs under the tighter of the two. Expiry is cooperative (poll
  // points inside extraction / AC sweeps / placement) and surfaces as a
  // kDeadlineExceeded StageDiagnostic - never a hang or a throw out of
  // run_design_flow. An expired attempt is retried in *degraded* form
  // (coarser quadrature, coarser placement grid, fewer sensitivity points);
  // once the total budget is gone, remaining stages are skipped and the
  // partial FlowResult comes back with complete=false. Degradation decisions
  // are made only at attempt boundaries, so a run that takes a given
  // degradation path is bit-identical to any other run taking that path.
  std::int64_t total_budget_ms = 0;
  std::int64_t stage_budget_ms = 0;
  // Optional cooperative cancellation (operator Ctrl-C, supervising
  // service). Raising it stops the flow at the next poll point; the current
  // stage's output is discarded and the partial result carries a kCancelled
  // diagnostic. Not owned; may be null.
  core::CancelToken* cancel = nullptr;

  // Liveness heartbeat for a supervising service's hung-job watchdog:
  // called at every stage-attempt boundary and unit step - the flow's
  // progress points. Never called mid-chunk, so it cannot perturb results;
  // deliberately NOT part of the checkpoint context digest. May be empty.
  std::function<void()> heartbeat;
  // Deterministic inter-attempt backoff (core::Backoff, seeded from the
  // stage name): the delay before retry attempt k of a failed stage. Pure
  // scheduling - it changes when a retry runs, never what it computes. 0 =
  // retry immediately (the historical behavior).
  std::int64_t retry_backoff_ms = 0;

  // Shared extraction cache (two-tier; see peec/extraction_cache.hpp). When
  // set, every extractor the flow builds attaches to it, so repeated runs -
  // e.g. the jobs of one service session - reuse each other's extracted
  // geometry. Null keeps per-extractor private caches, the pre-service
  // behavior. Deliberately NOT part of the checkpoint context: cached values
  // are pure functions of their keys, so cache topology never changes result
  // bits.
  std::shared_ptr<peec::ExtractionCache> extraction_cache;

  // Crash safety: when non-empty, a versioned checkpoint (see
  // flow/checkpoint.hpp) is atomically rewritten at this path after every
  // stage whose outcome became final, and resume_design_flow() can pick the
  // run up from it.
  std::string checkpoint_path;
  // Deterministic crash stand-in for tests: return right after the named
  // stage's checkpoint is written ("sensitivity", "initial_prediction",
  // "rule_derivation", "placement", "verification"). The file state is
  // exactly what a SIGKILL after that write would leave. Empty = off.
  std::string stop_after_stage;
};

// One entry per stage that did not succeed on its first attempt. `recovered`
// means a retry eventually went through; otherwise the stage was skipped or
// degraded and FlowResult::complete is false for critical stages.
struct StageDiagnostic {
  std::string stage;    // "flow.sensitivity", "flow.placement", ...
  core::Status status;  // last failure observed for this stage
  int attempts = 0;     // attempts consumed (including the failing ones)
  bool recovered = false;
};

struct FlowResult {
  // Prediction for the initial layout.
  emc::EmissionSpectrum initial_prediction;
  emc::EmissionSpectrum initial_no_coupling;  // the state-of-practice baseline
  // Sensitivity ranking and the pairs selected for field simulation.
  std::vector<emc::CouplingSensitivity> ranking;
  std::vector<std::pair<std::string, std::string>> simulated_pairs;
  std::size_t field_solves_saved = 0;  // pairs pruned by sensitivity
  // Derived rules (installed into the returned design).
  std::vector<emc::MinDistanceRule> rules;
  // Placement results.
  place::Layout improved_layout;
  place::PlaceStats place_stats;
  place::DrcReport drc_initial;
  place::DrcReport drc_improved;
  // Prediction for the improved layout.
  emc::EmissionSpectrum improved_prediction;
  // Emission deltas.
  double peak_improvement_db = 0.0;  // max over frequency of initial - improved
  // Per-stage wall times (flow.*), extraction cache traffic (peec.*),
  // placement work (place.*) and pool activity (pool.*) for this run.
  // Printed by io::write_profile.
  core::Profile profile;
  // Robustness bookkeeping: every stage that needed a retry or failed
  // outright leaves a diagnostic. `complete` is false when a stage the
  // downstream results depend on (predictions, placement, verification)
  // ultimately failed; the populated fields up to that stage remain valid.
  std::vector<StageDiagnostic> diagnostics;
  bool complete = true;
};

// Run the full flow on a converter starting from `initial_layout`.
// `bc.board` is extended in place with the derived EMD rules.
//
// Never throws for numeric/injected failures inside stages: those come back
// as a partial FlowResult with `diagnostics` filled in. Caller mistakes
// (e.g. a design without PWRLOOP) still raise std::invalid_argument.
FlowResult run_design_flow(BuckConverter& bc, const place::Layout& initial_layout,
                           const FlowOptions& opt = {});

// Resume a flow from the checkpoint at opt.checkpoint_path: stages recorded
// as decided are skipped (their serialized results restored), the rest run
// normally. By the determinism contract the resumed FlowResult is
// bit-identical to an uninterrupted run's (profile timings aside). A
// missing, corrupt, truncated, or configuration-mismatched checkpoint is
// rejected: nothing runs and the returned partial result carries the
// structured reason (kIoError / line-numbered kParseError /
// kFailedPrecondition) as a "flow.checkpoint" diagnostic.
FlowResult resume_design_flow(BuckConverter& bc, const place::Layout& initial_layout,
                              const FlowOptions& opt);

}  // namespace emi::flow
