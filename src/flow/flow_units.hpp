// The design flow as five explicitly steppable units - the engine behind
// run_design_flow / resume_design_flow, exposed so a supervising service can
// drive the pipeline one unit at a time (poll job cancellation between
// units, observe which unit is in flight) instead of calling one opaque
// monolith.
//
// Each unit corresponds to one FlowStage and is *resumable*: a unit whose
// outcome is already recorded in the restored checkpoint executes only its
// restored-path side effects (rule installation, derived DRC reports,
// profile counts) and never re-runs its stage body. After every decided unit
// the checkpoint is atomically rewritten (FlowOptions::checkpoint_path), so
// a process killed between units loses at most the unit in flight.
//
// Determinism contract, unchanged from the monolithic flow: stepping the
// units one by one, resuming from any checkpoint prefix, or running under
// any EMI_THREADS produces a bit-identical FlowResult (profile timings
// aside).
#pragma once

#include <array>
#include <cstddef>
#include <optional>

#include "src/core/thread_pool.hpp"
#include "src/flow/checkpoint.hpp"
#include "src/flow/design_flow.hpp"
#include "src/flow/stage_driver.hpp"
#include "src/peec/partial_inductance.hpp"
#include "src/place/drc.hpp"

namespace emi::flow {

class FlowEngine {
 public:
  // Units in execution order; step() runs them front to back.
  static constexpr std::array<FlowStage, kFlowStageCount> kUnits = {
      FlowStage::kSensitivity, FlowStage::kInitialPrediction,
      FlowStage::kRuleDerivation, FlowStage::kPlacement,
      FlowStage::kVerification};

  // `bc`, `initial_layout` and `opt` are borrowed for the engine's lifetime.
  // A default-constructed checkpoint starts fresh; a restored one (already
  // validated against flow_context_digest by the caller) resumes.
  FlowEngine(BuckConverter& bc, const place::Layout& initial_layout,
             const FlowOptions& opt, FlowCheckpoint ck = FlowCheckpoint{});

  FlowEngine(const FlowEngine&) = delete;
  FlowEngine& operator=(const FlowEngine&) = delete;

  // The unit the next step() would execute; nullopt once every unit ran or
  // the pipeline halted (cancellation, crash-sim stop, exhausted budget with
  // nothing left to decide).
  std::optional<FlowStage> next_unit() const;

  // Execute one unit. Returns true while more units remain; false once the
  // pipeline finished or halted. Never throws for numeric/injected failures
  // (those become diagnostics); caller mistakes still raise.
  bool step();

  // True when the pipeline stopped early: a stage observed cancellation, or
  // the crash-sim hook (FlowOptions::stop_after_stage) fired.
  bool halted() const { return halted_; }

  // Fold the run's profile deltas (cache traffic, kernel work, pool
  // activity) into the result and move it out. Call once, after stepping is
  // done; run() does all of it.
  FlowResult finish();

  // step() to completion, then finish().
  FlowResult run();

 private:
  bool unit_sensitivity();
  bool unit_initial_prediction();
  bool unit_rule_derivation();
  bool unit_placement();
  bool unit_verification();

  // Record the decided stage in the checkpoint, rewrite the checkpoint file,
  // and report whether the crash-sim hook asks the flow to stop right here.
  bool checkpoint_after(FlowStage stage, bool ok_bit);
  void halt_pipeline();

  const peec::CouplingExtractor& pick_extractor(int degrade) const {
    return degrade > 0 ? coarse_extractor_ : extractor_;
  }

  BuckConverter& bc_;
  const place::Layout& initial_layout_;
  const FlowOptions& opt_;
  FlowCheckpoint ck_;
  FlowResult& res_;  // alias of ck_.result

  peec::CouplingExtractor extractor_;
  // Same physics, peec::coarse_quadrature: steers the rule stage's PEMD
  // searches, and is the one extractor of attempts that follow a deadline
  // expiry.
  peec::CouplingExtractor coarse_extractor_;
  core::PoolStats pool0_;
  peec::KernelStats kern0_;
  // Sweep economics of this run's successful stage attempts; finish() folds
  // them into the `sweep.*` profile entries (always present, zero when the
  // acceleration is off or never engaged).
  emi::sweep::SweepStats sweep_stats_;
  detail::StageDriver driver_;

  std::vector<std::string> candidates_;
  // DRC engine built once the board carries the derived rules; reused by the
  // verification unit so both reports come from one rule snapshot.
  std::optional<place::DrcEngine> drc_;

  std::size_t unit_idx_ = 0;
  bool halted_ = false;
  bool rules_ok_ = false;
  bool place_ok_ = false;
};

}  // namespace emi::flow
