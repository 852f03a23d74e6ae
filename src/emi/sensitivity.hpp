// Sensitivity analysis - the paper's complexity reducer. Before running any
// field simulation, probe coupling factors are inserted pairwise between the
// circuit's inductances (capacitor ESLs, chokes, trace inductances) and their
// influence on the emitted interference is ranked. Only the top-ranked pairs
// then need PEEC field extraction, which "makes the electromagnetic
// calculation of a whole circuit feasible".
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/emi/emission.hpp"
#include "src/peec/coupling.hpp"
#include "src/sweep/options.hpp"

namespace emi::emc {

struct CouplingSensitivity {
  std::string inductor_a;
  std::string inductor_b;
  double max_delta_db;   // worst-frequency emission change for the probe k
  double mean_delta_db;
};

struct SensitivityOptions {
  double probe_k = 0.05;  // inserted probe coupling factor
  EmissionSweepOptions sweep{};
  // Optional subset of inductor names to consider (empty = all).
  std::vector<std::string> candidates;
  // Opt-in sweep acceleration: adaptive frequency refinement for the dense
  // sweeps, plus (surrogate, which needs adaptive) the reduced-order
  // coupling model with escalation for the per-pair probe sweeps. Defaults
  // off; the legacy dense path then runs bit-identically to older builds.
  emi::sweep::SweepAccel accel{};
};

// Ranking plus the sweep-economics counters the flow surfaces as profile
// entries (full solves vs interpolated/coupling-model-filled points).
struct SensitivityReport {
  std::vector<CouplingSensitivity> ranking;
  emi::sweep::SweepStats stats;
};

// Rank all candidate inductor pairs by emission impact. The circuit is
// taken by value: existing couplings are preserved and each probe is applied
// on top, one pair at a time, against the unprobed baseline.
std::vector<CouplingSensitivity> rank_coupling_sensitivity(
    ckt::Circuit c, const std::string& meas_node, const TrapezoidSpectrum& source,
    const SensitivityOptions& opt = {});

// Same ranking, plus sweep economics. With opt.accel.adaptive on, the
// per-pair sweeps are adaptive refinements, or with surrogate also on
// coupling-model evaluations (per-pair stats are accumulated in pair-index
// order, so the report is thread-count invariant); with adaptive off this is
// the dense path plus counters.
SensitivityReport rank_coupling_sensitivity_report(
    ckt::Circuit c, const std::string& meas_node, const TrapezoidSpectrum& source,
    const SensitivityOptions& opt = {});

// Keep only pairs whose max impact reaches `threshold_db`; the survivors are
// the pairs worth a field simulation.
std::vector<CouplingSensitivity> significant_pairs(
    const std::vector<CouplingSensitivity>& ranked, double threshold_db);

// A pair ranked purely by placed-geometry coupling magnitude.
struct GeometricCoupling {
  std::string inductor_a;
  std::string inductor_b;
  double k_abs = 0.0;  // |M| / sqrt(La * Lb) at the placed poses
};

// Geometry-only prescreen: rank every model pair by |k| using one batched
// PEEC extraction (CouplingExtractor::mutual_matrix) - no circuit
// simulation. `names[i]` labels `models[i]`; both spans must be the same
// length. Sorted descending by |k|, ties broken by name for a deterministic
// order. The flow uses this to drop geometrically negligible pairs before
// the per-pair emission sweeps of rank_coupling_sensitivity.
std::vector<GeometricCoupling> rank_geometric_coupling(
    const peec::CouplingExtractor& extractor,
    std::span<const peec::PlacedModel> models,
    std::span<const std::string> names);

}  // namespace emi::emc
