// Design-rule derivation: turn field-model coupling curves into the pairwise
// minimum-distance rules (PEMD) the placement tool consumes, and implement
// the paper's orientation law  EMD_ij = PEMD_ij * |cos(alpha_ij)|  where
// alpha is the angle between the two magnetic axes (section 4 / Fig 10).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/units.hpp"
#include "src/peec/coupling.hpp"

namespace emi::emc {

using units::Millimeters;

struct MinDistanceRule {
  std::string comp_a;
  std::string comp_b;
  Millimeters pemd;     // minimum distance at parallel magnetic axes
  double k_threshold;   // coupling level the rule guarantees staying under
};

// Effective minimum distance after rotation; angle in degrees between the
// two magnetic axes (folded to [0, 90]).
Millimeters effective_min_distance(Millimeters pemd, double axis_angle_deg);

struct RuleDeriverOptions {
  // A coupling factor of 0.01 "already severely influences the behavior of
  // for example a pi filter circuit" - the default rule threshold.
  double k_threshold = 0.01;
  Millimeters d_search_lo{2.0};
  Millimeters d_search_hi{200.0};
  Millimeters tol{0.25};
};

// How derive_pairs' searches reached their rules.
struct RuleSearchStats {
  std::uint64_t searches = 0;       // unique searches run
  std::uint64_t fallbacks = 0;      // of those, whose certificate failed
  std::uint64_t null_geometry = 0;  // rules whose exact |k| is round-off
  double steer_max_rel_err = 0.0;   // largest steering error at a certified point
};

class RuleDeriver {
 public:
  using ModelPair =
      std::pair<const peec::ComponentFieldModel*, const peec::ComponentFieldModel*>;

  // `steer`, when given and coarser than `extractor`, steers every search
  // and `extractor` certifies it (CouplingExtractor::steered_min_distance).
  RuleDeriver(const peec::CouplingExtractor& extractor, RuleDeriverOptions opt = {},
              const peec::CouplingExtractor* steer = nullptr)
      : extractor_(&extractor), steer_(steer), opt_(opt) {}

  // The rule table for a list of component pairs (worst case: parallel
  // axes): one rule per distinct unordered name pair, in first-occurrence
  // order, named in the pair's own order. Pairs with the same ordered
  // model-digest pair share one PEMD search (the result is a function of
  // geometry alone), and the unique searches run in one parallel_for, each
  // into its own slot, so the table is bit-identical at any lane count.
  // `stats`, if given, receives how the searches went. Throws
  // std::invalid_argument for a null model.
  std::vector<MinDistanceRule> derive_pairs(std::span<const ModelPair> pairs,
                                            RuleSearchStats* stats = nullptr) const;

  // PEMD for one component pair.
  MinDistanceRule derive(const peec::ComponentFieldModel& a,
                         const peec::ComponentFieldModel& b) const;

  // Full pairwise rule table; the paper's n(n-1)/2 minimum distances.
  std::vector<MinDistanceRule> derive_all(
      const std::vector<const peec::ComponentFieldModel*>& models) const;

  const RuleDeriverOptions& options() const { return opt_; }

 private:
  const peec::CouplingExtractor* extractor_;
  const peec::CouplingExtractor* steer_;
  RuleDeriverOptions opt_;
};

}  // namespace emi::emc
