#include "src/emi/rules.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>

#include "src/core/parallel.hpp"
#include "src/geom/angle.hpp"

namespace emi::emc {

Millimeters effective_min_distance(Millimeters pemd, double axis_angle_deg) {
  const double folded = geom::axis_angle_deg(0.0, axis_angle_deg);
  return pemd * std::fabs(std::cos(geom::deg_to_rad(folded)));
}

std::vector<MinDistanceRule> RuleDeriver::derive_pairs(std::span<const ModelPair> pairs,
                                                       RuleSearchStats* stats) const {
  std::vector<MinDistanceRule> out;
  std::vector<std::size_t> search_of;  // rule -> unique search slot
  std::vector<ModelPair> searches;
  std::set<std::pair<std::string, std::string>> named;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> slot_of;
  for (const auto& [a, b] : pairs) {
    if (a == nullptr || b == nullptr) {
      throw std::invalid_argument("RuleDeriver: null model");
    }
    if (!named.insert(std::minmax(a->name, b->name)).second) continue;
    const auto [it, fresh] = slot_of.emplace(
        std::make_pair(peec::model_digest(*a), peec::model_digest(*b)), searches.size());
    if (fresh) searches.emplace_back(a, b);
    search_of.push_back(it->second);
    out.push_back({a->name, b->name, Millimeters{0.0}, opt_.k_threshold});
  }
  // Self inductances first, serially: the searches share models, and their
  // first evaluations would otherwise all miss on them at once, making the
  // cache counters depend on the schedule.
  for (const auto& [a, b] : searches) {
    for (const peec::CouplingExtractor* ex : {extractor_, steer_}) {
      if (ex == nullptr) continue;
      (void)ex->self_inductance(*a);
      (void)ex->self_inductance(*b);
    }
  }
  std::vector<peec::SteeredCrossing> found(searches.size());
  core::parallel_for(0, searches.size(), [&](std::size_t i) {
    found[i] = extractor_->steered_min_distance(
        *searches[i].first, *searches[i].second, opt_.k_threshold, opt_.d_search_lo,
        opt_.d_search_hi, opt_.tol, steer_);
  });
  for (std::size_t r = 0; r < out.size(); ++r) out[r].pemd = found[search_of[r]].distance;
  if (stats != nullptr) {
    *stats = RuleSearchStats{};
    stats->searches = found.size();
    for (const peec::SteeredCrossing& f : found) {
      stats->fallbacks += f.fell_back ? 1u : 0u;
      stats->steer_max_rel_err = std::max(stats->steer_max_rel_err, f.steer_rel_err);
    }
    for (const std::size_t i : search_of) {
      stats->null_geometry += found[i].null_geometry ? 1u : 0u;
    }
  }
  return out;
}

MinDistanceRule RuleDeriver::derive(const peec::ComponentFieldModel& a,
                                    const peec::ComponentFieldModel& b) const {
  const ModelPair pair{&a, &b};
  return derive_pairs(std::span<const ModelPair>(&pair, 1)).front();
}

std::vector<MinDistanceRule> RuleDeriver::derive_all(
    const std::vector<const peec::ComponentFieldModel*>& models) const {
  std::vector<ModelPair> pairs;
  pairs.reserve(models.size() * (models.size() - 1) / 2);
  for (std::size_t i = 0; i < models.size(); ++i) {
    for (std::size_t j = i + 1; j < models.size(); ++j) {
      pairs.emplace_back(models[i], models[j]);
    }
  }
  return derive_pairs(pairs);
}

}  // namespace emi::emc
