#include "src/emi/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/core/parallel.hpp"
#include "src/numeric/stats.hpp"
#include "src/sweep/adaptive.hpp"
#include "src/sweep/coupling.hpp"

namespace emi::emc {
namespace {

// One dense-grid emission sweep: adaptive refinement when accel.adaptive is
// on, otherwise the legacy dense path (identical arithmetic, identical bits)
// plus a full_solves count.
std::vector<double> sweep_levels(const ckt::Circuit& c, const std::string& meas_node,
                                 const std::vector<double>& freqs,
                                 const std::vector<double>& env,
                                 const ckt::AcOptions& ac,
                                 const emi::sweep::SweepAccel& accel,
                                 emi::sweep::SweepStats* stats) {
  if (accel.adaptive) {
    auto a = emi::sweep::adaptive_ac_sweep(c, {meas_node}, freqs, env, ac, accel);
    stats->merge(a.stats);
    return std::move(a.level_dbuv[0]);
  }
  const EmissionSpectrum dense = conducted_emission_scaled(c, meas_node, freqs, env, ac);
  stats->full_solves += freqs.size();
  return dense.level_dbuv;
}

}  // namespace

std::vector<CouplingSensitivity> rank_coupling_sensitivity(
    ckt::Circuit c, const std::string& meas_node, const TrapezoidSpectrum& source,
    const SensitivityOptions& opt) {
  return rank_coupling_sensitivity_report(std::move(c), meas_node, source, opt).ranking;
}

SensitivityReport rank_coupling_sensitivity_report(
    ckt::Circuit c, const std::string& meas_node, const TrapezoidSpectrum& source,
    const SensitivityOptions& opt) {
  // Candidate inductors: explicit list or every inductor in the circuit.
  std::vector<std::string> names = opt.candidates;
  if (names.empty()) {
    for (const auto& l : c.inductors()) names.push_back(l.name);
  }

  const std::vector<double> freqs =
      num::log_space(opt.sweep.f_min_hz, opt.sweep.f_max_hz, opt.sweep.n_points);
  const std::vector<double> env = envelope_series(source, freqs);

  SensitivityReport rep;
  // The baseline carries the refinement engine's per-point error bound. The
  // refined grid the adaptive run settles on doubles as the coupling model's
  // frequency grid below: refinement already spent its solves where the
  // response has structure, and a probe coupling only perturbs that
  // structure slightly.
  std::vector<double> baseline;
  std::vector<std::size_t> refined;
  if (opt.accel.adaptive) {
    auto base = emi::sweep::adaptive_ac_sweep(c, {meas_node}, freqs, env,
                                              opt.sweep.ac, opt.accel);
    rep.stats.merge(base.stats);
    baseline = std::move(base.level_dbuv[0]);
    for (std::size_t fi = 0; fi < base.solved.size(); ++fi) {
      if (base.solved[fi]) refined.push_back(fi);
    }
  } else {
    baseline = sweep_levels(c, meas_node, freqs, env, opt.sweep.ac, opt.accel,
                            &rep.stats);
  }

  // With surrogate on top of adaptive, the per-pair sweeps go through the
  // reduced-order coupling model: ONE factorization pass over the refined
  // grid (the baseline MNA system, factored once per refined frequency)
  // serves every candidate pair via an exact rank-2 Sherman-Morrison update,
  // so a pair's marginal cost is a handful of 2x2 solves plus the complex
  // cubic fill. Pairs whose held-out fill residual exceeds the gate escalate
  // to their own adaptive sweep.
  const bool use_model =
      opt.accel.adaptive && opt.accel.surrogate && names.size() >= 2;
  ckt::CouplingProbeModel model;
  std::vector<std::vector<double>> lmat;
  if (use_model) {
    // The model grid is the refined grid plus the midpoint of every refined
    // gap: the probe couplings shift the response's structure slightly, so
    // the probed fill needs a little more headroom than the baseline did.
    // Halving the gaps costs one extra solve per gap ONCE (the model is
    // shared by every pair) and cuts the cubic fill error by ~an order.
    std::vector<std::size_t> mids;
    for (std::size_t k = 1; k < refined.size(); ++k) {
      if (refined[k] - refined[k - 1] >= 2) {
        mids.push_back(refined[k - 1] + (refined[k] - refined[k - 1]) / 2);
      }
    }
    refined.insert(refined.end(), mids.begin(), mids.end());
    std::sort(refined.begin(), refined.end());
    std::vector<double> model_f(refined.size()), model_env(refined.size());
    for (std::size_t k = 0; k < refined.size(); ++k) {
      model_f[k] = freqs[refined[k]];
      model_env[k] = env[refined[k]];
    }
    ckt::AcOptions model_ac = opt.sweep.ac;
    model_ac.source_scale = model_env;
    model = ckt::ac_coupling_probe_model(c, meas_node, names, model_f, model_ac);
    rep.stats.full_solves += refined.size();
    lmat = c.inductance_matrix();
  }

  // The n(n-1)/2 probe sweeps are independent: each one runs against its own
  // copy of the circuit (the copy is trivial next to an AC sweep) with the
  // probe coupling overriding whatever the pair already had. Results and
  // sweep stats land in index-addressed slots and are merged in pair-index
  // order afterwards, so the whole report is thread-count invariant.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) pairs.emplace_back(i, j);
  }

  std::vector<CouplingSensitivity> out(pairs.size());
  std::vector<emi::sweep::SweepStats> pair_stats(pairs.size());
  core::parallel_for(0, pairs.size(), [&](std::size_t pi) {
    const auto& [i, j] = pairs[pi];
    std::vector<double> probed;
    if (use_model) {
      // set_coupling REPLACES the pair's mutual with probe_k*sqrt(Li*Lj), so
      // the model evaluates the DIFFERENCE against whatever mutual the pair
      // already carries.
      const std::size_t ci = c.inductor_index(names[i]);
      const std::size_t cj = c.inductor_index(names[j]);
      const double delta_m =
          opt.probe_k * std::sqrt(lmat[ci][ci] * lmat[cj][cj]) - lmat[ci][cj];
      const auto escalate = [&]() {
        // Past the gate the pair gets its own adaptive refinement - full
        // admission-controlled accuracy at the refined-solve price, not the
        // dense one.
        ckt::Circuit esc_probe = c;
        esc_probe.set_coupling(names[i], names[j], opt.probe_k);
        auto a = emi::sweep::adaptive_ac_sweep(esc_probe, {meas_node}, freqs, env,
                                               opt.sweep.ac, opt.accel);
        pair_stats[pi].merge(a.stats);
        return std::move(a.level_dbuv[0]);
      };
      probed = emi::sweep::coupling_model_pair_sweep(
          model, refined, freqs, env, delta_m, i, j, opt.accel, &pair_stats[pi],
          escalate);
    } else {
      ckt::Circuit probe = c;
      probe.set_coupling(names[i], names[j], opt.probe_k);
      probed = sweep_levels(probe, meas_node, freqs, env, opt.sweep.ac, opt.accel,
                            &pair_stats[pi]);
    }

    double max_d = 0.0, sum_d = 0.0;
    for (std::size_t fi = 0; fi < probed.size(); ++fi) {
      const double v = probed[fi] - baseline[fi];
      max_d = std::max(max_d, std::fabs(v));
      sum_d += std::fabs(v);
    }
    out[pi] = {names[i], names[j], max_d,
               probed.empty() ? 0.0 : sum_d / static_cast<double>(probed.size())};
  });
  for (const auto& st : pair_stats) rep.stats.merge(st);

  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.max_delta_db > b.max_delta_db;
  });
  rep.ranking = std::move(out);
  return rep;
}

std::vector<CouplingSensitivity> significant_pairs(
    const std::vector<CouplingSensitivity>& ranked, double threshold_db) {
  std::vector<CouplingSensitivity> out;
  for (const auto& s : ranked) {
    if (s.max_delta_db >= threshold_db) out.push_back(s);
  }
  return out;
}

std::vector<GeometricCoupling> rank_geometric_coupling(
    const peec::CouplingExtractor& extractor,
    std::span<const peec::PlacedModel> models,
    std::span<const std::string> names) {
  const std::size_t n = models.size();
  if (names.size() != n) {
    throw std::invalid_argument("rank_geometric_coupling: names/models size mismatch");
  }
  if (n < 2) return {};

  // One batched extraction for the whole matrix: self terms on the diagonal,
  // mutuals off it, deduplicated by canonical relative pose. The prescreen
  // only ranks magnitudes, so it tolerates the clustered error bound; the
  // clustered entry point is mutual_matrix bit-for-bit unless the
  // extractor's kernel options opted in.
  const std::vector<units::Henry> m = extractor.mutual_matrix_clustered(models);

  std::vector<GeometricCoupling> out;
  out.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    const double li = m[i * n + i].raw();
    for (std::size_t j = i + 1; j < n; ++j) {
      const double lj = m[j * n + j].raw();
      const double k = (li <= 0.0 || lj <= 0.0)
                           ? 0.0
                           : m[i * n + j].raw() / std::sqrt(li * lj);
      out.push_back({names[i], names[j], std::fabs(k)});
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.k_abs != b.k_abs) return a.k_abs > b.k_abs;
    if (a.inductor_a != b.inductor_a) return a.inductor_a < b.inductor_a;
    return a.inductor_b < b.inductor_b;
  });
  return out;
}

}  // namespace emi::emc
