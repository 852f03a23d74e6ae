#include "src/flow/flow_units.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

namespace emi::flow {

FlowEngine::FlowEngine(BuckConverter& bc, const place::Layout& initial_layout,
                       const FlowOptions& opt, FlowCheckpoint ck)
    : bc_(bc),
      initial_layout_(initial_layout),
      opt_(opt),
      ck_(std::move(ck)),
      res_(ck_.result),
      // Both extractors share one cache: the caller's (possibly tiered) one
      // when injected, else the exact extractor's private one. Quadrature
      // and kernel gates are part of every cache key, so the exact and
      // coarse extractors never alias entries.
      extractor_(opt.quadrature, opt.kernel, opt.extraction_cache),
      coarse_extractor_(peec::coarse_quadrature(opt.quadrature), opt.kernel,
                        extractor_.cache()),
      pool0_(core::ThreadPool::global().stats()),
      kern0_(peec::kernel_stats()),
      driver_{&opt_,
              opt.total_budget_ms > 0 ? core::Deadline::after_ms(opt.total_budget_ms)
                                      : core::Deadline::unlimited(),
              &res_.diagnostics} {
  for (const auto& [l, mi] : bc_.inductor_model) candidates_.push_back(l);
  std::sort(candidates_.begin(), candidates_.end());
  ck_.context_digest = flow_context_digest(bc_, initial_layout_, opt_);
}

std::optional<FlowStage> FlowEngine::next_unit() const {
  if (halted_ || unit_idx_ >= kUnits.size()) return std::nullopt;
  return kUnits[unit_idx_];
}

void FlowEngine::halt_pipeline() {
  halted_ = true;
  res_.complete = false;
}

bool FlowEngine::checkpoint_after(FlowStage stage, bool ok_bit) {
  ck_.set(stage, ok_bit);
  if (!opt_.checkpoint_path.empty()) {
    const core::Status st = save_checkpoint_file(opt_.checkpoint_path, ck_);
    if (!st.ok()) res_.diagnostics.push_back({"flow.checkpoint", st, 1, false});
  }
  return opt_.stop_after_stage == flow_stage_name(stage);
}

bool FlowEngine::step() {
  if (halted_ || unit_idx_ >= kUnits.size()) return false;
  // Unit boundary = progress proof: beat the supervising watchdog's
  // heartbeat even when the unit is restored from a checkpoint and never
  // enters the stage driver.
  if (opt_.heartbeat) opt_.heartbeat();
  bool keep_going = false;
  switch (kUnits[unit_idx_]) {
    case FlowStage::kSensitivity:
      keep_going = unit_sensitivity();
      break;
    case FlowStage::kInitialPrediction:
      keep_going = unit_initial_prediction();
      break;
    case FlowStage::kRuleDerivation:
      keep_going = unit_rule_derivation();
      break;
    case FlowStage::kPlacement:
      keep_going = unit_placement();
      break;
    case FlowStage::kVerification:
      keep_going = unit_verification();
      break;
  }
  ++unit_idx_;
  return keep_going && unit_idx_ < kUnits.size();
}

// Step 1+2: sensitivity analysis on the coupling-capable inductors. If the
// ranking is unavailable the flow degrades to the state of practice:
// simulate every pair (no pruning), which is slower but never wrong. The
// pair selection is part of the unit's decided outcome, so a resume
// restores it from the checkpoint instead of re-deriving it.
bool FlowEngine::unit_sensitivity() {
  if (!ck_.done(FlowStage::kSensitivity)) {
    emi::sweep::SweepStats attempt_stats;
    const detail::StageOutcome so = driver_.run(
        "flow.sensitivity", [&](int attempt, int degrade) {
          core::ScopedTimer t(res_.profile, "flow.sensitivity_s");
          emc::SensitivityOptions sens_opt;
          sens_opt.sweep = detail::jittered(opt_.sweep, attempt);
          if (degrade > 0) {
            // Degraded retry after an expired budget: fewer sweep points.
            sens_opt.sweep.n_points =
                std::max<std::size_t>(25, sens_opt.sweep.n_points >> degrade);
          }
          sens_opt.candidates = candidates_;
          if (opt_.sweep_accel.enabled()) {
            // Accelerated path: adaptive baseline + coupling-model per-pair
            // sweeps, tolerances coarsened along the degradation ladder.
            // Stats are re-assigned per attempt so only the attempt that
            // decides the stage is counted.
            sens_opt.accel = opt_.sweep_accel.degraded(degrade);
            emc::SensitivityReport rep = emc::rank_coupling_sensitivity_report(
                bc_.circuit, bc_.meas_node, bc_.noise, sens_opt);
            res_.ranking = std::move(rep.ranking);
            attempt_stats = rep.stats;
          } else {
            res_.ranking = emc::rank_coupling_sensitivity(bc_.circuit, bc_.meas_node,
                                                          bc_.noise, sens_opt);
          }
        });
    if (so == detail::StageOutcome::kCancelled) {
      halt_pipeline();
      return false;
    }
    const bool sens_ok = so == detail::StageOutcome::kOk;
    if (sens_ok) sweep_stats_.merge(attempt_stats);
    res_.simulated_pairs.clear();
    res_.field_solves_saved = 0;
    if (sens_ok) {
      for (const auto& s : res_.ranking) {
        if (opt_.sensitivity_threshold_db <= 0.0 ||
            s.max_delta_db >= opt_.sensitivity_threshold_db) {
          res_.simulated_pairs.emplace_back(s.inductor_a, s.inductor_b);
        } else {
          ++res_.field_solves_saved;
        }
      }
    } else {
      res_.ranking.clear();
      for (std::size_t i = 0; i < candidates_.size(); ++i) {
        for (std::size_t j = i + 1; j < candidates_.size(); ++j) {
          res_.simulated_pairs.emplace_back(candidates_[i], candidates_[j]);
        }
      }
    }
    if (opt_.geometric_prescreen && !res_.simulated_pairs.empty()) {
      // Geometry prescreen: one batched extraction over the candidate models
      // at their initial poses; pairs the layout already decouples
      // (|k| < k_min) skip field simulation. Part of the unit's decided
      // outcome, so it lands in the checkpoint. The extracted mutuals stay
      // cached and are reused by the prediction units.
      std::vector<peec::PlacedModel> geo_models;
      std::vector<std::string> geo_names;
      for (const std::string& l : candidates_) {
        const peec::ComponentFieldModel* m = bc_.model_for_inductor(l);
        if (m == nullptr) continue;
        geo_models.push_back({m, pose_of(bc_, initial_layout_, m->name)});
        geo_names.push_back(l);
      }
      std::set<std::pair<std::string, std::string>> keep;
      for (const emc::GeometricCoupling& g :
           emc::rank_geometric_coupling(extractor_, geo_models, geo_names)) {
        if (g.k_abs >= opt_.k_min) {
          keep.insert({std::min(g.inductor_a, g.inductor_b),
                       std::max(g.inductor_a, g.inductor_b)});
        }
      }
      std::vector<std::pair<std::string, std::string>> kept;
      for (const auto& pr : res_.simulated_pairs) {
        if (keep.count({std::min(pr.first, pr.second),
                        std::max(pr.first, pr.second)}) != 0) {
          kept.push_back(pr);
        } else {
          ++res_.field_solves_saved;
        }
      }
      res_.simulated_pairs = std::move(kept);
    }
    if (checkpoint_after(FlowStage::kSensitivity, sens_ok)) {
      halt_pipeline();
      return false;
    }
  }
  res_.profile.add_count("flow.pairs_ranked", res_.ranking.size());
  res_.profile.add_count("flow.field_solves_saved", res_.field_solves_saved);
  return true;
}

// Step 3+4: extract couplings for the initial layout, predict emissions.
bool FlowEngine::unit_initial_prediction() {
  if (ck_.done(FlowStage::kInitialPrediction)) return true;
  emi::sweep::SweepStats attempt_stats;
  const detail::StageOutcome so = driver_.run(
      "flow.initial_prediction", [&](int attempt, int degrade) {
        core::ScopedTimer t(res_.profile, "flow.initial_prediction_s");
        const emc::EmissionSweepOptions sweep = detail::jittered(opt_.sweep, attempt);
        const ckt::Circuit coupled =
            circuit_with_couplings(bc_, initial_layout_, pick_extractor(degrade),
                                   opt_.k_min, res_.simulated_pairs);
        if (opt_.sweep_accel.adaptive) {
          const emi::sweep::SweepAccel accel = opt_.sweep_accel.degraded(degrade);
          emc::AdaptiveEmissionResult coupled_res = emc::conducted_emission_adaptive(
              coupled, bc_.meas_node, bc_.noise, sweep, accel);
          emc::AdaptiveEmissionResult bare_res = emc::conducted_emission_adaptive(
              bc_.circuit, bc_.meas_node, bc_.noise, sweep, accel);
          res_.initial_prediction = std::move(coupled_res.spectrum);
          res_.initial_no_coupling = std::move(bare_res.spectrum);
          attempt_stats = coupled_res.stats;
          attempt_stats.merge(bare_res.stats);
        } else {
          res_.initial_prediction =
              emc::conducted_emission(coupled, bc_.meas_node, bc_.noise, sweep);
          res_.initial_no_coupling =
              emc::conducted_emission(bc_.circuit, bc_.meas_node, bc_.noise, sweep);
        }
      });
  if (so == detail::StageOutcome::kCancelled) {
    halt_pipeline();
    return false;
  }
  if (so != detail::StageOutcome::kOk) res_.complete = false;
  if (so == detail::StageOutcome::kOk) sweep_stats_.merge(attempt_stats);
  if (checkpoint_after(FlowStage::kInitialPrediction,
                       so == detail::StageOutcome::kOk)) {
    halt_pipeline();
    return false;
  }
  return true;
}

// Step 5: derive PEMD rules for the component pairs behind the simulated
// inductor pairs. Rules accumulate in a unit-local list so a retried
// attempt never installs duplicates; installation into the board happens
// after the outcome is decided, and therefore also on the resume path.
bool FlowEngine::unit_rule_derivation() {
  if (ck_.done(FlowStage::kRuleDerivation)) {
    rules_ok_ = ck_.ok(FlowStage::kRuleDerivation);
  } else {
    std::vector<emc::RuleDeriver::ModelPair> todo;
    for (const auto& [la, lb] : res_.simulated_pairs) {
      const peec::ComponentFieldModel* ma = bc_.model_for_inductor(la);
      const peec::ComponentFieldModel* mb = bc_.model_for_inductor(lb);
      if (ma != nullptr && mb != nullptr) todo.emplace_back(ma, mb);
    }
    // This stage's own extractions, exact and steering apart: the
    // extractors' miss counters, unlike the process-wide kernel stats,
    // exclude concurrent jobs' work.
    const auto misses = [](const peec::CouplingExtractor* ex) {
      return ex == nullptr ? 0 : ex->cache_stats().mutual_misses;
    };
    std::uint64_t exact_misses = 0;
    std::uint64_t steering_misses = 0;
    std::vector<emc::MinDistanceRule> derived;
    emc::RuleSearchStats search;
    const detail::StageOutcome so = driver_.run(
        "flow.rule_derivation", [&](int, int degrade) {
          core::ScopedTimer t(res_.profile, "flow.rule_derivation_s");
          // A full attempt steers on the coarse quadrature and certifies
          // exactly. Degraded retry: coarse quadrature, no steering, and a
          // coarser search tolerance - rules stay conservative, just less
          // finely resolved.
          const peec::CouplingExtractor& exact = pick_extractor(degrade);
          const peec::CouplingExtractor* steer = degrade > 0 ? nullptr : &coarse_extractor_;
          const std::uint64_t exact0 = misses(&exact);
          const std::uint64_t steer0 = misses(steer);
          const emc::RuleDeriver deriver(
              exact,
              {opt_.k_threshold, emc::Millimeters{2.0}, emc::Millimeters{200.0},
               emc::Millimeters{degrade > 0 ? 1.0 : 0.25}},
              steer);
          derived = deriver.derive_pairs(todo, &search);
          exact_misses += misses(&exact) - exact0;
          steering_misses += misses(steer) - steer0;
        });
    res_.profile.add_count("rules.extractions", exact_misses);
    res_.profile.add_count("rules.steering_extractions", steering_misses);
    if (so == detail::StageOutcome::kCancelled) {
      halt_pipeline();
      return false;
    }
    rules_ok_ = so == detail::StageOutcome::kOk;
    if (rules_ok_) {
      res_.rules = std::move(derived);
      res_.profile.add_count("rules.searches", search.searches);
      res_.profile.add_count("rules.fallbacks", search.fallbacks);
      res_.profile.add_count("rules.null_geometry", search.null_geometry);
      res_.profile.max_gauge("rules.steer_max_rel_err", search.steer_max_rel_err);
    }
    if (checkpoint_after(FlowStage::kRuleDerivation, rules_ok_)) {
      halt_pipeline();
      return false;
    }
  }
  if (rules_ok_) {
    for (const emc::MinDistanceRule& rule : res_.rules) {
      if (rule.pemd.raw() > 0.0) {
        bc_.board.add_emd_rule(rule.comp_a, rule.comp_b, rule.pemd);
      }
    }
  }

  // DRC of the initial layout against the derived rules (Fig 15). Cheap and
  // a pure function of restored state, so it is recomputed on resume rather
  // than serialized. The engine keeps the rule-snapshot DRC for the
  // verification unit.
  drc_.emplace(bc_.board);
  res_.drc_initial = drc_->check(initial_layout_);
  return true;
}

// Step 6: automatic placement. PWRLOOP stays preplaced (the switching cell
// location is fixed by the power semiconductors/heat sink). A missing
// PWRLOOP is a caller mistake, so it is checked before the retry loop and
// still raises.
bool FlowEngine::unit_placement() {
  const std::size_t loop_idx = bc_.board.component_index("PWRLOOP");
  if (ck_.done(FlowStage::kPlacement)) {
    place_ok_ = ck_.ok(FlowStage::kPlacement);
    bc_.board.components()[loop_idx].preplaced = true;
  } else {
    const detail::StageOutcome so = driver_.run(
        "flow.placement", [&](int, int degrade) {
          core::ScopedTimer t(res_.profile, "flow.placement_s");
          res_.improved_layout = place::Layout::unplaced(bc_.board);
          res_.improved_layout.placements[loop_idx] =
              initial_layout_.placements[loop_idx];
          bc_.board.components()[loop_idx].preplaced = true;
          place::AutoPlaceOptions popt = opt_.placement;
          if (degrade > 0) {
            // Degraded retry: coarser candidate grid, fewer refinements.
            popt.placer.grid_step_mm *= static_cast<double>(1 << degrade);
            popt.placer.max_refines =
                popt.placer.max_refines > static_cast<std::size_t>(degrade)
                    ? popt.placer.max_refines - static_cast<std::size_t>(degrade)
                    : 1;
          }
          if (opt_.coupling_aware_placement) {
            // Penalize candidates by extracted coupling against everything
            // already placed: one mutual_batch per candidate (the placer
            // evaluates candidates from parallel workers; nested batches run
            // inline, and the canonical-pose cache absorbs the recurring
            // relative poses). The layout reference is stable during each
            // component's candidate evaluation - the placer only commits a
            // placement after the parallel region.
            const peec::CouplingExtractor& ext = pick_extractor(degrade);
            const place::Layout& lay = res_.improved_layout;
            BuckConverter& bcr = bc_;
            popt.placer.candidate_cost =
                [&bcr, &ext, &lay, w = opt_.w_coupling](
                    std::size_t comp, const place::Placement& cand) -> double {
                  const peec::ComponentFieldModel* mc =
                      bcr.model_for_component(bcr.board.components()[comp].name);
                  if (mc == nullptr) return 0.0;
                  std::vector<peec::PlacedModel> models;
                  std::vector<std::pair<std::size_t, std::size_t>> pairs;
                  models.push_back(
                      {mc, peec::Pose{{cand.position.x, cand.position.y, 0.0},
                                      cand.rot_deg}});
                  for (std::size_t j = 0; j < lay.placements.size(); ++j) {
                    if (j == comp || !lay.placements[j].placed) continue;
                    const peec::ComponentFieldModel* mj =
                        bcr.model_for_component(bcr.board.components()[j].name);
                    if (mj == nullptr) continue;
                    const place::Placement& p = lay.placements[j];
                    pairs.emplace_back(0, models.size());
                    models.push_back(
                        {mj, peec::Pose{{p.position.x, p.position.y, 0.0}, p.rot_deg}});
                  }
                  if (pairs.empty()) return 0.0;
                  const std::vector<units::Henry> ms = ext.mutual_batch(models, pairs);
                  const double lc = ext.self_inductance(*mc).raw();
                  double pen = 0.0;
                  for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
                    const double lj =
                        ext.self_inductance(*models[pairs[pi].second].model).raw();
                    if (lc > 0.0 && lj > 0.0) {
                      pen += std::fabs(ms[pi].raw() / std::sqrt(lc * lj));
                    }
                  }
                  return w * pen;
                };
          }
          res_.place_stats = place::auto_place(bc_.board, res_.improved_layout, popt);
        });
    if (so == detail::StageOutcome::kCancelled) {
      halt_pipeline();
      return false;
    }
    place_ok_ = so == detail::StageOutcome::kOk;
    // Wall time is observability, not a result: zero it so checkpointed and
    // fresh stats compare bit-identical.
    res_.place_stats.elapsed_seconds = 0.0;
    if (checkpoint_after(FlowStage::kPlacement, place_ok_)) {
      halt_pipeline();
      return false;
    }
  }
  res_.profile.add_count("place.candidates_evaluated",
                         res_.place_stats.candidates_evaluated);
  return true;
}

// Step 7: verify - DRC (Fig 17) and re-predict emissions (Fig 2). Without
// a placed layout there is nothing to verify.
bool FlowEngine::unit_verification() {
  bool verify_ok = false;
  if (ck_.done(FlowStage::kVerification)) {
    verify_ok = ck_.ok(FlowStage::kVerification);
    if (verify_ok) res_.drc_improved = drc_->check(res_.improved_layout);
  } else if (place_ok_) {
    emi::sweep::SweepStats attempt_stats;
    const detail::StageOutcome so = driver_.run(
        "flow.verification", [&](int attempt, int degrade) {
          core::ScopedTimer t(res_.profile, "flow.verification_s");
          res_.drc_improved = drc_->check(res_.improved_layout);
          const ckt::Circuit improved_ckt =
              circuit_with_couplings(bc_, res_.improved_layout,
                                     pick_extractor(degrade), opt_.k_min,
                                     res_.simulated_pairs);
          const emc::EmissionSweepOptions sweep = detail::jittered(opt_.sweep, attempt);
          if (opt_.sweep_accel.adaptive) {
            emc::AdaptiveEmissionResult improved = emc::conducted_emission_adaptive(
                improved_ckt, bc_.meas_node, bc_.noise, sweep,
                opt_.sweep_accel.degraded(degrade));
            res_.improved_prediction = std::move(improved.spectrum);
            attempt_stats = improved.stats;
          } else {
            res_.improved_prediction =
                emc::conducted_emission(improved_ckt, bc_.meas_node, bc_.noise, sweep);
          }
        });
    if (so == detail::StageOutcome::kCancelled) {
      halt_pipeline();
      return false;
    }
    verify_ok = so == detail::StageOutcome::kOk;
    if (verify_ok) sweep_stats_.merge(attempt_stats);
    if (checkpoint_after(FlowStage::kVerification, verify_ok)) {
      halt_pipeline();
      return false;
    }
  }
  if (!place_ok_ || !verify_ok) res_.complete = false;

  if (!res_.initial_prediction.level_dbuv.empty() &&
      res_.initial_prediction.level_dbuv.size() ==
          res_.improved_prediction.level_dbuv.size()) {
    double best = 0.0;
    for (std::size_t i = 0; i < res_.initial_prediction.level_dbuv.size(); ++i) {
      best = std::max(best, res_.initial_prediction.level_dbuv[i] -
                                res_.improved_prediction.level_dbuv[i]);
    }
    res_.peak_improvement_db = best;
  }
  return true;
}

FlowResult FlowEngine::finish() {
  const peec::ExtractionCacheStats c0 = extractor_.cache_stats();
  const peec::ExtractionCacheStats c1 = coarse_extractor_.cache_stats();
  res_.profile.add_count("peec.self_cache_hits", c0.self_hits + c1.self_hits);
  res_.profile.add_count("peec.self_cache_misses", c0.self_misses + c1.self_misses);
  res_.profile.add_count("peec.mutual_cache_hits", c0.mutual_hits + c1.mutual_hits);
  res_.profile.add_count("peec.mutual_cache_misses",
                         c0.mutual_misses + c1.mutual_misses);
  // Kernel work done by this run: integrand evaluations and how many pairs
  // each path handled (process-wide counters, reported as deltas).
  const peec::KernelStats kern1 = peec::kernel_stats();
  res_.profile.add_count("peec.kernel_sample_evals",
                         kern1.sample_evals - kern0_.sample_evals);
  res_.profile.add_count("peec.kernel_exact_pairs",
                         kern1.exact_pairs - kern0_.exact_pairs);
  res_.profile.add_count("peec.kernel_analytic_pairs",
                         kern1.analytic_pairs - kern0_.analytic_pairs);
  res_.profile.add_count("peec.kernel_far_field_pairs",
                         kern1.far_field_pairs - kern0_.far_field_pairs);
  res_.profile.add_count("peec.kernel_cluster_pairs",
                         kern1.cluster_pairs - kern0_.cluster_pairs);
  res_.profile.add_count("peec.kernel_cluster_skipped",
                         kern1.cluster_skipped - kern0_.cluster_skipped);
  // Sweep economics: always present so profile consumers (and the serve
  // STATS verb) can rely on the entries; all zero unless FlowOptions::
  // sweep_accel engaged an engine this run.
  res_.profile.add_count("sweep.full_solves", sweep_stats_.full_solves);
  res_.profile.add_count("sweep.interp_points", sweep_stats_.interp_points);
  res_.profile.add_count("sweep.surrogate_evals", sweep_stats_.surrogate_evals);
  res_.profile.add_count("sweep.escalations", sweep_stats_.escalations);
  res_.profile.max_gauge("sweep.max_residual_db", sweep_stats_.max_residual_db);
  const core::PoolStats pool1 = core::ThreadPool::global().stats();
  res_.profile.add_count("pool.threads", core::ThreadPool::global_thread_count());
  res_.profile.add_count("pool.batches", pool1.batches - pool0_.batches);
  res_.profile.add_count("pool.chunks", pool1.chunks - pool0_.chunks);
  res_.profile.add_count("pool.steals", pool1.steals - pool0_.steals);
  res_.profile.add_count("pool.serial_fallbacks",
                         pool1.serial_fallbacks - pool0_.serial_fallbacks);
  return std::move(res_);
}

FlowResult FlowEngine::run() {
  while (step()) {
  }
  return finish();
}

}  // namespace emi::flow
