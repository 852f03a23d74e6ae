#include "src/peec/coupling.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "src/core/deadline.hpp"
#include "src/core/fault_injection.hpp"
#include "src/core/parallel.hpp"
#include "src/peec/cluster_tree.hpp"

namespace emi::peec {

namespace {

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::uint64_t fnv1a(std::uint64_t h, double v) {
  return fnv1a(h, std::bit_cast<std::uint64_t>(v));
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

}  // namespace

std::uint64_t model_digest(const ComponentFieldModel& m) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, static_cast<std::uint64_t>(m.kind));
  h = fnv1a(h, m.mu_eff);
  h = fnv1a(h, m.stray_scale);
  h = fnv1a(h, m.local_axis.x);
  h = fnv1a(h, m.local_axis.y);
  h = fnv1a(h, m.local_axis.z);
  h = fnv1a(h, static_cast<std::uint64_t>(m.local_path.segments.size()));
  for (const Segment& s : m.local_path.segments) {
    h = fnv1a(h, s.a.x);
    h = fnv1a(h, s.a.y);
    h = fnv1a(h, s.a.z);
    h = fnv1a(h, s.b.x);
    h = fnv1a(h, s.b.y);
    h = fnv1a(h, s.b.z);
    h = fnv1a(h, s.radius);
    h = fnv1a(h, s.weight);
  }
  return h;
}

std::uint64_t CouplingExtractor::self_key(std::uint64_t digest) const {
  // Bake the quadrature into the map key (shared caches serve extractors
  // with different options); the fault-injection key below intentionally
  // stays the bare digest so injected-miss patterns match older builds.
  return fnv1a(digest, (static_cast<std::uint64_t>(opt_.order) << 32) |
                           static_cast<std::uint64_t>(opt_.subdivisions));
}

Henry CouplingExtractor::self_inductance(const ComponentFieldModel& m) const {
  return self_inductance(m, model_digest(m));
}

Henry CouplingExtractor::self_inductance(const ComponentFieldModel& m,
                                         std::uint64_t id) const {
  // Per-pair cooperative stop probe: once the owning stage's CancelScope
  // reports a stop, skip the quadrature and return the zero sentinel without
  // touching the cache. The stage discards all results on a stop, so the
  // sentinel never reaches a caller that keeps them.
  if (!core::CancelScope::poll()) return Henry{0.0};
  // Injected cache miss: recompute instead of returning the memoized value.
  // Entries are pure functions of the key, so this perturbs timing and hit
  // counters but never the returned inductance - exactly what the cache's
  // correctness contract promises.
  const bool forced_miss =
      core::fault::should_fire(core::FaultSite::kCache, core::fault::mix(0, id));
  if (!forced_miss) {
    if (const std::optional<double> v = cache_->lookup_self(self_key(id))) {
      self_hits_.fetch_add(1, std::memory_order_relaxed);
      return Henry{*v};
    }
  }
  self_misses_.fetch_add(1, std::memory_order_relaxed);
  const double l_air = path_inductance(m.local_path, opt_);
  const double l = m.mu_eff * l_air;
  // A stop raised mid-quadrature truncates parallel chunks, so the sum may
  // be partial: re-poll before the store. A torn value must never reach the
  // shared cache - it outlives this stopped stage and would poison a later
  // attempt's bit-identical replay.
  if (!core::CancelScope::poll()) return Henry{0.0};
  cache_->store_self(self_key(id), l);
  return Henry{l};
}

CouplingExtractor::CanonicalPair CouplingExtractor::canonicalize(
    const PlacedModel& a, const PlacedModel& b, std::uint64_t da,
    std::uint64_t db) const {
  // Canonical pair order (smaller digest first) and canonical relative pose:
  // second model expressed in the first model's frame. Rigid translations of
  // the pair - the placer's bread and butter - collapse to one key.
  // Identical models (equal digests) are common - the paper's X-cap pair -
  // so break the tie on pose, keeping mutual(a,b) and mutual(b,a) on one key.
  const auto pose_before = [](const Pose& p, const Pose& q) {
    if (p.position.x != q.position.x) return p.position.x < q.position.x;
    if (p.position.y != q.position.y) return p.position.y < q.position.y;
    if (p.position.z != q.position.z) return p.position.z < q.position.z;
    return p.rot_deg < q.rot_deg;
  };
  CanonicalPair c;
  c.first = &a;
  c.second = &b;
  std::uint64_t dlo = da, dhi = db;
  if (db < da || (da == db && pose_before(b.pose, a.pose))) {
    c.first = &b;
    c.second = &a;
    dlo = db;
    dhi = da;
  }
  c.rel_rot =
      geom::normalize_deg(c.second->pose.rot_deg - c.first->pose.rot_deg);
  c.rel_pos =
      geom::rotate_z(c.second->pose.position - c.first->pose.position,
                     geom::deg_to_rad(-c.first->pose.rot_deg));
  c.stray = a.model->stray_scale * b.model->stray_scale;
  // Clustering changes computed bits, so its whole configuration joins the
  // key: a flag bit plus a digest of (theta, leaf size). Both stay zero with
  // clustering off, keeping default-extractor keys identical to older builds.
  std::uint64_t kern_cluster = 0;
  if (kernel_.cluster) {
    kern_cluster = fnv1a(kFnvOffset, kernel_.cluster_theta);
    kern_cluster = fnv1a(
        kern_cluster, static_cast<std::uint64_t>(kernel_.cluster_leaf_segments));
  }
  c.key = MutualCacheKey{dlo,
                         dhi,
                         std::bit_cast<std::uint64_t>(c.rel_pos.x),
                         std::bit_cast<std::uint64_t>(c.rel_pos.y),
                         std::bit_cast<std::uint64_t>(c.rel_pos.z),
                         std::bit_cast<std::uint64_t>(c.rel_rot),
                         (static_cast<std::uint64_t>(opt_.order) << 32) |
                             static_cast<std::uint64_t>(opt_.subdivisions),
                         (kernel_.analytic_parallel ? 1ull : 0ull) |
                             (kernel_.far_field ? 2ull : 0ull) |
                             (kernel_.cluster ? 4ull : 0ull),
                         std::bit_cast<std::uint64_t>(kernel_.far_field_ratio),
                         kern_cluster};
  return c;
}

double CouplingExtractor::compute_mutual_air(const CanonicalPair& c) const {
  // Compute in the canonical frame so the stored value is a pure function of
  // the key: a concurrent duplicate computation lands on identical bits.
  const SegmentPath pf = c.first->model->path_at(Pose{});
  const SegmentPath ps = c.second->model->path_at(Pose{c.rel_pos, c.rel_rot});
  // path_mutual_clustered is path_mutual when kernel_.cluster is off (same
  // bits), so one dispatch point serves both modes.
  return path_mutual_clustered(pf, ps, opt_, kernel_);
}

Henry CouplingExtractor::mutual(const PlacedModel& a, const PlacedModel& b) const {
  if (a.model == nullptr || b.model == nullptr) {
    throw std::invalid_argument("CouplingExtractor::mutual: null model");
  }
  return mutual(a, b, model_digest(*a.model), model_digest(*b.model));
}

Henry CouplingExtractor::mutual(const PlacedModel& a, const PlacedModel& b,
                                std::uint64_t da, std::uint64_t db) const {
  // Same cooperative stop contract as self_inductance: sentinel out, cache
  // untouched, results discarded by the stopped stage.
  if (!core::CancelScope::poll()) return Henry{0.0};
  const CanonicalPair c = canonicalize(a, b, da, db);
  const bool forced_miss = core::fault::should_fire(
      core::FaultSite::kCache, core::fault::mix(1, MutualCacheKeyHash{}(c.key)));
  if (!forced_miss) {
    if (const std::optional<double> v = cache_->lookup_mutual(c.key)) {
      mutual_hits_.fetch_add(1, std::memory_order_relaxed);
      return Henry{c.stray * *v};
    }
  }
  mutual_misses_.fetch_add(1, std::memory_order_relaxed);
  const double m_air = compute_mutual_air(c);
  // Same torn-value guard as self_inductance: a stop that lands inside the
  // quadrature's parallel region leaves a partial sum, which must not be
  // memoized under the true key.
  if (!core::CancelScope::poll()) return Henry{0.0};
  cache_->store_mutual(c.key, m_air);
  return Henry{c.stray * m_air};
}

std::vector<Henry> CouplingExtractor::mutual_batch(
    std::span<const PlacedModel> models,
    std::span<const std::pair<std::size_t, std::size_t>> pairs) const {
  std::vector<Henry> out(pairs.size(), Henry{0.0});
  if (pairs.empty()) return out;
  for (const auto& [ia, ib] : pairs) {
    if (ia >= models.size() || ib >= models.size()) {
      throw std::invalid_argument("mutual_batch: pair index out of range");
    }
    if (models[ia].model == nullptr || models[ib].model == nullptr) {
      throw std::invalid_argument("mutual_batch: null model");
    }
  }
  if (!core::CancelScope::poll()) return out;  // sentinel zeros, cache untouched

  // Canonicalize every pair, then collapse duplicates: jobs holds one entry
  // per distinct canonical key, slot[p] maps each input pair to its job.
  struct Job {
    CanonicalPair c;
    double m_air = 0.0;
    bool computed = false;  // false for cached hits and cancelled jobs
    bool cached = false;
  };
  std::vector<Job> jobs;
  jobs.reserve(pairs.size());
  std::unordered_map<MutualCacheKey, std::size_t, MutualCacheKeyHash> job_of;
  job_of.reserve(pairs.size());
  std::vector<std::size_t> slot(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const PlacedModel& a = models[pairs[p].first];
    const PlacedModel& b = models[pairs[p].second];
    CanonicalPair c = canonicalize(a, b, model_digest(*a.model), model_digest(*b.model));
    const auto [it, inserted] = job_of.emplace(c.key, jobs.size());
    if (inserted) jobs.push_back(Job{c, 0.0, false, false});
    slot[p] = it->second;
    // A duplicate of an earlier batch entry is served by that entry's
    // computation, exactly like a second sequential mutual() call would be
    // served by the cache: count it as a hit.
    if (!inserted) mutual_hits_.fetch_add(1, std::memory_order_relaxed);
  }

  // One batched tier probe for the unique keys. Forced-miss jobs are masked
  // out by pre-setting their found flag, so no tier serves (or counts) them -
  // the same "skip the probe entirely" behavior as the per-call path.
  std::vector<MutualCacheKey> keys(jobs.size());
  std::vector<double> vals(jobs.size(), 0.0);
  std::vector<char> found(jobs.size(), 0);
  std::vector<char> forced(jobs.size(), 0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    keys[j] = jobs[j].c.key;
    if (core::fault::should_fire(
            core::FaultSite::kCache,
            core::fault::mix(1, MutualCacheKeyHash{}(keys[j])))) {
      forced[j] = 1;
      found[j] = 1;
    }
  }
  cache_->lookup_mutual_batch(keys, vals, found);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (found[j] && !forced[j]) {
      jobs[j].m_air = vals[j];
      jobs[j].cached = true;
    }
  }

  // One flat parallel region over the unique misses. Each job writes only
  // its own slot; values are pure functions of the canonical key, so the
  // schedule cannot affect results.
  std::vector<std::size_t> miss;
  miss.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].cached) {
      mutual_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      mutual_misses_.fetch_add(1, std::memory_order_relaxed);
      miss.push_back(j);
    }
  }
  core::parallel_for(
      0, miss.size(),
      [&](std::size_t k) {
        Job& job = jobs[miss[k]];
        if (!core::CancelScope::poll()) return;  // leave sentinel, skip store
        job.m_air = compute_mutual_air(job.c);
        // Re-poll after the compute: a stop that landed mid-quadrature (on
        // the lane that carries the scope) truncated the inner parallel
        // region, so the value is torn and must not reach the bulk store.
        job.computed = core::CancelScope::poll();
      },
      1);

  // One bulk store of everything actually computed.
  std::vector<MutualCacheKey> store_keys;
  std::vector<double> store_vals;
  store_keys.reserve(miss.size());
  store_vals.reserve(miss.size());
  for (const std::size_t j : miss) {
    if (jobs[j].computed) {
      store_keys.push_back(jobs[j].c.key);
      store_vals.push_back(jobs[j].m_air);
    }
  }
  if (!store_keys.empty()) cache_->store_mutual_batch(store_keys, store_vals);

  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const Job& job = jobs[slot[p]];
    out[p] = Henry{job.c.stray * job.m_air};
  }
  return out;
}

std::vector<Henry> CouplingExtractor::mutual_matrix(
    std::span<const PlacedModel> models) const {
  const std::size_t n = models.size();
  std::vector<Henry> m(n * n, Henry{0.0});
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  const std::vector<Henry> off = mutual_batch(models, pairs);
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    m[pairs[p].first * n + pairs[p].second] = off[p];
    m[pairs[p].second * n + pairs[p].first] = off[p];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (models[i].model == nullptr) {
      throw std::invalid_argument("mutual_matrix: null model");
    }
    m[i * n + i] = self_inductance(*models[i].model);
  }
  return m;
}

std::vector<Henry> CouplingExtractor::mutual_matrix_clustered(
    std::span<const PlacedModel> models) const {
  // Clustering engages inside compute_mutual_air whenever the extractor's
  // KernelOptions ask for it, so the matrix build itself is shared: same
  // canonicalization, batching, caching and parallel schedule. The separate
  // entry point exists to make call sites that tolerate the clustered error
  // bound explicit (and future-proof against matrix-level acceleration);
  // with clustering off it is mutual_matrix, bit for bit.
  return mutual_matrix(models);
}

double CouplingExtractor::coupling_factor(const PlacedModel& a,
                                          const PlacedModel& b) const {
  const Henry la = self_inductance(*a.model);
  const Henry lb = self_inductance(*b.model);
  if (la.raw() <= 0.0 || lb.raw() <= 0.0) return 0.0;
  // M / sqrt(La * Lb) is dimensionless; the quantity algebra checks it.
  return mutual(a, b) / units::sqrt(la * lb);
}

double CouplingExtractor::coupling_at(const ComponentFieldModel& a,
                                      const ComponentFieldModel& b,
                                      Millimeters center_distance, double rot_a_deg,
                                      double rot_b_deg) const {
  const PlacedModel pa{&a, Pose{{0.0, 0.0, 0.0}, rot_a_deg}};
  const PlacedModel pb{&b, Pose{{center_distance.raw(), 0.0, 0.0}, rot_b_deg}};
  return coupling_factor(pa, pb);
}

std::vector<CouplingExtractor::CurvePoint> CouplingExtractor::coupling_vs_distance(
    const ComponentFieldModel& a, const ComponentFieldModel& b, Millimeters d_min,
    Millimeters d_max, std::size_t n_points, double rot_b_deg) const {
  if (n_points < 2 || d_max <= d_min) {
    throw std::invalid_argument("coupling_vs_distance: bad sweep range");
  }
  // One batch for the whole sweep: self terms are shared, the mutual points
  // extract in a single parallel region. k values match the per-point
  // coupling_at() formula bit for bit.
  const Henry la = self_inductance(a);
  const Henry lb = self_inductance(b);
  std::vector<PlacedModel> models;
  models.reserve(n_points + 1);
  models.push_back({&a, Pose{{0.0, 0.0, 0.0}, 0.0}});
  std::vector<Millimeters> dist;
  dist.reserve(n_points);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    const Millimeters d = d_min + (d_max - d_min) * (static_cast<double>(i) /
                                                     static_cast<double>(n_points - 1));
    dist.push_back(d);
    models.push_back({&b, Pose{{d.raw(), 0.0, 0.0}, rot_b_deg}});
    pairs.emplace_back(0, models.size() - 1);
  }
  const std::vector<Henry> ms = mutual_batch(models, pairs);
  std::vector<CurvePoint> out;
  out.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    const double k = (la.raw() <= 0.0 || lb.raw() <= 0.0)
                         ? 0.0
                         : ms[i] / units::sqrt(la * lb);
    out.push_back({dist[i], std::fabs(k)});
  }
  return out;
}

std::vector<CouplingExtractor::AnglePoint> CouplingExtractor::coupling_vs_angle(
    const ComponentFieldModel& a, const ComponentFieldModel& b,
    Millimeters center_distance, std::size_t n_points) const {
  if (n_points < 2) throw std::invalid_argument("coupling_vs_angle: need points");
  const Henry la = self_inductance(a);
  const Henry lb = self_inductance(b);
  std::vector<PlacedModel> models;
  models.reserve(n_points + 1);
  models.push_back({&a, Pose{{0.0, 0.0, 0.0}, 0.0}});
  std::vector<double> angles;
  angles.reserve(n_points);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    const double ang = 90.0 * static_cast<double>(i) / static_cast<double>(n_points - 1);
    angles.push_back(ang);
    models.push_back({&b, Pose{{center_distance.raw(), 0.0, 0.0}, ang}});
    pairs.emplace_back(0, models.size() - 1);
  }
  const std::vector<Henry> ms = mutual_batch(models, pairs);
  std::vector<AnglePoint> out;
  out.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    const double k = (la.raw() <= 0.0 || lb.raw() <= 0.0)
                         ? 0.0
                         : ms[i] / units::sqrt(la * lb);
    out.push_back({angles[i], k});
  }
  return out;
}

CouplingCurve CouplingExtractor::axis_curve(const ComponentFieldModel& a,
                                            const ComponentFieldModel& b) const {
  const std::uint64_t da = model_digest(a);
  const std::uint64_t db = model_digest(b);
  const Henry la = self_inductance(a, da);
  const Henry lb = self_inductance(b, db);
  return [this, &a, &b, da, db, la, lb](Millimeters d) -> double {
    if (la.raw() <= 0.0 || lb.raw() <= 0.0) return 0.0;
    const PlacedModel pa{&a, Pose{{0.0, 0.0, 0.0}, 0.0}};
    const PlacedModel pb{&b, Pose{{d.raw(), 0.0, 0.0}, 0.0}};
    return mutual(pa, pb, da, db) / units::sqrt(la * lb);
  };
}

Millimeters CouplingExtractor::min_distance_for_coupling(
    const ComponentFieldModel& a, const ComponentFieldModel& b, double k_threshold,
    Millimeters d_lo, Millimeters d_hi, Millimeters tol) const {
  return steered_min_distance(a, b, k_threshold, d_lo, d_hi, tol, nullptr).distance;
}

SteeredCrossing CouplingExtractor::steered_min_distance(
    const ComponentFieldModel& a, const ComponentFieldModel& b, double k_threshold,
    Millimeters d_lo, Millimeters d_hi, Millimeters tol,
    const CouplingExtractor* steer) const {
  // Steering and certifying samples are cached pure functions of their
  // keys, so the result, fallback or not, is lane- and executor-invariant.
  const bool steers = steer != nullptr && strictly_coarser(steer->options(), opt_);
  return steered_outermost_crossing(steers ? steer->axis_curve(a, b) : CouplingCurve{},
                                    axis_curve(a, b), k_threshold, d_lo, d_hi, tol);
}

ExtractionCacheStats CouplingExtractor::cache_stats() const {
  ExtractionCacheStats s;
  s.self_hits = self_hits_.load(std::memory_order_relaxed);
  s.self_misses = self_misses_.load(std::memory_order_relaxed);
  s.mutual_hits = mutual_hits_.load(std::memory_order_relaxed);
  s.mutual_misses = mutual_misses_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace emi::peec
