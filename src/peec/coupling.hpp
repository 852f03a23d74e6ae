// Coupling extraction: self inductance, mutual inductance and coupling
// factor k = M / sqrt(L1*L2) between placed component field models, plus the
// distance/angle sweeps the design rules are derived from.
//
// Caching. Extraction is the hot path of the whole pipeline (rule
// derivation searches, per-layout coupling installation, benches), and the
// same geometry recurs constantly, so the extractor memoizes two levels:
//   * self inductance, keyed by the model's content digest (self L is
//     pose-invariant), and
//   * mutual inductance, keyed by (digest pair, canonical relative pose,
//     quadrature options). A pair translated rigidly across the board maps
//     to the same key and hits.
// The storage itself lives in peec::ExtractionCache (extraction_cache.hpp),
// a two-tier shareable structure: by default every extractor owns a private
// parentless cache (the pre-split behavior, bit-identical), but a service
// can hand several extractors one session cache backed by a shared global
// tier. Entries are keyed by *content*, not by object address, so concurrent
// extraction from a thread pool is safe and a model destroyed/reallocated at
// the same address cannot alias a stale entry. Cached mutuals are always
// *computed* in the canonical relative frame, so the returned bits are a
// pure function of the key - results do not depend on which thread, call
// site, extractor, or session populated the cache.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/core/units.hpp"
#include "src/peec/component_model.hpp"
#include "src/peec/extraction_cache.hpp"
#include "src/peec/partial_inductance.hpp"
#include "src/peec/pemd_search.hpp"

namespace emi::peec {

using units::Henry;

struct PlacedModel {
  const ComponentFieldModel* model = nullptr;
  Pose pose{};
};

// Stable identity of a field model: a 64-bit FNV-1a digest over kind,
// material parameters and conductor geometry. Copies share a digest (and so
// share cache entries - correct, extraction only reads that content);
// mutating a copy changes it.
std::uint64_t model_digest(const ComponentFieldModel& m);

struct ExtractionCacheStats {
  std::uint64_t self_hits = 0;
  std::uint64_t self_misses = 0;
  std::uint64_t mutual_hits = 0;
  std::uint64_t mutual_misses = 0;
};

class CouplingExtractor {
 public:
  // `cache` optionally injects a shared (possibly tiered) ExtractionCache -
  // null keeps a fresh private cache, the pre-split behavior. The quadrature
  // is baked into every key, so differently-configured extractors can share
  // one cache safely. The KernelOptions argument is empty and ignored (see
  // partial_inductance.hpp).
  explicit CouplingExtractor(QuadratureOptions opt = {}, KernelOptions = {},
                             std::shared_ptr<ExtractionCache> cache = nullptr)
      : opt_(opt),
        cache_(cache != nullptr ? std::move(cache)
                                : std::make_shared<ExtractionCache>()) {}

  const QuadratureOptions& options() const { return opt_; }
  const std::shared_ptr<ExtractionCache>& cache() const { return cache_; }

  // Mutual-cache capacity. Insertion past the cap evicts the
  // oldest-inserted half (values are pure functions of their keys, so
  // eviction timing only affects recomputation frequency, never values; the
  // hit/miss counters stay monotone across evictions).
  static constexpr std::size_t kMutualCacheCap = ExtractionCache::kMutualCap;

  // Effective self inductance (air-core PEEC result scaled by mu_eff).
  Henry self_inductance(const ComponentFieldModel& m) const;

  // Mutual inductance between two placed models (air-core Neumann result
  // scaled by the models' stray factors). Evaluated in the pair's canonical
  // relative frame, so the result is invariant under rigid motion of the
  // pair and symmetric in the arguments, bit-for-bit.
  Henry mutual(const PlacedModel& a, const PlacedModel& b) const;

  // Coupling factor k = M / sqrt(La * Lb). Signed: the sign indicates field
  // orientation; design rules use |k|.
  double coupling_factor(const PlacedModel& a, const PlacedModel& b) const;

  // Batched mutual extraction: `pairs` indexes into `models`. One
  // canonicalization pass, one shared-lock cache probe for the whole batch,
  // then a single flat parallel region over the *unique* canonical-pose
  // misses (duplicates within the batch count as hits and are computed
  // once), and one bulk store - instead of N^2 per-call lock round-trips.
  // Each value is bit-identical to the corresponding mutual(a, b) call.
  std::vector<Henry> mutual_batch(
      std::span<const PlacedModel> models,
      std::span<const std::pair<std::size_t, std::size_t>> pairs) const;

  // Full coupling matrix, row-major n x n: diagonal entries are effective
  // self inductances, off-diagonals mutual inductances via one
  // mutual_batch over the upper triangle (mirrored; mutual() is symmetric
  // bit-for-bit by canonicalization).
  std::vector<Henry> mutual_matrix(std::span<const PlacedModel> models) const;

  // Convenience: k with model A at the origin (rotation rot_a_deg) and model
  // B at center distance d along +x (rotation rot_b_deg).
  double coupling_at(const ComponentFieldModel& a, const ComponentFieldModel& b,
                     Millimeters center_distance, double rot_a_deg = 0.0,
                     double rot_b_deg = 0.0) const;

  struct CurvePoint {
    Millimeters distance;
    double k;
  };
  // |k| sampled over [d_min, d_max]; the Fig 5 / Fig 7 sweeps.
  std::vector<CurvePoint> coupling_vs_distance(const ComponentFieldModel& a,
                                               const ComponentFieldModel& b,
                                               Millimeters d_min, Millimeters d_max,
                                               std::size_t n_points,
                                               double rot_b_deg = 0.0) const;

  struct AnglePoint {
    double angle_deg;
    double k;
  };
  // k as model B rotates in place at fixed distance; the Fig 6 / Fig 10
  // orientation sweep, expected ~ k0 * cos(angle).
  std::vector<AnglePoint> coupling_vs_angle(const ComponentFieldModel& a,
                                            const ComponentFieldModel& b,
                                            Millimeters center_distance,
                                            std::size_t n_points) const;

  // The PEMD design rule: the smallest centre distance beyond which |k|
  // stays at or under `k_threshold` with parallel magnetic axes, resolved
  // to `tol` on the conservative side. |k(d)| is not monotone (cap-choke
  // pairs pass through a sign change into a second bump), so this is the
  // sign-aware outside-in search for the *outermost* crossing
  // (pemd_search.hpp): returns d_hi if |k(d_hi)| is above the threshold,
  // d_lo if nothing above it is found down to d_lo.
  Millimeters min_distance_for_coupling(const ComponentFieldModel& a,
                                        const ComponentFieldModel& b,
                                        double k_threshold, Millimeters d_lo,
                                        Millimeters d_hi,
                                        Millimeters tol = Millimeters{0.1}) const;

  // The same rule, steered: the search runs on `steer`'s k(d) and this
  // extractor certifies the result with one or two exact evaluations
  // (steered_outermost_crossing). No steering sample beyond the rule is
  // above the threshold; the exact k is under it at the rule and above it
  // `tol` inside. `steer` steers only when its quadrature is strictly
  // coarser than this extractor's; with a null or no coarser `steer`, or a
  // failed certificate, the distance is min_distance_for_coupling's, bit
  // for bit. Sharing one cache between the two extractors is safe: the
  // quadrature is part of every key.
  SteeredCrossing steered_min_distance(const ComponentFieldModel& a,
                                       const ComponentFieldModel& b, double k_threshold,
                                       Millimeters d_lo, Millimeters d_hi, Millimeters tol,
                                       const CouplingExtractor* steer) const;

  ExtractionCacheStats cache_stats() const;

 private:
  // A pair reduced to its canonical relative frame: everything mutual() and
  // mutual_batch() need to probe the cache and, on a miss, compute.
  struct CanonicalPair {
    MutualCacheKey key;
    const PlacedModel* first;
    const PlacedModel* second;
    Vec3 rel_pos;
    double rel_rot;
    double stray;
  };
  // `da` and `db` are the models' digests, which a caller that probes one
  // pair many times computes once.
  CanonicalPair canonicalize(const PlacedModel& a, const PlacedModel& b,
                             std::uint64_t da, std::uint64_t db) const;
  double compute_mutual_air(const CanonicalPair& c) const;
  Henry self_inductance(const ComponentFieldModel& m, std::uint64_t digest) const;
  Henry mutual(const PlacedModel& a, const PlacedModel& b, std::uint64_t da,
               std::uint64_t db) const;
  // coupling_at(a, b, d) as a curve in d, with both digests and both self
  // inductances computed once instead of per evaluation; same bits.
  CouplingCurve axis_curve(const ComponentFieldModel& a,
                           const ComponentFieldModel& b) const;
  // Self-tier cache key: model digest mixed with the quadrature options (the
  // quadrature changes computed self inductance, and the cache may be shared
  // across differently-configured extractors).
  std::uint64_t self_key(std::uint64_t model_digest) const;

  QuadratureOptions opt_;
  // Shared (possibly tiered) storage; never null. The per-extractor hit/miss
  // counters below account *this extractor's* traffic (hit = served from any
  // tier) - exactly the pre-split cache_stats() semantics - while per-tier
  // service counters live on the ExtractionCache itself.
  std::shared_ptr<ExtractionCache> cache_;
  mutable std::atomic<std::uint64_t> self_hits_{0};
  mutable std::atomic<std::uint64_t> self_misses_{0};
  mutable std::atomic<std::uint64_t> mutual_hits_{0};
  mutable std::atomic<std::uint64_t> mutual_misses_{0};
};

}  // namespace emi::peec
