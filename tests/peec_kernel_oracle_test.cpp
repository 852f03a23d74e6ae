// Oracles for the one pair kernel (`ctest -L oracle`), both sharing no code
// with src/peec/sampled_path.cpp:
//   * Grover's formula for two parallel filaments (mutual_parallel_offset).
//     At the default quadrature (order 6 x 2 subdivisions) the kernel stays
//     inside the error bound documented on QuadratureOptions, for lateral
//     separations from 0.1 to 2 times the longer filament and axial offsets
//     from fully staggered to fully overlapping, parallel and antiparallel,
//     axis-aligned and in a general 3-D orientation; its error converges in
//     quadrature order, the convergence check spline-PEEC uses (arXiv
//     2207.13697): the worst error over the offset sweep falls monotonically
//     from order 2 to order 8 at every lateral separation, until it reaches
//     round-off.
//   * A dense product Gauss-Legendre rule on both axes (order 8 x >= 32,
//     tests/support/dense_neumann.hpp) over the same guarded integrand, for
//     what Grover does not cover: oblique and crossing pairs, adjacent ring
//     facets that touch inside the radius guard, and the self-inductance of
//     every buck and boost model. Single geometries do not converge
//     monotonically (the guard's kink and near-crossings make the error
//     oscillate in sign), so the checks take the worst error over a family,
//     as the Grover sweep does over offsets.
//   * Reciprocity: the kernel is not symmetric bit for bit (outer and inner
//     roles differ), so M(a, b) and M(b, a) agree within the bounds above.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/flow/buck_converter.hpp"
#include "src/peec/partial_inductance.hpp"
#include "tests/support/dense_neumann.hpp"

namespace emi::peec {
namespace {

constexpr double kL1 = 10.0;  // mm
constexpr double kRadius = 0.05;  // thin enough that the radius guard never clamps

// Lateral separation as a multiple of the longer filament, and the error
// bound at the default quadrature documented on QuadratureOptions.
struct Lateral {
  double ratio;
  double bound;
};
constexpr Lateral kLaterals[] = {
    {0.1, 5e-4}, {0.25, 1e-6}, {0.5, 2e-9}, {1.0, 5e-12}, {2.0, 5e-14}};

// Relative errors under this are round-off, not quadrature error.
constexpr double kRoundOff = 1e-13;

// Orthonormal frame the filament pair is placed in: the filaments run along
// `u` and are separated along `v`.
struct Frame {
  Vec3 u;
  Vec3 v;
};
const Frame kAxisAligned{{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}};
const Frame kOblique{{1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0}, {2.0 / 3.0, 1.0 / 3.0, -2.0 / 3.0}};

// Relative error of the sampled kernel against Grover's closed form for
// filament 1 on [0, l1] and filament 2 on [offset, offset + l2] at
// `lateral`; `reversed` runs filament 2 the other way (dot = -1).
// The pair (filament 1, filament 2) of kernel_error, filament 1 first.
std::pair<Segment, Segment> filament_pair(double l2, double lateral, double offset,
                                          const Frame& f = kAxisAligned,
                                          bool reversed = false) {
  const Vec3 o{3.0, -2.0, 1.0};  // off the origin, so positions carry round-off
  const Vec3 a2 = o + f.v * lateral + f.u * offset;
  const Vec3 b2 = a2 + f.u * l2;
  return {Segment{o, o + f.u * kL1, kRadius, 1.0},
          reversed ? Segment{b2, a2, kRadius, 1.0} : Segment{a2, b2, kRadius, 1.0}};
}

// Mutual partial inductance of two single segments through the one pair
// kernel (s1 on the outer axis).
double segment_mutual(const Segment& s1, const Segment& s2, const QuadratureOptions& q) {
  SegmentPath p1;
  SegmentPath p2;
  p1.segments = {s1};
  p2.segments = {s2};
  return path_mutual(p1, p2, q);
}

double kernel_error(double l2, double lateral, double offset, const QuadratureOptions& q,
                    const Frame& f = kAxisAligned, bool reversed = false) {
  const auto [s1, s2] = filament_pair(l2, lateral, offset, f, reversed);
  const double sign = reversed ? -1.0 : 1.0;
  const double ref = sign * mutual_parallel_offset(kL1, l2, lateral, offset);
  return std::fabs(segment_mutual(s1, s2, q) - ref) / std::fabs(ref);
}

std::vector<double> offsets(double l2) {
  // Fully staggered on either side (no axial overlap) through full overlap.
  std::vector<double> out;
  for (double o = -(l2 + 2.0); o <= kL1 + 2.0; o += 0.5) out.push_back(o);
  return out;
}

TEST(KernelOracle, ParallelFilamentsWithinDocumentedBound) {
  const QuadratureOptions q{};
  ASSERT_EQ(q.order, 6u);
  ASSERT_EQ(q.subdivisions, 2u);
  for (const double l2 : {3.0, 7.0, 10.0}) {
    for (const Lateral& lat : kLaterals) {
      const double lateral = lat.ratio * std::max(kL1, l2);
      for (const double offset : offsets(l2)) {
        for (const Frame* frame : {&kAxisAligned, &kOblique}) {
          for (const bool reversed : {false, true}) {
            EXPECT_LT(kernel_error(l2, lateral, offset, q, *frame, reversed), lat.bound)
                << "l2 " << l2 << " lateral " << lateral << " offset " << offset
                << (frame == &kOblique ? " oblique" : "") << (reversed ? " reversed" : "");
          }
        }
      }
    }
  }
}

TEST(KernelOracle, ErrorFallsMonotonicallyWithOrder) {
  // Single geometries are not monotone: the Gauss-Legendre error changes
  // sign with the order, and a near-cancellation at one order can beat the
  // next (l2 = 10, lateral 20, offset 8.5: 3.8e-9 at order 2, 1.1e-8 at 3).
  // The worst error over the offset sweep is the kernel's error at a given
  // separation, and that falls with every added order.
  for (const std::size_t subdivisions : {1u, 2u}) {
    for (const double l2 : {3.0, 7.0, 10.0}) {
      for (const Lateral& lat : kLaterals) {
        const double lateral = lat.ratio * std::max(kL1, l2);
        std::vector<double> worst;  // by order, from order 2
        for (std::size_t order = 2; order <= 8; ++order) {
          double w = 0.0;
          for (const double offset : offsets(l2)) {
            w = std::max(w, kernel_error(l2, lateral, offset, {order, subdivisions}));
          }
          worst.push_back(w);
        }
        for (std::size_t i = 1; i < worst.size(); ++i) {
          if (worst[i - 1] <= kRoundOff) break;
          EXPECT_LT(worst[i], worst[i - 1]) << "subdivisions " << subdivisions << " l2 "
                                            << l2 << " lateral " << lateral << " order "
                                            << i + 2;
        }
        // And it converges: order 8 is 10x better than order 2, or round-off.
        EXPECT_LT(worst.back(), std::max(kRoundOff, 0.1 * worst.front()))
            << "subdivisions " << subdivisions << " l2 " << l2 << " lateral " << lateral;
      }
    }
  }
}

// Bounds at the default quadrature against the dense reference, documented
// on QuadratureOptions.
constexpr double kCrossingBound = 5e-3;
constexpr double kTouchingBound = 5e-3;
constexpr double kSelfBound = 2e-4;

using SegmentPair = std::pair<Segment, Segment>;

// Oblique and crossing pairs, closest approach 0.2 to 3 mm: x-shapes passing
// 1 mm over each other, a skew crossing that passes inside the radius guard,
// and oblique pairs before, beside and past each other.
std::vector<SegmentPair> crossing_pairs() {
  const Segment x{{0, 0, 0}, {10, 0, 0}, 0.2};
  return {{x, {{5, -5, 1}, {10, 5, 1}, 0.2}},
          {x, {{2, -4, 1}, {8, 4, 1}, 0.2}},
          {x, {{3, 2, -1}, {9, -3, 2}, 0.3}},
          {{{0, 0, 0}, {10, 2, 1}, 0.2}, {{1, 3, 0}, {12, 4, 3}, 0.3}},
          {x, {{-3, 1, 0}, {-10, 6, 0}, 0.2}},
          {x, {{12, 1, 0}, {20, 5, 0}, 0.2}}};
}

// Adjacent facets of N-gon rings of radius 5 mm: they share a vertex, so
// the outer points near it lie inside the radius guard of the other facet.
std::vector<SegmentPair> touching_facets() {
  std::vector<SegmentPair> out;
  for (const int n : {6, 12, 24}) {
    const double t = 2.0 * geom::kPi / n;
    const Vec3 v0{5.0, 0.0, 0.0};
    const Vec3 v1{5.0 * std::cos(t), 5.0 * std::sin(t), 0.0};
    const Vec3 v2{5.0 * std::cos(2 * t), 5.0 * std::sin(2 * t), 0.0};
    for (const double radius : {0.1, 0.4, 1.0}) {
      out.push_back({Segment{v0, v1, radius}, Segment{v1, v2, radius}});
    }
  }
  return out;
}

// Worst relative error of the kernel over a family, against the dense
// reference at order 8 x 64.
struct Family {
  std::vector<SegmentPair> pairs;
  std::vector<double> ref;
  explicit Family(std::vector<SegmentPair> p) : pairs(std::move(p)) {
    for (const auto& [a, b] : pairs) ref.push_back(dense::segment_mutual(a, b, 8, 64));
  }
  double worst(const QuadratureOptions& q) const {
    double w = 0.0;
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      const double m = segment_mutual(pairs[k].first, pairs[k].second, q);
      w = std::max(w, std::fabs(m - ref[k]) / std::fabs(ref[k]));
    }
    return w;
  }
};

// The family's worst error at the default quadrature is inside `bound`, and
// it converges: it falls with every added order from 2 to 8 at one
// subdivision, and with every doubling of the subdivisions from 1 to 16 at
// order 6.
void expect_family_converges(const Family& f, double bound, const char* name) {
  EXPECT_LT(f.worst({}), bound) << name;
  for (std::size_t order = 3; order <= 8; ++order) {
    EXPECT_LT(f.worst({order, 1}), f.worst({order - 1, 1})) << name << " order " << order;
  }
  for (std::size_t sub = 2; sub <= 16; sub *= 2) {
    EXPECT_LT(f.worst({6, sub}), f.worst({6, sub / 2})) << name << " subdivisions " << sub;
  }
}

TEST(KernelOracle, ObliqueAndCrossingPairsMatchDenseReference) {
  expect_family_converges(Family(crossing_pairs()), kCrossingBound, "crossing");
}

TEST(KernelOracle, TouchingRingFacetsMatchDenseReference) {
  expect_family_converges(Family(touching_facets()), kTouchingBound, "touching");
}

TEST(KernelOracle, ModelSelfInductanceMatchesDenseReference) {
  // Every distinct model path of both topologies: the coils' 60 facets
  // touch inside the guard, the capacitor and loop paths are 4-segment
  // rectangles. path_inductance's worst error over the models falls with
  // every added order from 2 to 8 at 1 and 2 subdivisions.
  std::vector<SegmentPath> paths;
  for (const flow::BuckConverter& bc :
       {flow::make_buck_converter(), flow::make_boost_converter()}) {
    for (const ComponentFieldModel& m : bc.models) paths.push_back(m.local_path);
  }
  std::vector<double> ref;
  for (const SegmentPath& p : paths) ref.push_back(dense::path_inductance(p));
  const auto worst = [&](const QuadratureOptions& q) {
    double w = 0.0;
    for (std::size_t k = 0; k < paths.size(); ++k) {
      w = std::max(w, std::fabs(path_inductance(paths[k], q) - ref[k]) / ref[k]);
    }
    return w;
  };
  EXPECT_LT(worst({}), kSelfBound);
  for (const std::size_t subdivisions : {1u, 2u}) {
    for (std::size_t order = 3; order <= 8; ++order) {
      EXPECT_LT(worst({order, subdivisions}), worst({order - 1, subdivisions}))
          << "subdivisions " << subdivisions << " order " << order;
    }
  }
}

TEST(KernelOracle, ReciprocityWithinDocumentedBound) {
  // Swapping the outer and inner roles: both orders are within the bound of
  // the reference, so they agree within twice the bound.
  const QuadratureOptions q{};
  for (const double l2 : {3.0, 7.0, 10.0}) {
    for (const Lateral& lat : kLaterals) {
      for (const double offset : offsets(l2)) {
        const auto [s1, s2] =
            filament_pair(l2, lat.ratio * std::max(kL1, l2), offset, kOblique);
        const double m12 = segment_mutual(s1, s2, q);
        EXPECT_NEAR(segment_mutual(s2, s1, q), m12, 2.0 * lat.bound * std::fabs(m12))
            << "l2 " << l2 << " lateral ratio " << lat.ratio << " offset " << offset;
      }
    }
  }
  for (const auto& [a, b] : crossing_pairs()) {
    const double mab = segment_mutual(a, b, q);
    EXPECT_NEAR(segment_mutual(b, a, q), mab, 2.0 * kCrossingBound * std::fabs(mab));
  }
  for (const auto& [a, b] : touching_facets()) {
    const double mab = segment_mutual(a, b, q);
    EXPECT_NEAR(segment_mutual(b, a, q), mab, 2.0 * kTouchingBound * std::fabs(mab));
  }
  // Whole model paths at the unfavourable buck layout: every pair's
  // couplings are far inside the bounds.
  const flow::BuckConverter bc = flow::make_buck_converter();
  const place::Layout layout = flow::layout_unfavorable(bc);
  for (const ComponentFieldModel& ma : bc.models) {
    for (const ComponentFieldModel& mb : bc.models) {
      if (&ma == &mb) continue;
      const SegmentPath pa = ma.path_at(flow::pose_of(bc, layout, ma.name));
      const SegmentPath pb = mb.path_at(flow::pose_of(bc, layout, mb.name));
      const double mab = path_mutual(pa, pb, q);
      EXPECT_NEAR(path_mutual(pb, pa, q), mab, 1e-6 * std::fabs(mab))
          << ma.name << " / " << mb.name;
    }
  }
}

}  // namespace
}  // namespace emi::peec
