// Closed-form oracle for the one pair kernel (`ctest -L oracle`).
//
// Grover's formula for two parallel filaments (mutual_parallel_offset)
// shares no code with the sampled quadrature, so it checks the production
// kernel (path_mutual, the row kernel every extractor runs) from outside:
//   * at the default quadrature (order 6 x 2 subdivisions) the kernel stays
//     inside the error bound documented on QuadratureOptions, for lateral
//     separations from 0.1 to 2 times the longer filament and axial offsets
//     from fully staggered to fully overlapping, parallel and antiparallel,
//     axis-aligned and in a general 3-D orientation;
//   * its error converges in quadrature order, the convergence check
//     spline-PEEC uses (arXiv 2207.13697): the worst error over the offset
//     sweep falls monotonically from order 2 to order 8 at every lateral
//     separation, until it reaches round-off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/peec/partial_inductance.hpp"

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
    {0.1, 2e-3}, {0.25, 1e-6}, {0.5, 2e-9}, {1.0, 5e-12}, {2.0, 5e-13}};

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
double kernel_error(double l2, double lateral, double offset, const QuadratureOptions& q,
                    const Frame& f = kAxisAligned, bool reversed = false) {
  const Vec3 o{3.0, -2.0, 1.0};  // off the origin, so positions carry round-off
  const Vec3 a2 = o + f.v * lateral + f.u * offset;
  const Vec3 b2 = a2 + f.u * l2;
  SegmentPath p1;
  SegmentPath p2;
  p1.segments = {Segment{o, o + f.u * kL1, kRadius, 1.0}};
  p2.segments = {reversed ? Segment{b2, a2, kRadius, 1.0} : Segment{a2, b2, kRadius, 1.0}};
  const double sign = reversed ? -1.0 : 1.0;
  const double ref = sign * mutual_parallel_offset(kL1, l2, lateral, offset);
  return std::fabs(path_mutual(p1, p2, q) - ref) / std::fabs(ref);
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

}  // namespace
}  // namespace emi::peec
