#include "src/peec/partial_inductance.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace emi::peec {
namespace {

// Mutual partial inductance of two single segments through the one pair
// kernel (s1 on the outer axis).
double segment_mutual(const Segment& s1, const Segment& s2,
                      const QuadratureOptions& q = {}) {
  SegmentPath p1;
  SegmentPath p2;
  p1.segments = {s1};
  p2.segments = {s2};
  return path_mutual(p1, p2, q);
}

// Rosa: a 100 mm straight round wire of 0.5 mm radius has
// L = mu0*l/(2pi) * (ln(2l/r) - 0.75) = 104.8 nH -- the ~1 nH/mm rule.
TEST(SelfInductance, WireMatchesRosaFormula) {
  const double l = self_inductance_wire(100.0, 0.5);
  const double expected = 2e-7 * 0.1 * (std::log(2.0 * 100.0 / 0.5) - 0.75);
  EXPECT_NEAR(l, expected, 1e-15);
  EXPECT_NEAR(l * 1e9, 104.8, 0.5);
}

TEST(SelfInductance, GrowsSuperlinearlyWithLength) {
  const double l1 = self_inductance_wire(50.0, 0.5);
  const double l2 = self_inductance_wire(100.0, 0.5);
  EXPECT_GT(l2, 2.0 * l1);  // ln term adds to the linear growth
}

TEST(SelfInductance, ShrinksWithRadius) {
  EXPECT_GT(self_inductance_wire(100.0, 0.2), self_inductance_wire(100.0, 1.0));
}

TEST(SelfInductance, DegenerateStubbyWireClampsToZero) {
  EXPECT_DOUBLE_EQ(self_inductance_wire(1.0, 0.6), 0.0);
  EXPECT_THROW(self_inductance_wire(-1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(self_inductance_wire(10.0, 0.0), std::invalid_argument);
}

TEST(SelfInductance, StubbyWireBoundaryIsExactlyDiameter) {
  // The clamp criterion is l <= 2r (shorter than its own diameter): zero at
  // and below the boundary, the positive closed form just above it.
  EXPECT_DOUBLE_EQ(self_inductance_wire(1.0, 0.5), 0.0);     // l == 2r
  EXPECT_DOUBLE_EQ(self_inductance_wire(0.999, 0.5), 0.0);   // l < 2r
  const double just_above = self_inductance_wire(1.0 + 1e-9, 0.5);
  EXPECT_GT(just_above, 0.0);
  const double expected = 2e-7 * (1.0 + 1e-9) * 1e-3 *
                          (std::log(2.0 * (1.0 + 1e-9) / 0.5) - 0.75);
  EXPECT_NEAR(just_above, expected, std::fabs(expected) * 1e-12);
}

// Ruehli bar formula: 10 mm x 1 mm x 0.035 mm PCB trace ~ 8.1 nH.
TEST(SelfInductance, BarMatchesRuehliFormula) {
  const double l = self_inductance_bar(10.0, 1.0, 0.035);
  const double wt = 1.035e-3;
  const double ll = 10e-3;
  const double expected =
      2e-7 * ll * (std::log(2.0 * ll / wt) + 0.5 + 0.2235 * wt / ll);
  EXPECT_NEAR(l, expected, 1e-15);
  EXPECT_GT(l * 1e9, 5.0);
  EXPECT_LT(l * 1e9, 12.0);
}

// Grover's closed form for equal parallel filaments.
TEST(MutualParallel, KnownValue) {
  // l = 100 mm, d = 10 mm: M = 2e-7*0.1*(ln(10+sqrt(101)) - sqrt(1.01) + 0.1)
  const double m = mutual_parallel_filaments(100.0, 10.0);
  const double u = 10.0;
  const double expected =
      2e-7 * 0.1 *
      (std::log(u + std::sqrt(1 + u * u)) - std::sqrt(1 + 1 / (u * u)) + 1 / u);
  EXPECT_NEAR(m, expected, 1e-18);
}

TEST(MutualParallel, DecreasesWithDistance) {
  double prev = mutual_parallel_filaments(50.0, 1.0);
  for (double d : {2.0, 5.0, 10.0, 20.0, 40.0}) {
    const double m = mutual_parallel_filaments(50.0, d);
    EXPECT_LT(m, prev);
    prev = m;
  }
}

// The pair kernel must agree with the closed form for the geometry
// the closed form covers: equal, parallel, directly facing filaments.
class NeumannVsGrover : public ::testing::TestWithParam<double> {};

TEST_P(NeumannVsGrover, Agree) {
  const double d = GetParam();
  const double len = 50.0;
  const Segment s1{{0, 0, 0}, {len, 0, 0}, 0.1};
  const Segment s2{{0, d, 0}, {len, d, 0}, 0.1};
  const double analytic = mutual_parallel_filaments(len, d);
  const double numeric = segment_mutual(s1, s2, {6, 4});
  EXPECT_NEAR(numeric / analytic, 1.0, 0.02) << "d = " << d;
}

INSTANTIATE_TEST_SUITE_P(Distances, NeumannVsGrover,
                         ::testing::Values(2.0, 5.0, 10.0, 20.0, 40.0));

TEST(Neumann, PerpendicularSegmentsDoNotCouple) {
  const Segment s1{{0, 0, 0}, {10, 0, 0}, 0.1};
  const Segment s2{{5, 5, 0}, {5, 15, 0}, 0.1};
  EXPECT_DOUBLE_EQ(segment_mutual(s1, s2), 0.0);
}

TEST(Neumann, Reciprocity) {
  const Segment s1{{0, 0, 0}, {20, 0, 0}, 0.2};
  const Segment s2{{3, 7, 2}, {25, 9, 5}, 0.3};
  // Outer and inner roles differ, so the two orders agree within the
  // quadrature error (~1e-9 relative for this pair), not bit for bit.
  const double m12 = segment_mutual(s1, s2);
  EXPECT_NEAR(m12, segment_mutual(s2, s1), 1e-8 * std::fabs(m12));
}

TEST(Neumann, AntiparallelIsNegative) {
  const Segment s1{{0, 0, 0}, {20, 0, 0}, 0.2};
  const Segment s2{{20, 5, 0}, {0, 5, 0}, 0.2};
  EXPECT_LT(segment_mutual(s1, s2), 0.0);
}

TEST(Neumann, ZeroLengthSegment) {
  const Segment s1{{0, 0, 0}, {0, 0, 0}, 0.2};
  const Segment s2{{0, 5, 0}, {10, 5, 0}, 0.2};
  EXPECT_DOUBLE_EQ(segment_mutual(s1, s2), 0.0);
  EXPECT_DOUBLE_EQ(segment_mutual(s2, s1), 0.0);
}

// Loop inductance of a rectangular loop: the classic two-wire result.
// For a w x h loop the double sum over 4 sides with signs must be positive
// and smaller than the sum of the partial self terms.
TEST(PathInductance, RectangularLoopBounds) {
  SegmentPath loop;
  const double w = 50.0, h = 20.0, r = 0.5;
  loop.segments = {
      {{0, 0, 0}, {w, 0, 0}, r},
      {{w, 0, 0}, {w, h, 0}, r},
      {{w, h, 0}, {0, h, 0}, r},
      {{0, h, 0}, {0, 0, 0}, r},
  };
  const double l = path_inductance(loop);
  double self_sum = 0.0;
  for (const auto& s : loop.segments) self_sum += self_inductance(s);
  EXPECT_GT(l, 0.0);
  EXPECT_LT(l, self_sum);  // opposing sides subtract flux
  // Ballpark: a 50 x 20 mm loop of 0.5 mm wire is on the order of 100 nH.
  EXPECT_GT(l * 1e9, 50.0);
  EXPECT_LT(l * 1e9, 200.0);
}

TEST(PathInductance, WeightActsAsTurns) {
  SegmentPath one;
  one.segments = {{{0, 0, 0}, {30, 0, 0}, 0.4, 1.0}};
  SegmentPath two = one;
  two.segments[0].weight = 2.0;
  // N turns modelled as weight scale L by N^2.
  EXPECT_NEAR(path_inductance(two) / path_inductance(one), 4.0, 1e-9);
}

TEST(PathMutual, ReciprocityAndScaling) {
  SegmentPath a, b;
  a.segments = {{{0, 0, 0}, {30, 0, 0}, 0.4}};
  b.segments = {{{0, 8, 0}, {30, 8, 0}, 0.4}};
  EXPECT_NEAR(path_mutual(a, b), path_mutual(b, a), 1e-18);
  SegmentPath b2 = b;
  b2.segments[0].weight = 3.0;
  EXPECT_NEAR(path_mutual(a, b2) / path_mutual(a, b), 3.0, 1e-9);
}

// Quadrature convergence: higher order / finer subdivision changes the
// answer by less and less (the ablation bench quantifies this).
TEST(Quadrature, ConvergesWithOrder) {
  const Segment s1{{0, 0, 0}, {40, 0, 0}, 0.3};
  const Segment s2{{10, 6, 3}, {50, 8, 3}, 0.3};
  const double coarse = segment_mutual(s1, s2, {2, 1});
  const double mid = segment_mutual(s1, s2, {4, 2});
  const double fine = segment_mutual(s1, s2, {8, 4});
  EXPECT_LT(std::fabs(fine - mid), std::fabs(fine - coarse) + 1e-21);
  EXPECT_NEAR(mid / fine, 1.0, 0.01);
}

}  // namespace
}  // namespace emi::peec
