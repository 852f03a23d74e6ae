// Invariant battery for the pair kernel (sampled_path.hpp): the row kernel
// reproduces the per-pair kernel bit for bit across quadrature shapes,
// serial or parallel, and path_inductance is its documented double sum. Its
// accuracy against Grover's closed form and the dense product-rule
// reference is peec_kernel_oracle_test's job.
#include "src/peec/sampled_path.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/core/thread_pool.hpp"
#include "src/peec/component_model.hpp"
#include "src/peec/partial_inductance.hpp"
#include "tests/support/dense_neumann.hpp"

namespace emi::peec {
namespace {

Segment make_segment(const Vec3& a, const Vec3& b, double radius = 0.25,
                     double weight = 1.0) {
  return Segment{a, b, radius, weight};
}

TEST(SampledKernel, ExactConvergesToDenseReferenceAcrossGeometry) {
  // Distance x angle x lateral offset: the per-pair kernel at the default
  // quadrature is within 5e-4 of the dense product rule (order 8 x 32 on
  // both axes) - the closest pairs overlap at a lateral 0.1x their length,
  // Grover's worst case - and the finest outer sampling (8 x 8) within 1e-10.
  for (double dist : {3.0, 8.0, 20.0, 60.0}) {
    for (double ang_deg : {0.0, 15.0, 45.0, 75.0}) {
      for (double off : {0.0, 4.0}) {
        const double c = std::cos(ang_deg * geom::kPi / 180.0);
        const double s = std::sin(ang_deg * geom::kPi / 180.0);
        const Segment s1 = make_segment({0, 0, 0}, {10, 0, 0}, 0.2, 1.0);
        const Segment s2 = make_segment({dist, off, 1.0},
                                        {dist + 12 * c, off + 12 * s, 1.0}, 0.3, 0.8);
        const double ref = dense::segment_mutual(s1, s2);
        SegmentPath p1, p2;
        p1.segments = {s1};
        p2.segments = {s2};
        const SampledPath b = sample_path(p2);
        EXPECT_NEAR(sampled_mutual_exact(sample_path(p1), 0, b, 0), ref,
                    5e-4 * std::fabs(ref))
            << "dist=" << dist << " ang=" << ang_deg << " off=" << off;
        EXPECT_NEAR(sampled_mutual_exact(sample_path(p1, {8, 8}), 0, b, 0), ref,
                    1e-10 * std::fabs(ref))
            << "dist=" << dist << " ang=" << ang_deg << " off=" << off;
      }
    }
  }
}

TEST(SampledKernel, RowKernelMatchesPerPairSumBitwise) {
  const ComponentFieldModel ma = bobbin_coil("A");
  const ComponentFieldModel mb = bobbin_coil("B");
  const SegmentPath pa = ma.path_at({});
  const SegmentPath pb = mb.path_at(Pose{{30.0, 4.0, 0.0}, 25.0});
  // The coarse 3 x 1, the default and a few other shapes: the row kernel's
  // elementwise pass and scalar fix-up give every pair the bits of
  // sampled_mutual_exact, folded in row order.
  for (const QuadratureOptions q : {QuadratureOptions{2, 2}, QuadratureOptions{3, 1},
                                    QuadratureOptions{4, 2}, QuadratureOptions{6, 2}}) {
    const SampledPath a = sample_path(pa, q);
    const SampledPath b = sample_path(pb, q);
    double ref = 0.0;
    for (std::size_t i = 0; i < a.segment_count(); ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < b.segment_count(); ++j) {
        row += a.wgt[i] * b.wgt[j] * sampled_mutual_exact(a, i, b, j);
      }
      ref += row;
    }
    EXPECT_EQ(ref, path_mutual(pa, pb, q)) << "order=" << q.order << " sub=" << q.subdivisions;
  }
}

TEST(SampledKernel, SerialAndParallelSchedulesAgreeBitwise) {
  const ComponentFieldModel ma = bobbin_coil("A");
  const ComponentFieldModel mb = bobbin_coil("B");
  const SegmentPath pa = ma.path_at({});
  const SegmentPath pb = mb.path_at(Pose{{25.0, -3.0, 0.0}, 70.0});
  const QuadratureOptions q{4, 2};
  const double parallel = path_mutual(pa, pb, q);
  double serial;
  {
    core::ScopedSerialFallback fallback;
    serial = path_mutual(pa, pb, q);
  }
  EXPECT_EQ(parallel, serial);
}

TEST(SampledKernel, PathInductanceUnchangedBySampling) {
  // path_inductance is the closed-form self terms plus twice the per-pair
  // kernel's upper triangle, term by term (adjacent turns of the coil meet
  // inside the radius guard, so the guarded form is exercised too).
  const ComponentFieldModel m = bobbin_coil("L");
  const SegmentPath p = m.path_at({});
  const QuadratureOptions q{4, 2};
  const SampledPath sp = sample_path(p, q);
  double ref = 0.0;
  const auto& segs = p.segments;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    double row = segs[i].weight * segs[i].weight * self_inductance(segs[i]);
    for (std::size_t j = i + 1; j < segs.size(); ++j) {
      row += 2.0 * segs[i].weight * segs[j].weight * sampled_mutual_exact(sp, i, sp, j);
    }
    ref += row;
  }
  EXPECT_EQ(ref, path_inductance(p, q));
}

TEST(SampledKernel, ZeroLengthAndPerpendicularSegments) {
  const QuadratureOptions q{4, 2};
  // Perpendicular pair: skipped, exactly zero in either role.
  const Segment s1 = make_segment({0, 0, 0}, {10, 0, 0});
  const Segment s2 = make_segment({5, 5, 0}, {5, 15, 0});
  SegmentPath p1, p2;
  p1.segments = {s1};
  p2.segments = {s2};
  SampledPath a = sample_path(p1, q);
  SampledPath b = sample_path(p2, q);
  EXPECT_EQ(0.0, sampled_mutual_exact(a, 0, b, 0));
  EXPECT_EQ(0.0, sampled_mutual_exact(b, 0, a, 0));

  // A zero-length segment contributes exactly zero.
  const Segment zero = make_segment({3, 3, 3}, {3, 3, 3});
  SegmentPath pz;
  pz.segments = {zero};
  const SampledPath z = sample_path(pz, q);
  EXPECT_EQ(0.0, sampled_mutual_exact(z, 0, b, 0));
  EXPECT_EQ(0.0, sampled_mutual_exact(b, 0, z, 0));
}

TEST(SampledKernel, SampledPathLayoutInvariants) {
  const ComponentFieldModel m = bobbin_coil("L");
  const SegmentPath p = m.path_at(Pose{{12.0, -5.0, 0.0}, 40.0});
  const QuadratureOptions q{6, 2};
  const SampledPath sp = sample_path(p, q);
  ASSERT_EQ(sp.segment_count(), p.segments.size());
  EXPECT_EQ(sp.order, q.order);
  EXPECT_EQ(sp.n_sub, q.subdivisions);
  EXPECT_EQ(sp.samples_per_segment(), q.order * q.subdivisions);
  EXPECT_EQ(sp.px.size(), sp.segment_count() * sp.samples_per_segment());
  EXPECT_EQ(sp.w.size(), sp.segment_count() * sp.samples_per_segment());
  for (std::size_t i = 0; i < sp.segment_count(); ++i) {
    const Segment& s = p.segments[i];
    EXPECT_EQ(sp.wgt[i], s.weight);
    EXPECT_EQ(sp.ax[i], s.a.x);
    EXPECT_EQ(sp.ay[i], s.a.y);
    EXPECT_EQ(sp.az[i], s.a.z);
    EXPECT_EQ(sp.len[i], s.length());
    // The outer weights of a segment integrate a constant exactly.
    double wsum = 0.0;
    for (std::size_t k = 0; k < sp.samples_per_segment(); ++k) {
      wsum += sp.w[i * sp.samples_per_segment() + k];
    }
    EXPECT_NEAR(wsum, s.length(), 1e-12 * s.length());
  }
}

}  // namespace
}  // namespace emi::peec
