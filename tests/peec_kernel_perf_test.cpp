// Fast perf smoke for the pair kernel, counter-based so it is robust on
// loaded CI machines: the kernel evaluates one closed-form inner line
// integral per outer sample and segment pair, no more.
#include <gtest/gtest.h>

#include "src/peec/component_model.hpp"
#include "src/peec/partial_inductance.hpp"
#include "src/peec/sampled_path.hpp"

namespace emi::peec {
namespace {

struct KernelDelta {
  KernelStats before = kernel_stats();
  KernelStats sample() const {
    const KernelStats now = kernel_stats();
    return {now.sample_evals - before.sample_evals,
            now.exact_pairs - before.exact_pairs};
  }
};

TEST(KernelPerfSmoke, OneInnerIntegralPerOuterSampleAndPair) {
  const ComponentFieldModel ma = bobbin_coil("A");
  const ComponentFieldModel mb = bobbin_coil("B");
  const SegmentPath pa = ma.path_at({});
  const SegmentPath pb = mb.path_at(Pose{{30.0, 4.0, 0.0}, 25.0});
  for (const QuadratureOptions q : {QuadratureOptions{3, 1}, QuadratureOptions{4, 2},
                                    QuadratureOptions{6, 2}}) {
    KernelDelta delta;
    (void)path_mutual(pa, pb, q);
    const KernelStats k = delta.sample();
    ASSERT_GT(k.exact_pairs, 0u);
    EXPECT_LE(k.exact_pairs, pa.segments.size() * pb.segments.size());
    EXPECT_EQ(k.sample_evals, k.exact_pairs * q.order * q.subdivisions)
        << "order=" << q.order << " sub=" << q.subdivisions;
  }
}

}  // namespace
}  // namespace emi::peec
