// Fast perf smoke for the sampled kernel, counter-based so it is robust on
// loaded CI machines: the sampled kernel must not perform more integrand
// evaluations than the legacy nested kernel.
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

TEST(KernelPerfSmoke, SampledDoesNoMoreWorkThanLegacy) {
  const ComponentFieldModel ma = bobbin_coil("A");
  const ComponentFieldModel mb = bobbin_coil("B");
  const SegmentPath pa = ma.path_at({});
  const SegmentPath pb = mb.path_at(Pose{{30.0, 4.0, 0.0}, 25.0});
  const QuadratureOptions q{4, 2};

  KernelDelta legacy_delta;
  const double ref = path_mutual_legacy(pa, pb, q);
  const KernelStats legacy = legacy_delta.sample();

  KernelDelta sampled_delta;
  const double got = path_mutual(pa, pb, q);
  const KernelStats sampled = sampled_delta.sample();

  EXPECT_EQ(ref, got);
  ASSERT_GT(legacy.sample_evals, 0u);
  EXPECT_LE(sampled.sample_evals, legacy.sample_evals);
  EXPECT_EQ(sampled.exact_pairs, legacy.exact_pairs);
}

}  // namespace
}  // namespace emi::peec
