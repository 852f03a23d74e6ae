// Smoke battery for the large-scale scenario generator (scenario_large.hpp)
// under `ctest -L large`: determinism (seeded fingerprint and stage-prefix
// stability), DRC-clean-by-construction output, the segment-count floor the
// scaling benchmark relies on, and a capped-N end-to-end run of the
// extraction pipeline - symmetry, per-call agreement and schedule
// independence of the exact matrix - over the generated grid.
#include "src/flow/scenario_large.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/core/thread_pool.hpp"
#include "src/peec/coupling.hpp"
#include "src/place/drc.hpp"

namespace emi::flow {
namespace {

LargeScenarioOptions opts(std::size_t stages, std::uint64_t seed = 1) {
  LargeScenarioOptions o;
  o.n_stages = stages;
  o.seed = seed;
  return o;
}

TEST(ScenarioLarge, FingerprintIsDeterministicPerSeed) {
  const LargeScenario a = make_large_scenario(opts(8, 7));
  const LargeScenario b = make_large_scenario(opts(8, 7));
  const LargeScenario c = make_large_scenario(opts(8, 8));
  EXPECT_EQ(layout_fingerprint(a), layout_fingerprint(b));
  EXPECT_NE(layout_fingerprint(a), layout_fingerprint(c));
}

TEST(ScenarioLarge, StagesArePrefixStable) {
  // Per-stage RNG streams are independent, so a capped-N scenario is a
  // prefix of the larger one - the property that lets the scaling bench
  // compare the same geometry at different N.
  const LargeScenario small = make_large_scenario(opts(4));
  const LargeScenario big = make_large_scenario(opts(16));
  ASSERT_LE(small.models.size(), big.models.size());
  for (std::size_t i = 0; i < small.models.size(); ++i) {
    EXPECT_EQ(peec::model_digest(small.models[i]),
              peec::model_digest(big.models[i]))
        << "model " << i;
    // Stage grids differ in column count, so compare poses only within the
    // shared first row.
    if (i < 2 * 2) {
      EXPECT_EQ(small.placed[i].pose.position.x, big.placed[i].pose.position.x);
    }
  }
}

TEST(ScenarioLarge, OutputIsDrcClean) {
  const LargeScenario s = make_large_scenario(opts(9));
  ASSERT_EQ(s.layout.placements.size(), s.board.components().size());
  for (const place::Placement& p : s.layout.placements) {
    EXPECT_TRUE(p.placed);
  }
  const place::DrcReport report = place::DrcEngine(s.board).check(s.layout);
  EXPECT_TRUE(report.clean()) << report.violations.size() << " violations";
}

TEST(ScenarioLarge, SixteenStagesClearTheThousandSegmentFloor) {
  const LargeScenario s = make_large_scenario(opts(16));
  EXPECT_GE(s.total_segments(), 1000u);
  EXPECT_EQ(s.models.size(), 32u);
  EXPECT_EQ(s.placed.size(), 32u);
  EXPECT_EQ(s.names.size(), 32u);
}

TEST(ScenarioLarge, RejectsDrcUnsafeOptions) {
  LargeScenarioOptions bad;
  bad.n_stages = 0;
  EXPECT_THROW(make_large_scenario(bad), std::invalid_argument);
  bad = LargeScenarioOptions{};
  bad.jitter = bad.pitch;  // far past the DRC margin
  EXPECT_THROW(make_large_scenario(bad), std::invalid_argument);
}

TEST(ScenarioLarge, CappedEndToEndExactMatrix) {
  // Six stages (~390 segments): full matrix extraction over the grid. The
  // matrix is symmetric bit for bit, its diagonal is the self inductances,
  // every entry matches the per-call mutual, and a serial run reproduces the
  // parallel one exactly.
  const LargeScenario s = make_large_scenario(opts(6));
  const peec::QuadratureOptions quad{4, 2};
  const peec::CouplingExtractor ex(quad);

  const peec::KernelStats before = peec::kernel_stats();
  const std::vector<units::Henry> m = ex.mutual_matrix(s.placed);
  const peec::KernelStats after = peec::kernel_stats();
  EXPECT_GT(after.exact_pairs, before.exact_pairs);

  const std::size_t n = s.placed.size();
  ASSERT_EQ(m.size(), n * n);
  const peec::CouplingExtractor fresh(quad);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GT(m[i * n + i].raw(), 0.0);
    EXPECT_EQ(m[i * n + i].raw(), fresh.self_inductance(*s.placed[i].model).raw());
    for (std::size_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(m[i * n + j].raw(), m[j * n + i].raw());
      EXPECT_EQ(m[i * n + j].raw(), fresh.mutual(s.placed[j], s.placed[i]).raw())
          << "pair " << i << "," << j;
    }
  }

  std::vector<units::Henry> serial;
  {
    core::ScopedSerialFallback fallback;
    serial = peec::CouplingExtractor(quad).mutual_matrix(s.placed);
  }
  ASSERT_EQ(serial.size(), m.size());
  for (std::size_t k = 0; k < m.size(); ++k) EXPECT_EQ(serial[k].raw(), m[k].raw());
}

}  // namespace
}  // namespace emi::flow
