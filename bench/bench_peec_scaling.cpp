// N-scaling of batched mutual extraction over the large filter-stage grid
// (scenario_large.hpp) with the exact pair kernel: `segments` and
// `pairs_exact` give the work growth, wall-clock the end-to-end cost.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "src/flow/scenario_large.hpp"
#include "src/peec/coupling.hpp"

namespace {

using namespace emi;

constexpr peec::QuadratureOptions kQuad{4, 2};

std::vector<std::pair<std::size_t, std::size_t>> all_pairs(std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  return pairs;
}

// Batched extraction of every model pair with a fresh extractor per
// iteration (cold cache: the point is kernel work, not cache hits). Kernel
// counters are reported per iteration so the JSON carries the pair-count
// growth next to the wall-clock growth.
void BM_ScalingExact(benchmark::State& state) {
  flow::LargeScenarioOptions opt;
  opt.n_stages = static_cast<std::size_t>(state.range(0));
  const flow::LargeScenario s = flow::make_large_scenario(opt);
  const auto pairs = all_pairs(s.placed.size());
  const peec::KernelStats before = peec::kernel_stats();
  for (auto _ : state) {
    const peec::CouplingExtractor ex(kQuad);
    benchmark::DoNotOptimize(ex.mutual_batch(s.placed, pairs).data());
  }
  const peec::KernelStats after = peec::kernel_stats();
  const double iters = static_cast<double>(state.iterations());
  state.counters["segments"] = static_cast<double>(s.total_segments());
  state.counters["pairs_exact"] =
      static_cast<double>(after.exact_pairs - before.exact_pairs) / iters;
  state.SetComplexityN(static_cast<std::int64_t>(s.total_segments()));
}
// Stops at 8 stages (~520 segments): past that the quadratic wall it
// demonstrates makes the bench itself unaffordable.
BENCHMARK(BM_ScalingExact)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

}  // namespace

BENCHMARK_MAIN();
