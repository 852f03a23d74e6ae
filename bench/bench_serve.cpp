// Performance: the EMI service end to end - submit -> result latency and
// throughput (jobs/s, reported as items_per_second) at 1/4/16 concurrent
// sessions hammering one daemon-grade svc::Service on the buck golden.
//
// Two regimes per session count:
//   cold  - a fresh Service (fresh two-tier cache) per iteration; every job
//           pays the full extraction cost.
//   warm  - one long-lived Service; after the first iteration the shared
//           global tier serves every extraction, so the steady-state numbers
//           are what a long-running daemon delivers.
// The cold/warm ratio is the amortization the session/shared cache split
// buys (the reduced-order reuse motivation, PAPERS.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/svc/job.hpp"
#include "src/svc/service.hpp"

namespace {

using namespace emi;

constexpr std::size_t kSweepPoints = 30;  // the buck golden at CLI-quick scale

std::string bench_dir(const char* tag) {
  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/bench_serve_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

svc::JobSpec spec_for(int session) {
  svc::JobSpec spec;
  spec.topology = "buck";
  spec.sweep_points = kSweepPoints;
  spec.client = "bench-" + std::to_string(session);
  return spec;
}

// One round: `sessions` threads each submit one job under their own session
// and block until its terminal record. Aborts the benchmark on any
// non-`done` outcome, so the numbers never average over failed work.
void run_round(benchmark::State& state, svc::Service& svc, int sessions) {
  std::vector<std::thread> clients;
  std::atomic<bool> ok{true};
  clients.reserve(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    clients.emplace_back([&svc, &ok, s] {
      const core::Result<std::uint64_t> id = svc.submit(spec_for(s));
      if (!id.ok()) {
        ok = false;
        return;
      }
      const core::Result<svc::JobRecord> rec = svc.wait(id.value());
      if (!rec.ok() || rec.value().state != svc::JobState::kDone) ok = false;
    });
  }
  for (std::thread& t : clients) t.join();
  if (!ok) state.SkipWithError("job failed");
}

// Cold: every iteration builds a fresh service (empty caches, empty state
// dir), so per-job cost includes the full PEEC extraction.
void BM_ServeSubmitResult_Cold(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  const std::string dir = bench_dir("cold");
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    svc::Service svc({dir, 2, 64});
    state.ResumeTiming();
    run_round(state, svc, sessions);
  }
  state.SetItemsProcessed(state.iterations() * sessions);
}
BENCHMARK(BM_ServeSubmitResult_Cold)
    ->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Warm: one service lives across iterations; the global cache tier is warm
// after the first round and every later job is served from shared entries.
void BM_ServeSubmitResult_Warm(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  const std::string dir = bench_dir("warm");
  std::filesystem::remove_all(dir);
  svc::Service svc({dir, 2, 4096});
  run_round(state, svc, sessions);  // warm the global tier outside the timing
  for (auto _ : state) {
    run_round(state, svc, sessions);
  }
  state.SetItemsProcessed(state.iterations() * sessions);
}
BENCHMARK(BM_ServeSubmitResult_Warm)
    ->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Overload: `sessions` clients hammer a deliberately small service (2
// executors, capacity-4 queue), so the offered concurrency is roughly twice
// what the box sustains. Sheds are expected - the point is the policy:
// excess turns into kResourceExhausted + retry_after_ms instead of queue
// bloat, shed clients retry politely, and the latency distribution of
// *accepted* jobs stays bounded. Counters: shed_rate = sheds / offered
// submits, p50_ms / p99_ms over accepted submit->terminal latencies.
// items_per_second counts completed jobs only, never averaged over sheds.
void BM_ServeOverload(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  constexpr int kBurst = 4;  // jobs per client per iteration
  const std::string dir = bench_dir("overload");
  std::filesystem::remove_all(dir);
  svc::Service svc({dir, /*executors=*/2, /*queue_capacity=*/4});
  run_round(state, svc, 2);  // warm the global cache tier + the admission EWMA

  std::mutex mu;
  std::vector<double> accepted_ms;
  std::atomic<std::uint64_t> offered{0};
  std::atomic<std::uint64_t> sheds{0};
  std::atomic<bool> ok{true};
  for (auto _ : state) {
    std::vector<std::thread> clients;
    clients.reserve(static_cast<std::size_t>(sessions));
    for (int s = 0; s < sessions; ++s) {
      clients.emplace_back([&, s] {
        for (int b = 0; b < kBurst; ++b) {
          const auto t0 = std::chrono::steady_clock::now();
          core::Result<std::uint64_t> id = svc.submit(spec_for(s));
          offered.fetch_add(1, std::memory_order_relaxed);
          int retries = 0;
          while (!id.ok() &&
                 id.status().code() == core::ErrorCode::kResourceExhausted) {
            sheds.fetch_add(1, std::memory_order_relaxed);
            if (++retries > 1000) break;
            // Ride the service's own load estimate, like `submit --retry`.
            const std::int64_t hint = svc.health().retry_after_ms;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(hint > 0 ? hint : 1));
            id = svc.submit(spec_for(s));
            offered.fetch_add(1, std::memory_order_relaxed);
          }
          if (!id.ok()) {
            ok = false;
            return;
          }
          const core::Result<svc::JobRecord> rec = svc.wait(id.value());
          if (!rec.ok() || rec.value().state != svc::JobState::kDone) {
            ok = false;
            return;
          }
          const double ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
          const std::lock_guard<std::mutex> lock(mu);
          accepted_ms.push_back(ms);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    if (!ok) state.SkipWithError("overloaded job failed");
  }

  std::sort(accepted_ms.begin(), accepted_ms.end());
  const auto pct = [&](double q) {
    if (accepted_ms.empty()) return 0.0;
    const std::size_t i = static_cast<std::size_t>(
        q * static_cast<double>(accepted_ms.size() - 1));
    return accepted_ms[i];
  };
  state.counters["p50_ms"] = pct(0.50);
  state.counters["p99_ms"] = pct(0.99);
  const double off = static_cast<double>(offered.load());
  state.counters["shed_rate"] =
      off > 0.0 ? static_cast<double>(sheds.load()) / off : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(accepted_ms.size()));
}
BENCHMARK(BM_ServeOverload)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
