#include "src/core/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "src/core/fault_injection.hpp"

namespace emi::core {

namespace {

thread_local bool tls_on_worker = false;
thread_local int tls_serial_depth = 0;

// Cumulative counters live outside the hot path's lock; relaxed ordering is
// enough for monotonic counters read only by reporting code.
struct AtomicStats {
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> chunks{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> inline_batches{0};
  std::atomic<std::uint64_t> serial_fallbacks{0};
};
AtomicStats g_stats;

}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) : lanes_(n_threads + 1) {
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::on_worker_thread() { return tls_on_worker; }

bool ThreadPool::try_pop(std::size_t lane, Chunk& out, bool& stolen) {
  // Caller holds mu_. Own deque first (front = submission order), then steal
  // from the back of the first non-empty victim.
  if (!lanes_[lane].queue.empty()) {
    out = lanes_[lane].queue.front();
    lanes_[lane].queue.pop_front();
    stolen = false;
    return true;
  }
  for (std::size_t v = 0; v < lanes_.size(); ++v) {
    if (v == lane || lanes_[v].queue.empty()) continue;
    out = lanes_[v].queue.back();
    lanes_[v].queue.pop_back();
    stolen = true;
    return true;
  }
  return false;
}

void ThreadPool::execute(const Chunk& c) {
  // An escaping exception would terminate a worker, or unwind the submitter
  // while other lanes still run chunks that point into its stack frame.
  std::exception_ptr error;
  try {
    (*c.fn)(c.index);
  } catch (...) {
    error = std::current_exception();
  }
  g_stats.chunks.fetch_add(1, std::memory_order_relaxed);
  Batch* b = c.batch;
  MutexLock lock(b->mu);
  if (error && (!b->error || c.index < b->error_index)) {
    b->error = error;
    b->error_index = c.index;
  }
  if (--b->remaining == 0) b->done.notify_all();
}

void ThreadPool::worker_main(std::size_t lane) {
  tls_on_worker = true;
  for (;;) {
    Chunk c{};
    bool stolen = false;
    {
      // Manual wait loop (not the predicate overload) so the thread-safety
      // analysis sees stop_ and try_pop run with mu_ held.
      MutexLock lock(mu_);
      for (;;) {
        if (stop_) return;
        if (try_pop(lane, c, stolen)) break;
        work_cv_.wait(lock.native());
      }
    }
    if (stolen) g_stats.steals.fetch_add(1, std::memory_order_relaxed);
    execute(c);
  }
}

void ThreadPool::run_chunks(std::size_t n_chunks,
                            const std::function<void(std::size_t)>& fn) {
  if (n_chunks == 0) return;
  // Degraded batches run serially: a live ScopedSerialFallback, or the
  // "pool" fault site simulating lane loss. The key is the chunk count -
  // content of the batch, not scheduling - so injection is deterministic.
  const bool degraded =
      tls_serial_depth > 0 ||
      fault::should_fire(FaultSite::kPool, fault::mix(0, static_cast<std::uint64_t>(n_chunks)));
  if (degraded) g_stats.serial_fallbacks.fetch_add(1, std::memory_order_relaxed);
  // Nested parallel regions (and trivial batches on a worker-less pool) run
  // inline: deadlock-free, no oversubscription, identical results.
  if (tls_on_worker || workers_.empty() || n_chunks == 1 || degraded) {
    if (tls_on_worker) g_stats.inline_batches.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < n_chunks; ++i) {
      fn(i);
      g_stats.chunks.fetch_add(1, std::memory_order_relaxed);
    }
    g_stats.batches.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  Batch batch;
  {
    MutexLock lock(batch.mu);
    batch.remaining = n_chunks;
  }
  {
    MutexLock lock(mu_);
    // Deal chunks round-robin across all lanes, submitter lane included.
    for (std::size_t i = 0; i < n_chunks; ++i) {
      lanes_[i % lanes_.size()].queue.push_back(Chunk{&fn, i, &batch});
    }
  }
  work_cv_.notify_all();

  // The submitting thread works the batch too (lane 0), then waits out the
  // stragglers.
  for (;;) {
    Chunk c{};
    bool stolen = false;
    {
      MutexLock lock(mu_);
      if (!try_pop(0, c, stolen)) break;
    }
    if (stolen) g_stats.steals.fetch_add(1, std::memory_order_relaxed);
    execute(c);
  }
  std::exception_ptr error;
  {
    MutexLock lock(batch.mu);
    while (batch.remaining != 0) batch.done.wait(lock.native());
    error = batch.error;
  }
  g_stats.batches.fetch_add(1, std::memory_order_relaxed);
  if (error) std::rethrow_exception(error);
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.batches = g_stats.batches.load(std::memory_order_relaxed);
  s.chunks = g_stats.chunks.load(std::memory_order_relaxed);
  s.steals = g_stats.steals.load(std::memory_order_relaxed);
  s.inline_batches = g_stats.inline_batches.load(std::memory_order_relaxed);
  s.serial_fallbacks = g_stats.serial_fallbacks.load(std::memory_order_relaxed);
  return s;
}

bool ThreadPool::serial_fallback_active() { return tls_serial_depth > 0; }

ScopedSerialFallback::ScopedSerialFallback() { ++tls_serial_depth; }
ScopedSerialFallback::~ScopedSerialFallback() { --tls_serial_depth; }

namespace {
Mutex g_global_mu;
std::unique_ptr<ThreadPool> g_global_pool EMI_GUARDED_BY(g_global_mu);
}  // namespace

std::size_t ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("EMI_THREADS")) {
    const long v = std::atol(env);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool& ThreadPool::global() {
  MutexLock lock(g_global_mu);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(default_thread_count() - 1);
  }
  return *g_global_pool;
}

void ThreadPool::set_global_thread_count(std::size_t n_lanes) {
  if (n_lanes == 0) n_lanes = 1;
  MutexLock lock(g_global_mu);
  g_global_pool = std::make_unique<ThreadPool>(n_lanes - 1);
}

std::size_t ThreadPool::global_thread_count() {
  return global().thread_count() + 1;
}

}  // namespace emi::core
