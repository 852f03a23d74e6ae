// Chunked work-stealing thread pool - the repo's core execution layer.
//
// The unit of scheduling is a *chunk* (a contiguous index sub-range produced
// by core::parallel_for / parallel_reduce). Chunks of one batch are dealt
// round-robin onto per-worker deques; each worker drains its own deque from
// the front and steals from the back of a victim's deque when it runs dry.
// The submitting thread participates in the batch instead of blocking, so a
// pool of N threads gives N+1 lanes of execution and a 0-thread pool
// degenerates to plain serial execution.
//
// Determinism contract: the pool never influences *what* is computed, only
// *when*. Callers write results into pre-sized slots addressed by chunk or
// item index, so any interleaving yields bit-identical output. Nested
// batches (a parallel_for issued from inside a chunk, on a worker or on the
// submitting thread) run inline on the issuing thread - this keeps the pool
// deadlock-free, bounds oversubscription without any extra tuning, and
// never stacks one chunk of a batch on top of another.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/thread_annotations.hpp"

namespace emi::core {

// Execution counters, cumulative since pool construction. Cheap enough to
// keep always-on; surfaced through core::Profile in flow reports.
struct PoolStats {
  std::uint64_t batches = 0;        // run_chunks invocations served
  std::uint64_t chunks = 0;         // chunks executed in total
  std::uint64_t steals = 0;         // chunks taken from another lane's deque
  std::uint64_t inline_batches = 0; // nested batches run inline in a chunk
  std::uint64_t serial_fallbacks = 0; // batches degraded to serial execution
                                      // (ScopedSerialFallback or fault site
                                      // "pool"); results are unaffected by
                                      // the determinism contract
};

class ThreadPool {
 public:
  // `n_threads` counts *extra* workers; the submitting thread always helps.
  explicit ThreadPool(std::size_t n_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  // Run fn(chunk) for every chunk in [0, n_chunks), blocking until all
  // complete. Safe to call from inside a chunk (runs inline, serially).
  // If chunks throw, the batch still drains before the lowest-index chunk's
  // exception is rethrown here - the one the serial loop would throw.
  void run_chunks(std::size_t n_chunks, const std::function<void(std::size_t)>& fn);

  PoolStats stats() const;

  // --- global pool -------------------------------------------------------
  // The process-wide pool used by parallel_for/parallel_reduce. Sized to
  // default_thread_count() on first use; set_global_thread_count(n) rebuilds
  // it with n-1 extra workers (n = total lanes, n >= 1). Not safe to call
  // concurrently with running parallel regions.
  static ThreadPool& global();
  static void set_global_thread_count(std::size_t n_lanes);
  static std::size_t global_thread_count();  // total lanes incl. caller

  // EMI_THREADS env var if set (>=1), else std::thread::hardware_concurrency.
  static std::size_t default_thread_count();

  // True while a ScopedSerialFallback is alive on the calling thread.
  static bool serial_fallback_active();

 private:
  struct Batch {
    Mutex mu;
    std::condition_variable done;
    std::size_t remaining EMI_GUARDED_BY(mu) = 0;
    std::exception_ptr error EMI_GUARDED_BY(mu);  // lowest-index chunk's throw
    std::size_t error_index EMI_GUARDED_BY(mu) = 0;
  };
  struct Chunk {
    const std::function<void(std::size_t)>* fn;
    std::size_t index;
    Batch* batch;
  };
  struct Lane {
    std::deque<Chunk> queue;  // guarded by the pool mutex (coarse but simple)
  };

  void worker_main(std::size_t lane);
  bool try_pop(std::size_t lane, Chunk& out, bool& stolen) EMI_REQUIRES(mu_);
  void execute(const Chunk& c);

  mutable Mutex mu_;
  std::condition_variable work_cv_;
  // Lane deques and the stop flag share the one coarse pool lock.
  std::vector<Lane> lanes_ EMI_GUARDED_BY(mu_);  // lane 0 = submitter
  std::vector<std::thread> workers_;
  bool stop_ EMI_GUARDED_BY(mu_) = false;
};

// Degradation lever for the robustness layer: while alive, every batch this
// thread submits runs inline (serially). By the determinism contract this
// never changes results - it removes the pool from the failure surface, so
// flow-stage retries use it as their last-attempt fallback.
class ScopedSerialFallback {
 public:
  ScopedSerialFallback();
  ~ScopedSerialFallback();
  ScopedSerialFallback(const ScopedSerialFallback&) = delete;
  ScopedSerialFallback& operator=(const ScopedSerialFallback&) = delete;
};

}  // namespace emi::core
