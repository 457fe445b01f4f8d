// A minimal fixed-size thread pool for embarrassingly parallel work:
// running independent simulation replicas concurrently and fanning a
// batch of same-tick admission requests (sim/batch_admission) across
// workers.
//
// Determinism contract: callers assign each task its own pre-derived RNG
// stream and an output slot indexed by task id, so results are identical
// regardless of worker count or scheduling order.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/annotations.hpp"

namespace qres {

class ThreadPool {
 public:
  /// Spawns `workers` threads (at least 1; defaults to hardware concurrency).
  explicit ThreadPool(std::size_t workers = 0);

  /// Joins all workers after draining the queue.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept { return threads_.size(); }

  /// Enqueues a task. Must not be called after wait() begins from another
  /// thread; tasks may enqueue further tasks.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task (including transitively submitted
  /// ones) has finished. Must not be called from one of this pool's own
  /// worker threads (throws ContractViolation instead of deadlocking).
  void wait();

  /// Runs fn(i) for i in [0, n) and waits. The calling thread and up to
  /// worker_count() helper tasks claim contiguous chunks of `grain`
  /// indices (0 = automatic: roughly four chunks per worker) from one
  /// shared atomic cursor, and the callable is invoked directly inside
  /// each chunk's loop — no per-index or per-chunk type erasure,
  /// allocation or queue round trip.
  ///
  /// Exceptions from iterations propagate as a single well-defined error:
  /// the first exception captured is rethrown in the caller after every
  /// claimed chunk has finished; subsequent exceptions are swallowed (the
  /// batch is already poisoned, and chunks not yet claimed when a failure
  /// is flagged are skipped). A nested parallel_for on the same pool —
  /// from a worker, or from a chunk the calling thread is running — runs
  /// its iterations inline on that thread, preserving completion
  /// semantics without deadlocking.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn, std::size_t grain = 0) {
    if (n == 0) return;
    if (grain == 0)
      grain = std::max<std::size_t>(1, n / (4 * worker_count()));
    run_chunks(n, grain, [&fn](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    });
  }

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const noexcept;

 private:
  /// Type-erased fork-join behind parallel_for: runs chunk(begin, end)
  /// over [0, n) in `grain`-sized pieces claimed from a shared cursor by
  /// the caller and its helpers, waits, and rethrows the first captured
  /// exception. Runs chunk(0, n) inline when nested.
  void run_chunks(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& chunk);

  void worker_loop();

  std::vector<std::thread> threads_;
  Mutex mutex_;
  std::queue<std::function<void()>> queue_ QRES_GUARDED_BY(mutex_);
  // condition_variable_any, not condition_variable: the waits go through
  // qres::MutexLock so clang's thread-safety analysis can see them.
  std::condition_variable_any task_ready_;
  std::condition_variable_any all_done_;
  std::size_t in_flight_ QRES_GUARDED_BY(mutex_) = 0;
  bool stopping_ QRES_GUARDED_BY(mutex_) = false;
};

}  // namespace qres
