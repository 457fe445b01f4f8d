#include "util/thread_pool.hpp"

#include <atomic>
#include <exception>

#include "util/assert.hpp"

namespace qres {

namespace {
// Pool the current thread belongs to, if it is a worker. Lets blocking
// entry points detect re-entry from their own workers (which would
// deadlock: the worker would wait for tasks only it can run).
thread_local const ThreadPool* current_worker_pool = nullptr;
// Pool whose parallel_for the current thread is running chunks of as the
// caller; a parallel_for nested in such a chunk runs inline.
thread_local const ThreadPool* current_caller_pool = nullptr;
}  // namespace

bool ThreadPool::on_worker_thread() const noexcept {
  return current_worker_pool == this;
}

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  QRES_REQUIRE(task != nullptr, "ThreadPool::submit: null task");
  {
    MutexLock lock(mutex_);
    QRES_REQUIRE(!stopping_, "ThreadPool::submit after shutdown");
    queue_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait() {
  QRES_REQUIRE(!on_worker_thread(),
               "ThreadPool::wait called from one of this pool's own worker "
               "threads (would deadlock; use parallel_for, which runs "
               "inline when nested)");
  MutexLock lock(mutex_);
  // Explicit wait loop: the predicate read of in_flight_ stays inside
  // the analyzed critical section (a wait(lock, pred) lambda would not).
  while (in_flight_ != 0) all_done_.wait(lock);
}

void ThreadPool::run_chunks(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& chunk) {
  QRES_REQUIRE(chunk != nullptr, "ThreadPool::parallel_for: null function");
  QRES_REQUIRE(grain > 0, "ThreadPool::parallel_for: zero grain");
  if (on_worker_thread() || current_caller_pool == this) {
    chunk(0, n);
    return;
  }
  // Clamped so the cursor, which overshoots n by at most one grain per
  // participant, cannot wrap.
  grain = std::min(grain, n);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  Mutex error_mutex;
  std::exception_ptr first_error;  // written/read under error_mutex only
  auto drain = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t begin =
          next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      try {
        chunk(begin, begin + std::min(grain, n - begin));
      } catch (...) {
        MutexLock guard(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  // One helper per worker at most, and none for the caller's own chunk.
  const std::size_t helpers = std::min(worker_count(), (n - 1) / grain);
  for (std::size_t h = 0; h < helpers; ++h) submit([&drain] { drain(); });
  const ThreadPool* const outer = current_caller_pool;
  current_caller_pool = this;
  drain();
  current_caller_pool = outer;
  // Joins the helpers (one that starts after the cursor is spent returns
  // at once) before the state they share goes out of scope.
  wait();
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::worker_loop() {
  current_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) task_ready_.wait(lock);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace qres
