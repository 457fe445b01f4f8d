#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/assert.hpp"

namespace qres {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
  ThreadPool pool;
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<int> hits(500, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 500);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForZeroTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 3)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, TasksCanSubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] {
    ++counter;
    for (int i = 0; i < 10; ++i) pool.submit([&] { ++counter; });
  });
  pool.wait();
  EXPECT_EQ(counter.load(), 11);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] { ++counter; });
  pool.wait();
  pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, SubmitNullTaskThrows) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), ContractViolation);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // Regression: parallel_for from inside a worker task used to submit and
  // wait on the same pool, deadlocking once all workers were blocked in
  // the outer wait. Nested calls must run their iterations inline.
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { ++inner; });
  });
  EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPool, DeeplyNestedParallelForStillCompletes) {
  ThreadPool pool(1);  // single worker: any re-entrant wait would hang
  std::atomic<int> leaves{0};
  pool.parallel_for(2, [&](std::size_t) {
    pool.parallel_for(2, [&](std::size_t) {
      pool.parallel_for(2, [&](std::size_t) { ++leaves; });
    });
  });
  EXPECT_EQ(leaves.load(), 8);
}

TEST(ThreadPool, NestedParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(2,
                        [&](std::size_t) {
                          pool.parallel_for(2, [](std::size_t) {
                            throw std::runtime_error("inner boom");
                          });
                        }),
      std::runtime_error);
}

TEST(ThreadPool, WaitFromWorkerThrowsInsteadOfDeadlocking) {
  ThreadPool pool(2);
  std::atomic<bool> threw{false};
  pool.submit([&] {
    try {
      pool.wait();
    } catch (const ContractViolation&) {
      threw = true;
    }
  });
  pool.wait();  // from the owner thread: fine
  EXPECT_TRUE(threw.load());
}

TEST(ThreadPool, WaitFromAnotherPoolsWorkerIsAllowed) {
  // The guard is per-pool: a task on pool A may legitimately block on
  // pool B finishing.
  ThreadPool a(1), b(1);
  std::atomic<int> done{0};
  a.submit([&] {
    b.submit([&] { ++done; });
    b.wait();
    ++done;
  });
  a.wait();
  EXPECT_EQ(done.load(), 2);
}

TEST(ThreadPool, ParallelForCoversAllIndicesForEveryGrain) {
  // Regression: parallel_for used to wrap every index in its own
  // std::function; it now claims contiguous chunks from a shared cursor.
  // Any grain — automatic, degenerate, uneven, or larger than n — must
  // cover each index exactly once.
  ThreadPool pool(3);
  for (const std::size_t grain : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}, std::size_t{1000}}) {
    std::vector<int> hits(100, 0);
    pool.parallel_for(
        hits.size(), [&](std::size_t i) { hits[i] += 1; }, grain);
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i], 1) << "index " << i << " grain " << grain;
  }
}

TEST(ThreadPool, ParallelForAcceptsPlainCallables) {
  // The chunked overload is a template: a mutable lambda captured by
  // reference must not be copied per index or per chunk.
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  auto body = [&sum](std::size_t i) { sum.fetch_add(static_cast<int>(i)); };
  pool.parallel_for(10, body);
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, ParallelForPropagatesExactlyOneException) {
  // Regression: worker exceptions were once swallowed entirely. The
  // contract now is that the first exception (in completion order)
  // propagates to the caller and the rest are dropped; the call must
  // still join every chunk before rethrowing, so no task outlives it.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(
        64,
        [&](std::size_t i) {
          ran.fetch_add(1);
          throw std::runtime_error("boom " + std::to_string(i));
        },
        /*grain=*/1);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()).rfind("boom ", 0), 0u);
  }
  // The call joined every chunk before rethrowing: at least the throwing
  // chunk ran, and the fail-fast check may have skipped later ones.
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 64);
  // The pool stays usable after a failed parallel_for.
  std::atomic<int> ok{0};
  pool.parallel_for(8, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

// Occupies a pool's only worker until release() or a 5 s deadline, so a
// parallel_for issued meanwhile can make progress only on its caller.
// The deadline turns a pool whose caller never runs chunks into a test
// failure instead of a hang.
class BusyWorker {
 public:
  explicit BusyWorker(ThreadPool& pool) {
    pool.submit([this] {
      std::unique_lock<std::mutex> lock(mutex_);
      started_ = true;
      changed_.notify_all();
      timed_out_ = !changed_.wait_for(lock, std::chrono::seconds(5),
                                      [this] { return released_; });
    });
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [this] { return started_; });
  }

  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    changed_.notify_all();
  }

  /// True when the worker gave up waiting for release(). Read after the
  /// pool has joined the task.
  bool timed_out() {
    std::lock_guard<std::mutex> lock(mutex_);
    return timed_out_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  bool started_ = false;
  bool released_ = false;
  bool timed_out_ = false;
};

TEST(ThreadPool, ParallelForCallerRunsChunks) {
  // The calling thread claims chunks alongside the workers, so a
  // parallel_for completes even while every worker is busy elsewhere.
  ThreadPool pool(1);
  BusyWorker busy(pool);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  std::vector<int> hits(16, 0);
  pool.parallel_for(
      hits.size(),
      [&](std::size_t i) {
        hits[i] += 1;
        if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
        busy.release();
      },
      /*grain=*/1);
  EXPECT_GE(on_caller.load(), 1);
  EXPECT_FALSE(busy.timed_out());
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, NestedParallelForOnCallerRunsInline) {
  // A parallel_for nested in a chunk the caller runs must not fork again:
  // its wait() would block on the busy worker, which is released only by
  // the last leaf. Every nested level runs inline on the caller instead.
  ThreadPool pool(1);
  BusyWorker busy(pool);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> leaves{0};
  std::atomic<int> off_caller{0};
  pool.parallel_for(
      4,
      [&](std::size_t) {
        pool.parallel_for(
            3,
            [&](std::size_t) {
              pool.parallel_for(
                  5,
                  [&](std::size_t) {
                    if (std::this_thread::get_id() != caller)
                      off_caller.fetch_add(1);
                    if (leaves.fetch_add(1) + 1 == 60) busy.release();
                  },
                  /*grain=*/1);
            },
            /*grain=*/1);
      },
      /*grain=*/1);
  EXPECT_EQ(leaves.load(), 60);
  EXPECT_EQ(off_caller.load(), 0);
  EXPECT_FALSE(busy.timed_out());
}

TEST(ThreadPool, ExceptionFromCallerChunkPropagates) {
  ThreadPool pool(1);
  BusyWorker busy(pool);
  const std::thread::id caller = std::this_thread::get_id();
  EXPECT_THROW(pool.parallel_for(
                   8,
                   [&](std::size_t) {
                     busy.release();
                     if (std::this_thread::get_id() == caller)
                       throw std::runtime_error("caller boom");
                   },
                   /*grain=*/1),
               std::runtime_error);
  // The pool stays usable after the caller's chunk threw.
  std::atomic<int> ok{0};
  pool.parallel_for(8, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPool, ResultIndependentOfWorkerCount) {
  // The determinism contract: per-index outputs do not depend on the
  // number of workers.
  auto run = [](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<std::uint64_t> out(64);
    pool.parallel_for(out.size(),
                      [&](std::size_t i) { out[i] = i * i + 7; });
    return out;
  };
  EXPECT_EQ(run(1), run(8));
}

}  // namespace
}  // namespace qres
