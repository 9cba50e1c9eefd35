#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace acoustic::runtime {
namespace {

TEST(ThreadPool, DefaultHasAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExplicitWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, RejectsWorkerCountAboveCeiling) {
  // Rejected before any worker starts: none of these creates a thread.
  for (const unsigned threads :
       {ThreadPool::kMaxThreads + 1, 100000u, ~0u}) {
    EXPECT_THROW(ThreadPool{threads}, std::invalid_argument) << threads;
  }
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i, unsigned /*worker*/) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, WorkerIdsAreInRange) {
  ThreadPool pool(4);
  std::atomic<bool> out_of_range{false};
  pool.parallel_for(500, [&](std::size_t /*i*/, unsigned worker) {
    if (worker >= pool.size()) {
      out_of_range.store(true);
    }
  });
  EXPECT_FALSE(out_of_range.load());
}

TEST(ThreadPool, WorkerIdSelectsDisjointScratch) {
  // The worker id must be safe to use as an index into per-thread scratch:
  // summing into per-worker slots and reducing must equal the serial sum.
  ThreadPool pool(4);
  constexpr std::size_t kCount = 2000;
  std::vector<std::uint64_t> partial(pool.size(), 0);
  pool.parallel_for(kCount, [&](std::size_t i, unsigned worker) {
    partial[worker] += i;
  });
  const std::uint64_t total =
      std::accumulate(partial.begin(), partial.end(), std::uint64_t{0});
  EXPECT_EQ(total, static_cast<std::uint64_t>(kCount) * (kCount - 1) / 2);
}

TEST(ThreadPool, ZeroCountIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t, unsigned) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  for (int job = 0; job < 50; ++job) {
    std::atomic<std::size_t> done{0};
    pool.parallel_for(17, [&](std::size_t, unsigned) {
      done.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(done.load(), 17u) << "job " << job;
  }
}

TEST(ThreadPool, SingleWorkerRunsEverything) {
  ThreadPool pool(1);
  std::vector<int> hits(64, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i, unsigned worker) {
    EXPECT_EQ(worker, 0u);
    ++hits[i];
  });
  for (const int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i, unsigned) {
                          if (i == 13) {
                            throw std::runtime_error("boom");
                          }
                        }),
      std::runtime_error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(10, [](std::size_t, unsigned) {
      throw std::runtime_error("boom");
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error&) {
  }
  std::atomic<std::size_t> done{0};
  pool.parallel_for(25, [&](std::size_t, unsigned) {
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 25u);
}

// --- work-stealing scheduler behavior ---

TEST(ThreadPool, NestedParallelForRunsAllIndices) {
  // A task that itself calls parallel_for must push its subtasks into the
  // same pool and self-execute them (help-first join) — every (outer,
  // inner) pair runs exactly once, no deadlock, no extra threads.
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 32;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t outer, unsigned /*worker*/) {
    pool.parallel_for(kInner, [&](std::size_t inner, unsigned /*worker*/) {
      hits[outer * kInner + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "pair " << i;
  }
}

TEST(ThreadPool, NestedParallelForOnSingleWorkerPool) {
  // The degenerate pool must still support nesting: the lone worker
  // executes its own subtasks inline.
  ThreadPool pool(1);
  std::atomic<std::size_t> done{0};
  pool.parallel_for(4, [&](std::size_t, unsigned) {
    pool.parallel_for(8, [&](std::size_t, unsigned worker) {
      EXPECT_EQ(worker, 0u);
      done.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(done.load(), 32u);
}

TEST(ThreadPool, CurrentIsBoundInsideWorkersOnly) {
  ThreadPool pool(2);
  EXPECT_EQ(ThreadPool::current(), nullptr);
  std::atomic<bool> bound{true};
  pool.parallel_for(64, [&](std::size_t, unsigned) {
    if (ThreadPool::current() != &pool) {
      bound.store(false);
    }
  });
  EXPECT_TRUE(bound.load());
  EXPECT_EQ(ThreadPool::current(), nullptr);
}

TEST(ThreadPool, SpareWorkersFollowTheOutermostJob) {
  // size() minus the outermost job's task count, floored at 0; 0 off the
  // pool. Jitter forces steals, so nested tasks also run on workers that
  // did not fork them: they still read the figure of the job above.
  const unsigned saved = ThreadPool::task_jitter_us();
  ThreadPool::set_task_jitter_us(50);
  ThreadPool pool(4);
  ThreadPool other(2);
  EXPECT_EQ(pool.spare_workers(), 0u);
  std::atomic<unsigned> alone{99};
  pool.parallel_for(1, [&](std::size_t, unsigned) {
    alone.store(pool.spare_workers());
  });
  EXPECT_EQ(alone.load(), 3u);
  std::vector<std::atomic<unsigned>> full(8);
  pool.parallel_for(full.size(), [&](std::size_t i, unsigned) {
    full[i].store(pool.spare_workers() + 1);
  });
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].load(), 1u) << "task " << i;
  }
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<unsigned>> nested(2 * kInner);
  std::atomic<unsigned> outer_after{99};
  std::atomic<unsigned> foreign{99};
  pool.parallel_for(2, [&](std::size_t outer, unsigned) {
    pool.parallel_for(kInner, [&](std::size_t inner, unsigned) {
      nested[outer * kInner + inner].store(pool.spare_workers() + 1);
    });
    if (outer == 0) {
      outer_after.store(pool.spare_workers());
      // Another pool's task is off this pool, and its own figure is its
      // own job's.
      other.parallel_for(1, [&](std::size_t, unsigned) {
        foreign.store(pool.spare_workers() * 10 + other.spare_workers());
      });
    }
  });
  ThreadPool::set_task_jitter_us(saved);
  for (std::size_t i = 0; i < nested.size(); ++i) {
    EXPECT_EQ(nested[i].load(), 3u) << "nested task " << i;
  }
  EXPECT_EQ(outer_after.load(), 2u);
  EXPECT_EQ(foreign.load(), 1u);
  EXPECT_EQ(pool.spare_workers(), 0u);
}

TEST(ThreadPool, PoolLargerThanTheCoreCountRunsNestedJobs) {
  // Twice the cores (at most 16 workers): they timeslice, and under forced
  // stealing every (outer, inner) pair still runs exactly once, the busy
  // peak stays within the pool, and the pool is usable afterwards.
  const unsigned saved = ThreadPool::task_jitter_us();
  ThreadPool::set_task_jitter_us(50);
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  ThreadPool pool(std::min(2 * hw, 16U));
  const std::size_t outer_count = 2 * pool.size();
  constexpr std::size_t kInner = 8;
  std::vector<std::atomic<int>> hits(outer_count * kInner);
  pool.reset_busy_peak();
  pool.parallel_for(outer_count, [&](std::size_t outer, unsigned) {
    pool.parallel_for(kInner, [&](std::size_t inner, unsigned) {
      hits[outer * kInner + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  const unsigned peak = pool.stats().busy_peak;
  std::atomic<std::size_t> done{0};
  pool.parallel_for(outer_count, [&](std::size_t, unsigned) {
    done.fetch_add(1, std::memory_order_relaxed);
  });
  ThreadPool::set_task_jitter_us(saved);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "pair " << i;
  }
  EXPECT_GE(peak, 1u);
  EXPECT_LE(peak, pool.size());
  EXPECT_EQ(done.load(), outer_count);
}

TEST(ThreadPool, StealingRebalancesImbalancedLoad) {
  // Round-robin seeding gives each worker half the tasks. Parking the
  // FIRST task that runs — while its worker still holds its whole deque
  // share — forces the other worker to drain its own deque and then steal
  // the sleeper's backlog: the steal counter must move.
  ThreadPool pool(2);
  const ThreadPool::Stats before = pool.stats();
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> hits(kCount);
  std::atomic<bool> slept{false};
  pool.parallel_for(kCount, [&](std::size_t i, unsigned /*worker*/) {
    if (!slept.exchange(true, std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  const ThreadPool::Stats after = pool.stats();
  EXPECT_EQ(after.tasks - before.tasks, kCount);
  EXPECT_GT(after.steals, before.steals);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, StatsCountTasksAndBoundBusyPeak) {
  ThreadPool pool(3);
  const ThreadPool::Stats before = pool.stats();
  pool.parallel_for(200, [](std::size_t, unsigned) {});
  const ThreadPool::Stats after = pool.stats();
  EXPECT_EQ(after.tasks - before.tasks, 200u);
  EXPECT_GE(after.busy_peak, 1u);
  EXPECT_LE(after.busy_peak, pool.size());
}

TEST(ThreadPool, NestedTasksCountTheirWorkerOnce) {
  // A worker that runs nested tasks inside its own task is one busy
  // worker, not one per stack frame: a lone worker peaks at 1, and a
  // pool never reads more busy workers than it has.
  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    pool.parallel_for(8, [&](std::size_t, unsigned) {
      pool.parallel_for(8, [](std::size_t, unsigned) {});
    });
    EXPECT_GE(pool.stats().busy_peak, 1u) << threads;
    EXPECT_LE(pool.stats().busy_peak, threads) << threads;
  }
}

TEST(ThreadPool, FirstExceptionWinsAndTheRestDrain) {
  // Every task throws; exactly one exception may surface at the join and
  // the pool must come back clean. Cancellation means some tasks never
  // run their body — but none may run after the join returns.
  ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  std::string message;
  try {
    pool.parallel_for(100, [&](std::size_t i, unsigned) {
      ran.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  const std::size_t ran_at_join = ran.load();
  EXPECT_EQ(message.rfind("boom ", 0), 0u) << message;
  EXPECT_GE(ran_at_join, 1u);
  EXPECT_LE(ran_at_join, 100u);
  // Drained, not abandoned: a fresh job sees a quiet pool.
  std::atomic<std::size_t> done{0};
  pool.parallel_for(40, [&](std::size_t, unsigned) {
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 40u);
  EXPECT_EQ(ran.load(), ran_at_join) << "late task ran after the join";
}

TEST(ThreadPool, ExceptionInsideNestedJobPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [&](std::size_t outer, unsigned) {
                          pool.parallel_for(8, [&](std::size_t inner,
                                                   unsigned) {
                            if (outer == 1 && inner == 3) {
                              throw std::runtime_error("inner boom");
                            }
                          });
                        }),
      std::runtime_error);
  std::atomic<std::size_t> done{0};
  pool.parallel_for(16, [&](std::size_t, unsigned) {
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 16u);
}

TEST(ThreadPool, ConcurrentExternalSubmittersShareOnePool) {
  // Two outside threads submit jobs to the same pool at once; each job's
  // indices must run exactly once and the joins must not cross-release.
  ThreadPool pool(3);
  constexpr std::size_t kCount = 300;
  std::vector<std::atomic<int>> a(kCount);
  std::vector<std::atomic<int>> b(kCount);
  std::thread other([&] {
    pool.parallel_for(kCount, [&](std::size_t i, unsigned) {
      b[i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  pool.parallel_for(kCount, [&](std::size_t i, unsigned) {
    a[i].fetch_add(1, std::memory_order_relaxed);
  });
  other.join();
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(a[i].load(), 1) << "job a index " << i;
    ASSERT_EQ(b[i].load(), 1) << "job b index " << i;
  }
}

TEST(ThreadPool, JitterHookDelaysButNeverChangesResults) {
  // The CI stealing-stress hook: per-task busy-wait jitter shuffles the
  // schedule, the computed results must not move.
  const unsigned saved = ThreadPool::task_jitter_us();
  ThreadPool::set_task_jitter_us(200);
  ThreadPool pool(4);
  std::vector<std::uint64_t> out(512, 0);
  pool.parallel_for(out.size(), [&](std::size_t i, unsigned) {
    out[i] = i * i;
  });
  ThreadPool::set_task_jitter_us(saved);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<std::uint64_t>(i) * i);
  }
}

}  // namespace
}  // namespace acoustic::runtime
