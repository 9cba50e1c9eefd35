// Work-stealing scheduler shared by batch (image-level) and intra-image
// (row/neuron-level) SC execution.
//
// Every index of a parallel_for() is one task. Every worker owns a deque
// of tasks: local pops come from the back (LIFO — the task it pushed
// last, still cache-warm), steals come from the front (FIFO — the oldest
// work, which a stalled owner is furthest from reaching). parallel_for()
// may be called from ANY thread:
//
//   - an external thread distributes the tasks round-robin across the
//     worker deques and blocks until the job completes;
//   - a pool worker pushes the tasks onto its OWN deque and executes
//     them in place, so nested parallelism (a batch-evaluator image task
//     sharding its conv rows) joins the same pool instead of spawning a
//     second worker set that fights it for cores. While joining, a worker
//     only executes tasks of the job it is joining — never an unrelated
//     outer task — which bounds the stack depth and keeps single-owner
//     state (e.g. a backend clone mid-forward) single-owner.
//
// Scheduling is dynamic (which worker runs which task depends on timing),
// so callers that need deterministic RESULTS must make every index a pure
// function of its value, give each index a disjoint output slot, and
// reduce per-worker scratch with order-insensitive sums — the contract
// sim::BatchEvaluator and sim::ScNetwork build on. The golden suites pin
// that contract down under forced-stealing jitter (see set_task_jitter_us
// and the ACOUSTIC_SCHED_JITTER environment hook). No within-worker
// ordering is promised either: a worker may run its tasks in any order.
//
// Oversubscription guard: a pool may have more workers than the host has
// cores (worker count doubles as the per-thread-scratch shard count, so
// callers pick it freely), but only min(size, hardware cores) workers
// EXECUTE at once. A worker acquires an execution slot before draining
// work and keeps it while work remains, so on a saturated host large
// tasks run back-to-back cache-warm instead of timeslicing their working
// sets against each other (measured 2-3x throughput loss on 1 CPU with 4
// workers interleaving ResNet-sized images before the cap).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace acoustic::runtime {

class ThreadPool {
 public:
  /// Most workers one pool may have. A fixed ceiling, not an option: the
  /// CLI's thread-count flags reject larger values at parse time.
  static constexpr unsigned kMaxThreads = 1024;

  /// Starts @p threads workers (0 = std::thread::hardware_concurrency,
  /// itself clamped to [1, kMaxThreads]). Throws std::invalid_argument
  /// for @p threads above kMaxThreads before starting any worker. If a
  /// worker fails to start, stops and joins the ones already running and
  /// rethrows (a std::system_error).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs fn(index, worker) for every index in [0, count) across the pool
  /// and blocks until all indices have completed. Each index is one task,
  /// the unit of scheduling and stealing. worker is in [0, size()) and
  /// identifies which pool thread ran the index — callers use it to
  /// select per-thread scratch (e.g. a backend clone).
  ///
  /// If fn throws, the FIRST exception is rethrown here at the join and
  /// the remaining tasks are drained (counted complete without running),
  /// so the pool stays usable. Concurrent callers are allowed; a call
  /// from inside a pool worker runs as a nested job on the same workers.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t, unsigned)>& fn);

  /// Scheduler telemetry: lifetime counters (snapshot before and after a
  /// run and subtract for per-run deltas) and a resettable peak.
  struct Stats {
    std::uint64_t tasks = 0;   ///< tasks executed to completion
    std::uint64_t steals = 0;  ///< tasks executed off another worker's deque
    /// Max workers seen with a task in progress at once since the last
    /// reset_busy_peak(), at most size(). A worker running nested tasks
    /// inside its own counts once; one blocked in a nested join still
    /// counts while it lends its execution slot, so on an oversubscribed
    /// host this can exceed the core count.
    unsigned busy_peak = 0;
  };
  [[nodiscard]] Stats stats() const noexcept;
  /// Restarts busy_peak from the workers busy now, for a per-run peak.
  void reset_busy_peak() noexcept;

  /// The pool whose worker thread is calling, or nullptr from any other
  /// thread. Lets nested code (ScNetwork row sharding inside an evaluator
  /// image task) shard on the pool it already runs on.
  [[nodiscard]] static ThreadPool* current() noexcept;

  /// Workers the calling task's outermost job leaves idle: size() minus
  /// that job's task count, floored at 0, and 0 from any thread that is
  /// not running a task of this pool. The outermost job is the external
  /// parallel_for the task descends from, so a nested task reads the
  /// figure of the job that forked its parent on whichever worker runs
  /// it. A function of the pool size and that one count alone, never of
  /// which workers happen to be idle now, so a decision taken on it is
  /// deterministic (ScNetwork's auto sharding gate).
  [[nodiscard]] unsigned spare_workers() const noexcept;

  /// Test hook: busy-wait up to @p max_us microseconds before each task,
  /// for a duration that is a deterministic hash of (job, index) — it
  /// perturbs SCHEDULING (forcing heavy stealing) without perturbing any
  /// result, which is exactly what the stealing-determinism suites need.
  /// Also settable via the ACOUSTIC_SCHED_JITTER environment variable
  /// (read once at process start). 0 disables.
  static void set_task_jitter_us(unsigned max_us) noexcept;
  [[nodiscard]] static unsigned task_jitter_us() noexcept;

 private:
  struct Job;
  struct Task {
    Job* job = nullptr;
    std::size_t index = 0;
  };
  struct Worker;

  /// Wakes every worker to exit and joins the running ones.
  void stop_and_join();
  void worker_loop(unsigned id);
  void acquire_slot();
  void release_slot();
  bool try_pop_local(unsigned id, Task& out);
  bool try_pop_local_job(unsigned id, const Job* job, Task& out);
  bool try_steal(unsigned id, Task& out);
  void execute(const Task& task, unsigned worker, bool stolen);
  void wake_workers();

  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex done_mu_;  ///< guards Job::error; pairs with done_cv_
  std::condition_variable done_cv_;   ///< wakes external joiners
  std::mutex sleep_mu_;               ///< parking lot for idle workers
  std::condition_variable sleep_cv_;

  unsigned slots_ = 1;       ///< execution-slot cap: min(size, hw cores)
  unsigned slots_free_ = 1;  ///< guarded by sleep_mu_

  std::atomic<std::size_t> pending_{0};  ///< tasks queued, not yet popped
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> job_serial_{0};

  std::atomic<std::uint64_t> tasks_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<unsigned> active_{0};  ///< workers inside an outermost execute()
  std::atomic<unsigned> busy_peak_{0};
};

}  // namespace acoustic::runtime
