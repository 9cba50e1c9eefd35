#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>

namespace acoustic::runtime {

namespace {

/// Which pool (and which worker slot) the calling thread belongs to, how
/// many tasks it is running nested one inside another, and the task count
/// of the outermost job of the task it runs (0 between tasks).
struct TlsBinding {
  ThreadPool* pool = nullptr;
  unsigned worker = 0;
  unsigned depth = 0;
  std::size_t outer_tasks = 0;
};
thread_local TlsBinding tl_binding;  // NOLINT(misc-use-internal-linkage)

/// splitmix64 finalizer: the deterministic (job, index) -> duration map
/// behind the jitter hook.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30U)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27U)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31U);
}

/// ACOUSTIC_SCHED_JITTER as a whole decimal count of microseconds. Unset
/// or empty runs unjittered; anything else that is not such a count (a
/// unit suffix, a sign, a value past unsigned) warns once and does too.
unsigned jitter_from_env() {
  const char* env = std::getenv("ACOUSTIC_SCHED_JITTER");
  if (env == nullptr || *env == '\0') {
    return 0;
  }
  const char* end = env + std::strlen(env);
  unsigned us = 0;
  const auto [ptr, ec] = std::from_chars(env, end, us);
  if (ec != std::errc{} || ptr != end) {
    std::fprintf(stderr,
                 "acoustic: ACOUSTIC_SCHED_JITTER=%s is not a microsecond "
                 "count, running unjittered\n",
                 env);
    return 0;
  }
  return us;
}

std::atomic<unsigned> g_jitter_us{jitter_from_env()};

}  // namespace

/// One parallel_for() call. Lives on the caller's stack; every task holds
/// a pointer, and the join cannot return before remaining reaches zero, so
/// the lifetime is covered.
struct ThreadPool::Job {
  const std::function<void(std::size_t, unsigned)>* fn = nullptr;
  std::atomic<std::size_t> remaining{0};  ///< tasks not yet completed
  std::atomic<bool> cancelled{false};     ///< set on first exception: drain
  std::exception_ptr error;               ///< first thrown; guarded by done_mu_
  std::uint64_t serial = 0;               ///< jitter-hash salt
  std::size_t outer_tasks = 0;  ///< task count of the outermost job above
};

/// Per-worker state: a mutex-guarded ring deque of tasks plus the thread.
/// head/tail are ABSOLUTE positions (element p lives at p & (capacity-1),
/// capacity a power of two), which keeps resizing a pure re-hash. All ring
/// operations require mu to be held by the caller.
struct ThreadPool::Worker {
  std::mutex mu;
  std::vector<Task> ring;
  std::uint64_t head = 0;  ///< steal side (FIFO)
  std::uint64_t tail = 0;  ///< local side (LIFO)
  std::thread thread;

  [[nodiscard]] std::size_t queued() const noexcept {
    return static_cast<std::size_t>(tail - head);
  }

  /// Grows the ring so @p extra more tasks fit: at most ONE allocation
  /// per call regardless of extra, which keeps the evaluator's per-run
  /// allocation count independent of the image count (alloc_test).
  void reserve(std::size_t extra) {
    const std::size_t need = queued() + extra;
    if (need <= ring.size()) {
      return;
    }
    std::size_t cap = ring.empty() ? 16 : ring.size();
    while (cap < need) {
      cap *= 2;
    }
    std::vector<Task> next(cap);
    for (std::uint64_t p = head; p != tail; ++p) {
      next[p & (cap - 1)] = ring[p & (ring.size() - 1)];
    }
    ring.swap(next);
  }

  void push_back(const Task& task) noexcept {
    ring[tail & (ring.size() - 1)] = task;
    ++tail;
  }
  [[nodiscard]] Task pop_back() noexcept {
    --tail;
    return ring[tail & (ring.size() - 1)];
  }
  [[nodiscard]] Task pop_front() noexcept {
    const Task task = ring[head & (ring.size() - 1)];
    ++head;
    return task;
  }
  [[nodiscard]] const Task& back() const noexcept {
    return ring[(tail - 1) & (ring.size() - 1)];
  }
};

ThreadPool::ThreadPool(unsigned threads) {
  if (threads > kMaxThreads) {
    throw std::invalid_argument("ThreadPool: " + std::to_string(threads) +
                                " workers requested, at most " +
                                std::to_string(kMaxThreads));
  }
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  const unsigned n = threads != 0 ? threads : std::min(hw, kMaxThreads);
  workers_.reserve(n);
  for (unsigned id = 0; id < n; ++id) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Spawn only after workers_ is fully built: the loops index every slot.
  for (unsigned id = 0; id < n; ++id) {
    try {
      workers_[id]->thread = std::thread([this, id] { worker_loop(id); });
    } catch (...) {
      // A joinable std::thread must not be destroyed: stop and join the
      // workers already running before the exception leaves.
      stop_and_join();
      throw;
    }
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    const std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
}

ThreadPool* ThreadPool::current() noexcept { return tl_binding.pool; }

unsigned ThreadPool::spare_workers() const noexcept {
  const std::size_t outer = tl_binding.outer_tasks;
  if (tl_binding.pool != this || outer == 0 || outer >= size()) {
    return 0;
  }
  return size() - static_cast<unsigned>(outer);
}

void ThreadPool::set_task_jitter_us(unsigned max_us) noexcept {
  g_jitter_us.store(max_us, std::memory_order_relaxed);
}

unsigned ThreadPool::task_jitter_us() noexcept {
  return g_jitter_us.load(std::memory_order_relaxed);
}

ThreadPool::Stats ThreadPool::stats() const noexcept {
  return {tasks_.load(std::memory_order_relaxed),
          steals_.load(std::memory_order_relaxed),
          busy_peak_.load(std::memory_order_relaxed)};
}

void ThreadPool::reset_busy_peak() noexcept {
  busy_peak_.store(active_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
}

void ThreadPool::wake_workers() {
  // Empty critical section: a parking worker either already saw pending_
  // (checked under sleep_mu_) or is inside wait() and gets the notify —
  // taking the mutex here closes the check-then-sleep window.
  { const std::lock_guard<std::mutex> lock(sleep_mu_); }
  sleep_cv_.notify_all();
}

bool ThreadPool::try_pop_local(unsigned id, Task& out) {
  Worker& worker = *workers_[id];
  const std::lock_guard<std::mutex> lock(worker.mu);
  if (worker.queued() == 0) {
    return false;
  }
  out = worker.pop_back();
  pending_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool ThreadPool::try_pop_local_job(unsigned id, const Job* job, Task& out) {
  // Join discipline: ONLY tasks of the joining job may run here. The
  // job's tasks form a contiguous segment at the back of the own deque
  // (pushed last; thieves consume from the front), so one back test
  // suffices — and it is what prevents a joining worker from re-entering
  // an unrelated outer task (e.g. a second image on the same clone).
  Worker& worker = *workers_[id];
  const std::lock_guard<std::mutex> lock(worker.mu);
  if (worker.queued() == 0 || worker.back().job != job) {
    return false;
  }
  out = worker.pop_back();
  pending_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool ThreadPool::try_steal(unsigned id, Task& out) {
  const unsigned n = size();
  for (unsigned k = 1; k < n; ++k) {
    Worker& victim = *workers_[(id + k) % n];
    const std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.queued() == 0) {
      continue;
    }
    out = victim.pop_front();
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ThreadPool::execute(const Task& task, unsigned worker, bool stolen) {
  Job& job = *task.job;
  if (stolen) {
    steals_.fetch_add(1, std::memory_order_relaxed);
  }
  // A worker is busy once however deeply it nests: the tasks it runs
  // inside its own task (a nested join) do not count it again.
  const bool outermost = tl_binding.depth++ == 0;
  const std::size_t enclosing_outer = tl_binding.outer_tasks;
  tl_binding.outer_tasks = job.outer_tasks;
  if (outermost) {
    const unsigned now_active =
        active_.fetch_add(1, std::memory_order_relaxed) + 1;
    unsigned peak = busy_peak_.load(std::memory_order_relaxed);
    while (now_active > peak &&
           !busy_peak_.compare_exchange_weak(peak, now_active,
                                             std::memory_order_relaxed)) {
    }
  }
  const unsigned jitter = g_jitter_us.load(std::memory_order_relaxed);
  if (jitter != 0) {
    // Deterministic per-(job, index) busy-wait: perturbs which worker
    // reaches which task first (forcing steals) while the task results
    // stay a pure function of the indices.
    const std::uint64_t hash = mix64(job.serial ^ mix64(task.index));
    const auto wait = std::chrono::microseconds(hash % (jitter + 1U));
    const auto until = std::chrono::steady_clock::now() + wait;
    while (std::chrono::steady_clock::now() < until) {
    }
  }
  if (!job.cancelled.load(std::memory_order_acquire)) {
    try {
      (*job.fn)(task.index, worker);
      tasks_.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(done_mu_);
        if (job.error == nullptr) {
          job.error = std::current_exception();
        }
      }
      // Drain: later tasks of this job complete without running.
      job.cancelled.store(true, std::memory_order_release);
    }
  }
  if (outermost) {
    active_.fetch_sub(1, std::memory_order_relaxed);
  }
  tl_binding.outer_tasks = enclosing_outer;
  --tl_binding.depth;
  if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    const std::lock_guard<std::mutex> lock(done_mu_);
    done_cv_.notify_all();
  }
}

void ThreadPool::worker_loop(unsigned id) {
  tl_binding = {this, id, 0};
  Task task;
  // Own deque first, then steals; a worker that finds no task parks.
  for (;;) {
    if (try_pop_local(id, task)) {
      execute(task, id, /*stolen=*/false);
    } else if (try_steal(id, task)) {
      execute(task, id, /*stolen=*/true);
    } else {
      std::unique_lock<std::mutex> lock(sleep_mu_);
      sleep_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) ||
               pending_.load(std::memory_order_acquire) > 0;
      });
      if (stop_.load(std::memory_order_acquire)) {
        return;
      }
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t count, const std::function<void(std::size_t, unsigned)>& fn) {
  if (count == 0) {
    return;
  }
  const unsigned n = size();
  const bool nested = tl_binding.pool == this;
  const unsigned home = tl_binding.worker;

  Job job;
  job.fn = &fn;
  job.serial = job_serial_.fetch_add(1, std::memory_order_relaxed) + 1;
  job.remaining.store(count, std::memory_order_relaxed);
  // A nested job inherits the figure of the external job above it.
  job.outer_tasks = nested ? tl_binding.outer_tasks : count;

  if (nested) {
    // Nested job: all tasks go onto the calling worker's own deque, in
    // REVERSE index order — its back-pops then run 0, 1, 2, ... while
    // thieves (front side) start from the high end after clearing any
    // older outer tasks queued below.
    Worker& worker = *workers_[home];
    const std::lock_guard<std::mutex> lock(worker.mu);
    worker.reserve(count);
    for (std::size_t i = count; i-- > 0;) {
      worker.push_back(Task{&job, i});
    }
  } else {
    // External job: round-robin the tasks across every worker deque;
    // stealing rebalances whatever the static spread got wrong.
    for (unsigned w = 0; w < n; ++w) {
      const std::size_t mine = count / n + (w < count % n ? 1 : 0);
      if (mine == 0) {
        continue;
      }
      Worker& worker = *workers_[w];
      const std::lock_guard<std::mutex> lock(worker.mu);
      worker.reserve(mine);
      for (std::size_t i = w; i < count; i += n) {
        worker.push_back(Task{&job, i});
      }
    }
  }
  pending_.fetch_add(count, std::memory_order_release);
  wake_workers();

  if (nested) {
    // Help-first join: run own-job tasks until none are left, then BLOCK
    // below. Executing anything else here would nest an unrelated task
    // under this frame, and own tasks can never reappear once the local
    // segment is drained (only the owner pushes, thieves only remove), so
    // there is nothing to poll for — spinning here burned whole scheduler
    // quanta on oversubscribed hosts (measured 3.3x throughput loss at 4
    // threads on 1 CPU).
    Task task;
    while (try_pop_local_job(home, &job, task)) {
      execute(task, home, /*stolen=*/false);
    }
  }
  // Block until every task has completed. The rest are in flight with
  // thieves, or, for a nested job, still queued in our deque under a
  // concurrent external job's pushes, where only a thief reaches them.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [&] {
      return job.remaining.load(std::memory_order_acquire) == 0;
    });
    error = job.error;
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

}  // namespace acoustic::runtime
