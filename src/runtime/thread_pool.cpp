#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace acoustic::runtime {

namespace {

/// Which pool (and which worker slot) the calling thread belongs to.
struct TlsBinding {
  ThreadPool* pool = nullptr;
  int worker = -1;
};
thread_local TlsBinding tl_binding;  // NOLINT(misc-use-internal-linkage)

/// splitmix64 finalizer: the deterministic (job, chunk) -> duration map
/// behind the jitter hook.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30U)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27U)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31U);
}

unsigned jitter_from_env() {
  const char* env = std::getenv("ACOUSTIC_SCHED_JITTER");
  if (env == nullptr) {
    return 0;
  }
  const int v = std::atoi(env);
  return v > 0 ? static_cast<unsigned>(v) : 0U;
}

std::atomic<unsigned> g_jitter_us{jitter_from_env()};

}  // namespace

/// One parallel_for() call. Lives on the caller's stack; every chunk holds
/// a pointer, and the join cannot return before remaining reaches zero, so
/// the lifetime is covered.
struct ThreadPool::Job {
  const std::function<void(std::size_t, unsigned)>* fn = nullptr;
  std::atomic<std::size_t> remaining{0};  ///< chunks not yet completed
  std::atomic<bool> cancelled{false};     ///< set on first exception: drain
  std::exception_ptr error;               ///< first thrown; guarded by done_mu_
  std::uint64_t serial = 0;               ///< jitter-hash salt
};

/// Per-worker state: a mutex-guarded ring deque of chunks plus the thread.
/// head/tail are ABSOLUTE positions (element p lives at p & (capacity-1),
/// capacity a power of two), which keeps resizing a pure re-hash. All ring
/// operations require mu to be held by the caller.
struct ThreadPool::Worker {
  std::mutex mu;
  std::vector<Chunk> ring;
  std::uint64_t head = 0;  ///< steal side (FIFO)
  std::uint64_t tail = 0;  ///< local side (LIFO)
  std::thread thread;

  [[nodiscard]] std::size_t queued() const noexcept {
    return static_cast<std::size_t>(tail - head);
  }

  /// Grows the ring so @p extra more chunks fit: at most ONE allocation
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
    std::vector<Chunk> next(cap);
    for (std::uint64_t p = head; p != tail; ++p) {
      next[p & (cap - 1)] = ring[p & (ring.size() - 1)];
    }
    ring.swap(next);
  }

  void push_back(const Chunk& chunk) noexcept {
    ring[tail & (ring.size() - 1)] = chunk;
    ++tail;
  }
  [[nodiscard]] Chunk pop_back() noexcept {
    --tail;
    return ring[tail & (ring.size() - 1)];
  }
  [[nodiscard]] Chunk pop_front() noexcept {
    const Chunk chunk = ring[head & (ring.size() - 1)];
    ++head;
    return chunk;
  }
  [[nodiscard]] const Chunk& back() const noexcept {
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
  // Execution-slot cap (see the header): more workers than cores still
  // give callers their per-worker scratch shards, but never more than
  // `cores` of them run at once.
  slots_ = std::min(n, hw);
  slots_free_ = slots_;
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

int ThreadPool::current_worker() noexcept { return tl_binding.worker; }

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

void ThreadPool::wake_workers() {
  // Empty critical section: a parking worker either already saw pending_
  // (checked under sleep_mu_) or is inside wait() and gets the notify —
  // taking the mutex here closes the check-then-sleep window.
  { const std::lock_guard<std::mutex> lock(sleep_mu_); }
  sleep_cv_.notify_all();
}

bool ThreadPool::try_pop_local(unsigned id, Chunk& out) {
  Worker& worker = *workers_[id];
  const std::lock_guard<std::mutex> lock(worker.mu);
  if (worker.queued() == 0) {
    return false;
  }
  out = worker.pop_back();
  pending_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool ThreadPool::try_pop_local_job(unsigned id, const Job* job, Chunk& out) {
  // Join discipline: ONLY chunks of the joining job may run here. The
  // job's chunks form a contiguous segment at the back of the own deque
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

bool ThreadPool::try_steal(unsigned id, Chunk& out) {
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

void ThreadPool::execute(const Chunk& chunk, unsigned worker, bool stolen) {
  Job& job = *chunk.job;
  if (stolen) {
    steals_.fetch_add(1, std::memory_order_relaxed);
  }
  const unsigned now_active = active_.fetch_add(1, std::memory_order_relaxed) + 1;
  unsigned peak = busy_peak_.load(std::memory_order_relaxed);
  while (now_active > peak &&
         !busy_peak_.compare_exchange_weak(peak, now_active,
                                           std::memory_order_relaxed)) {
  }
  const unsigned jitter = g_jitter_us.load(std::memory_order_relaxed);
  if (jitter != 0) {
    // Deterministic per-(job, chunk) busy-wait: perturbs which worker
    // reaches which chunk first (forcing steals) while the chunk results
    // stay a pure function of the indices.
    const std::uint64_t hash = mix64(job.serial ^ mix64(chunk.begin));
    const auto wait = std::chrono::microseconds(hash % (jitter + 1U));
    const auto until = std::chrono::steady_clock::now() + wait;
    while (std::chrono::steady_clock::now() < until) {
    }
  }
  if (!job.cancelled.load(std::memory_order_acquire)) {
    try {
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        (*job.fn)(i, worker);
      }
      tasks_.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(done_mu_);
        if (job.error == nullptr) {
          job.error = std::current_exception();
        }
      }
      // Drain: later chunks of this job complete without running.
      job.cancelled.store(true, std::memory_order_release);
    }
  }
  active_.fetch_sub(1, std::memory_order_relaxed);
  if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    const std::lock_guard<std::mutex> lock(done_mu_);
    done_cv_.notify_all();
  }
}

void ThreadPool::acquire_slot() {
  std::unique_lock<std::mutex> lock(sleep_mu_);
  sleep_cv_.wait(lock, [&] { return slots_free_ > 0; });
  --slots_free_;
}

void ThreadPool::release_slot() {
  {
    const std::lock_guard<std::mutex> lock(sleep_mu_);
    ++slots_free_;
  }
  sleep_cv_.notify_all();
}

void ThreadPool::worker_loop(unsigned id) {
  tl_binding = {this, static_cast<int>(id)};
  Chunk chunk;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(sleep_mu_);
      sleep_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) ||
               (slots_free_ > 0 &&
                pending_.load(std::memory_order_acquire) > 0);
      });
      if (stop_.load(std::memory_order_acquire)) {
        return;
      }
      --slots_free_;
    }
    // Slot held: drain every chunk in reach. Keeping the slot across
    // chunks is what makes oversubscribed big tasks run back-to-back
    // cache-warm instead of timeslicing against each other.
    for (;;) {
      if (try_pop_local(id, chunk)) {
        execute(chunk, id, /*stolen=*/false);
      } else if (try_steal(id, chunk)) {
        execute(chunk, id, /*stolen=*/true);
      } else {
        break;
      }
    }
    release_slot();
  }
}

void ThreadPool::parallel_for(
    std::size_t count, const std::function<void(std::size_t, unsigned)>& fn,
    std::size_t grain) {
  if (count == 0) {
    return;
  }
  if (grain == 0) {
    grain = 1;
  }
  const unsigned n = size();
  const std::size_t chunks = (count + grain - 1) / grain;

  Job job;
  job.fn = &fn;
  job.serial = job_serial_.fetch_add(1, std::memory_order_relaxed) + 1;
  job.remaining.store(chunks, std::memory_order_relaxed);

  const TlsBinding binding = tl_binding;
  const bool nested = binding.pool == this;
  if (nested) {
    // Nested job: all chunks go onto the calling worker's own deque, in
    // REVERSE index order — its back-pops then run 0, 1, 2, ... while
    // thieves (front side) start from the high end after clearing any
    // older outer chunks queued below.
    const auto home = static_cast<unsigned>(binding.worker);
    Worker& worker = *workers_[home];
    {
      const std::lock_guard<std::mutex> lock(worker.mu);
      worker.reserve(chunks);
      for (std::size_t c = chunks; c-- > 0;) {
        const std::size_t begin = c * grain;
        worker.push_back(Chunk{&job, begin, std::min(count, begin + grain)});
      }
    }
    pending_.fetch_add(chunks, std::memory_order_release);
    wake_workers();
    // Help-first join: run own-job chunks until none are left, then BLOCK
    // until the thieves' in-flight chunks complete. Executing anything
    // else here would nest an unrelated task under this frame, and own
    // chunks can never reappear once the local segment is drained (only
    // the owner pushes, thieves only remove), so there is nothing to poll
    // for — spinning here burned whole scheduler quanta on oversubscribed
    // hosts (measured 3.3x throughput loss at 4 threads on 1 CPU).
    Chunk chunk;
    while (try_pop_local_job(home, &job, chunk)) {
      execute(chunk, home, /*stolen=*/false);
    }
    if (job.remaining.load(std::memory_order_acquire) != 0) {
      // Hand the execution slot back while blocked: the in-flight chunks
      // are with thieves — or still buried in our deque under a
      // concurrent external job's pushes — and on a fully subscribed
      // host those workers need our slot to finish them. Reacquire
      // before resuming the enclosing chunk.
      release_slot();
      {
        std::unique_lock<std::mutex> lock(done_mu_);
        done_cv_.wait(lock, [&] {
          return job.remaining.load(std::memory_order_acquire) == 0;
        });
      }
      acquire_slot();
    }
  } else {
    // External job: round-robin the chunks across every worker deque and
    // block; stealing rebalances whatever the static spread got wrong.
    for (unsigned w = 0; w < n; ++w) {
      const std::size_t mine = chunks / n + (w < chunks % n ? 1 : 0);
      if (mine == 0) {
        continue;
      }
      Worker& worker = *workers_[w];
      const std::lock_guard<std::mutex> lock(worker.mu);
      worker.reserve(mine);
      for (std::size_t c = w; c < chunks; c += n) {
        const std::size_t begin = c * grain;
        worker.push_back(Chunk{&job, begin, std::min(count, begin + grain)});
      }
    }
    pending_.fetch_add(chunks, std::memory_order_release);
    wake_workers();
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [&] {
      return job.remaining.load(std::memory_order_acquire) == 0;
    });
  }

  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(done_mu_);
    error = job.error;
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

}  // namespace acoustic::runtime
