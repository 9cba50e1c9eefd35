// Parallel, deterministic dataset evaluation over an InferenceBackend.
//
// The evaluator shards a train::Dataset across per-thread clones of a
// backend on a reusable thread pool. Determinism contract: accuracy,
// per-sample correctness and the merged RunStats are bit-identical for any
// thread count, because (a) every backend clone is an independent twin of
// the same snapshot (fresh SNG scratch, no shared mutable state), (b) each
// sample's forward pass is a pure function of (weights, config, sample) —
// the SNG seeding in StreamBank is per-sample deterministic — and (c) all
// merged quantities are order-insensitive sums. Only the wall-clock fields
// (latency percentiles, throughput) vary run to run.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/backend.hpp"
#include "train/dataset.hpp"

namespace acoustic::sim {

/// Per-sample forward-latency distribution, microseconds.
struct LatencyStats {
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

/// Work-stealing scheduler telemetry for one evaluate() run. Wall-clock
/// flavored: which worker stole which task depends on OS scheduling, so
/// NONE of this is covered by the determinism contract — it is exported
/// next to the timing fields (eval JSON "timing" section, --verbose,
/// Prometheus scrapes), never into the deterministic "metrics" section.
struct SchedulerStats {
  unsigned workers = 0;       ///< pool size the run used
  std::uint64_t tasks = 0;    ///< tasks the pool executed during the run
  std::uint64_t steals = 0;   ///< tasks run off another worker's deque
  unsigned busy_peak = 0;     ///< max concurrently busy workers in the run
  /// Pool occupancy in [0, 1]: peak concurrently busy workers / pool size.
  [[nodiscard]] double occupancy() const noexcept {
    return workers > 0 ? static_cast<double>(busy_peak) /
                             static_cast<double>(workers)
                       : 0.0;
  }
};

/// Structured result of one dataset evaluation. export_metrics writes its
/// deterministic part; `acoustic eval --json` prints the rest under
/// "timing".
struct EvalResult {
  std::string backend;        ///< InferenceBackend::name()
  unsigned threads = 1;       ///< worker threads used
  std::size_t samples = 0;
  std::size_t correct = 0;    ///< top-1 hits
  float accuracy = 0.0f;      ///< correct / samples
  RunStats stats;             ///< merged across all clones
  double wall_seconds = 0.0;  ///< whole-run wall clock
  double throughput_sps = 0.0;  ///< samples / wall_seconds
  LatencyStats latency;
  SchedulerStats sched;       ///< nondeterministic; see SchedulerStats
};

/// Optional observability attachments for one evaluate() call. Both hooks
/// are invoked from worker threads; the profiler is thread-safe by
/// construction, the progress callback must be too (the CLI throttles
/// with an atomic).
struct EvalHooks {
  /// Receives one category-"image" span per sample (track = worker index,
  /// seq = sample index), the per-layer spans of every backend clone, and
  /// — when a profiler is attached — one category-"phase" span per
  /// evaluate() phase ("setup" = clone creation, "run" = the parallel
  /// sample loop, "reduce" = stats merge + percentiles).
  obs::Profiler* profiler = nullptr;
  /// Started hardware-counter group (obs::PerfCounterGroup) whose deltas
  /// are appended to each phase span, attributing cycles / instructions /
  /// cache misses to the phases. To cover the pool workers the group
  /// needs Options::inherit AND must be constructed before the
  /// BatchEvaluator (inherit only reaches threads created afterwards);
  /// ignored without a profiler.
  obs::PerfCounterGroup* counters = nullptr;
  /// progress(done, total) after each completed sample.
  std::function<void(std::size_t done, std::size_t total)> progress;
};

class BatchEvaluator {
 public:
  /// @param threads worker count (0 = hardware concurrency). The pool is
  ///                created once and reused by every evaluate() call.
  explicit BatchEvaluator(unsigned threads = 0);

  [[nodiscard]] unsigned threads() const noexcept { return pool_.size(); }

  /// Evaluates top-1 accuracy of @p prototype on @p data. The prototype
  /// itself never runs a sample — each worker gets its own clone() — so a
  /// caller can keep reusing it. Throws std::invalid_argument on an empty
  /// dataset.
  [[nodiscard]] EvalResult evaluate(InferenceBackend& prototype,
                                    const train::Dataset& data,
                                    const EvalHooks& hooks = {});

 private:
  runtime::ThreadPool pool_;
};

/// Registers the DETERMINISTIC portion of @p result (counters sum across
/// worker shards; nothing wall-clock) under eval./sim./sc.:
/// eval.samples, eval.correct, gauge eval.accuracy, sim.samples,
/// sim.layers_run, sc.product_bits, sc.skipped_operands. Timing lives in
/// the EvalResult itself and is exported separately so the metrics
/// document stays byte-identical across thread counts.
void export_metrics(const EvalResult& result, obs::Registry& registry);

/// Registers the scheduler telemetry (sc.task_count, sc.steal_count,
/// gauge sc.pool_occupancy) with Prometheus HELP text. Kept OUT of
/// export_metrics on purpose: steal counts are scheduling-dependent, so
/// they belong with the nondeterministic exports (Prometheus scrapes,
/// human tables) exactly like the hw.* counters — never in the
/// byte-identical "metrics" JSON section.
void export_scheduler_metrics(const EvalResult& result,
                              obs::Registry& registry);

}  // namespace acoustic::sim
