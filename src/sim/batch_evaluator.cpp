#include "sim/batch_evaluator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/bench_harness.hpp"

namespace acoustic::sim {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

BatchEvaluator::BatchEvaluator(unsigned threads) : pool_(threads) {}

EvalResult BatchEvaluator::evaluate(InferenceBackend& prototype,
                                    const train::Dataset& data,
                                    const EvalHooks& hooks) {
  if (data.size() == 0) {
    throw std::invalid_argument(
        "BatchEvaluator: refusing to evaluate an empty dataset");
  }
  const std::size_t n = data.size();
  const unsigned workers = pool_.size();

  // Phase spans carry the hooks' hardware counters (when given), so the
  // profile attributes cycles/instructions to setup vs run vs reduce.
  // Track 0 is fine: phases are sequential on the calling thread.
  // One clone per worker; the prototype only serves as the template.
  obs::Span setup_span(hooks.profiler, "setup", "phase", 0, 0);
  setup_span.attach(hooks.counters);
  std::vector<std::unique_ptr<InferenceBackend>> clones;
  clones.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    clones.push_back(prototype.clone());
    if (hooks.profiler != nullptr) {
      // Each clone reports per-layer spans on its worker's timeline lane.
      clones.back()->set_profiler(hooks.profiler, w);
    }
  }
  setup_span.close();

  // Per-sample slots: disjoint writes, no synchronization needed.
  std::vector<std::uint8_t> correct(n, 0);
  std::vector<double> latency_us(n, 0.0);
  std::atomic<std::size_t> done{0};

  // One reused logits tensor per worker: after each clone's warm-up image
  // has sized it (and the clone's internal scratch), the steady-state
  // per-image loop performs no heap allocation (SC backend; asserted by
  // tests/sim/alloc_test.cpp). The span name is only built when a
  // profiler is attached — string construction would otherwise allocate
  // on every image.
  std::vector<nn::Tensor> logits(workers);

  const Clock::time_point run_start = Clock::now();
  pool_.reset_busy_peak();
  const runtime::ThreadPool::Stats sched_before = pool_.stats();
  obs::Span run_span(hooks.profiler, "run", "phase", 0, 1);
  run_span.attach(hooks.counters);
  pool_.parallel_for(n, [&](std::size_t i, unsigned worker) {
    const train::Sample& sample = data.samples[i];
    obs::Span span(hooks.profiler,
                   hooks.profiler != nullptr ? "image " + std::to_string(i)
                                             : std::string(),
                   "image", worker, static_cast<std::uint32_t>(i));
    const Clock::time_point t0 = Clock::now();
    clones[worker]->forward_into(sample.image, logits[worker]);
    const Clock::time_point t1 = Clock::now();
    span.close();
    correct[i] =
        static_cast<int>(logits[worker].argmax()) == sample.label ? 1 : 0;
    latency_us[i] =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    if (hooks.progress) {
      hooks.progress(done.fetch_add(1, std::memory_order_relaxed) + 1, n);
    }
  });
  run_span.close();
  const double wall =
      std::chrono::duration<double>(Clock::now() - run_start).count();
  // Per-run scheduler figures: tasks/steals are lifetime counters, so the
  // difference isolates this run, and the peak restarted before it. Image
  // tasks plus the intra-image row units of sharded layers (ScNetwork
  // nests its row jobs into this pool).
  const runtime::ThreadPool::Stats sched_after = pool_.stats();

  obs::Span reduce_span(hooks.profiler, "reduce", "phase", 0, 2);
  reduce_span.attach(hooks.counters);
  EvalResult result;
  result.backend = prototype.name();
  result.threads = workers;
  result.samples = n;
  for (const std::uint8_t c : correct) {
    result.correct += c;
  }
  result.accuracy =
      static_cast<float>(result.correct) / static_cast<float>(n);
  // Merge clone stats in worker order; all fields are additive, so the
  // total is independent of which worker ran which sample.
  for (auto& clone : clones) {
    result.stats.merge(clone->take_stats());
  }
  result.wall_seconds = wall;
  result.throughput_sps = wall > 0.0 ? static_cast<double>(n) / wall : 0.0;
  result.sched.workers = workers;
  result.sched.tasks = sched_after.tasks - sched_before.tasks;
  result.sched.steals = sched_after.steals - sched_before.steals;
  result.sched.busy_peak = sched_after.busy_peak;

  std::vector<double> sorted = latency_us;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (const double v : sorted) {
    sum += v;
  }
  result.latency.mean_us = sum / static_cast<double>(n);
  result.latency.p50_us = obs::percentile(sorted, 0.50);
  result.latency.p90_us = obs::percentile(sorted, 0.90);
  result.latency.p99_us = obs::percentile(sorted, 0.99);
  result.latency.max_us = sorted.back();
  return result;
}

void export_metrics(const EvalResult& result, obs::Registry& registry) {
  registry.add("eval.samples", result.samples);
  registry.describe("eval.samples", "Images evaluated");
  registry.add("eval.correct", result.correct);
  registry.describe("eval.correct", "Top-1 correct predictions");
  registry.set("eval.accuracy",
               result.samples > 0
                   ? static_cast<double>(result.correct) /
                         static_cast<double>(result.samples)
                   : 0.0);
  registry.describe("eval.accuracy", "Top-1 accuracy (correct / samples)");
  registry.add("sim.samples", result.stats.samples);
  registry.add("sim.layers_run", result.stats.layers_run);
  registry.add("sc.product_bits", result.stats.product_bits);
  registry.describe("sc.product_bits",
                    "Stochastic AND-product bits actually computed");
  registry.add("sc.skipped_operands", result.stats.skipped_operands);
  registry.describe("sc.skipped_operands",
                    "Zero-operand products skipped by operand gating");
  registry.add("sc.stream_bits_generated",
               result.stats.stream_bits_generated);
  registry.add("sc.stream_bits_reused", result.stats.stream_bits_reused);
  registry.add("sc.plan_hits", result.stats.plan_hits);
  registry.add("sc.plan_misses", result.stats.plan_misses);
  // Gauge, not a counter: the steady-state per-forward scratch footprint
  // (max across clones, identical for each). Thread-count invariant only
  // while no node shards: a sharded node carves one scratch state per
  // pool worker, so the gauge then grows with the thread count. Under
  // auto a node shards only when the run has fewer images than workers.
  registry.set("sc.scratch_bytes",
               static_cast<double>(result.stats.scratch_bytes));
  registry.describe("sc.scratch_bytes",
                    "Steady-state per-forward scratch arena bytes");
}

void export_scheduler_metrics(const EvalResult& result,
                              obs::Registry& registry) {
  registry.add("sc.task_count", result.sched.tasks);
  registry.describe("sc.task_count",
                    "Scheduler tasks the evaluation pool executed: one per "
                    "image, plus one per row unit of a sharded layer");
  registry.add("sc.steal_count", result.sched.steals);
  registry.describe("sc.steal_count",
                    "Tasks executed off another worker's deque — the "
                    "work-stealing load-rebalance count");
  registry.set("sc.pool_occupancy", result.sched.occupancy());
  registry.describe("sc.pool_occupancy",
                    "Peak concurrently busy workers / pool size (1.0 = "
                    "the whole pool was simultaneously busy at least once)");
}

}  // namespace acoustic::sim
