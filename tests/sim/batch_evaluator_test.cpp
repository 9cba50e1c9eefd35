// Determinism suite for the parallel batch evaluator: N-thread runs must
// be bit-identical to 1-thread runs for every backend, and the merged
// stats must equal what a single executor accumulates serially.
#include "sim/batch_evaluator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "runtime/thread_pool.hpp"
#include "sim/backend.hpp"
#include "sim/sc_network.hpp"
#include "train/dataset.hpp"
#include "train/models.hpp"

namespace acoustic::sim {
namespace {

nn::Network make_net(nn::AccumMode mode = nn::AccumMode::kOrApprox) {
  return train::build_lenet_small(mode, 16);
}

train::Dataset make_data(std::size_t count) {
  return train::make_synth_digits(count, 4321, 16);
}

ScConfig small_sc() {
  ScConfig cfg;
  cfg.stream_length = 32;
  return cfg;
}

void expect_same_result(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.stats, b.stats);
}

TEST(BatchEvaluator, EmptyDatasetThrows) {
  nn::Network net = make_net();
  const auto backend = make_float_backend(net);
  BatchEvaluator evaluator(1);
  EXPECT_THROW((void)evaluator.evaluate(*backend, train::Dataset{}),
               std::invalid_argument);
}

TEST(BatchEvaluator, EvaluateScRejectsEmptyDatasetToo) {
  nn::Network net = make_net();
  const auto backend = make_sc_backend(net, small_sc());
  BatchEvaluator evaluator(1);
  EXPECT_THROW((void)evaluator.evaluate(*backend, train::Dataset{}),
               std::invalid_argument);
}

TEST(BatchEvaluator, ThreadsAccessorReflectsPoolSize) {
  EXPECT_EQ(BatchEvaluator(1).threads(), 1u);
  EXPECT_EQ(BatchEvaluator(3).threads(), 3u);
  EXPECT_GE(BatchEvaluator(0).threads(), 1u);
}

TEST(BatchEvaluator, ScDeterministicAcrossThreadCounts) {
  nn::Network net = make_net();
  const train::Dataset data = make_data(10);
  const auto backend = make_sc_backend(net, small_sc());
  BatchEvaluator serial(1);
  BatchEvaluator wide(4);
  const EvalResult one = serial.evaluate(*backend, data);
  const EvalResult four = wide.evaluate(*backend, data);
  EXPECT_EQ(one.threads, 1u);
  EXPECT_EQ(four.threads, 4u);
  expect_same_result(one, four);
}

TEST(BatchEvaluator, FloatDeterministicAcrossThreadCounts) {
  nn::Network net = make_net();
  const train::Dataset data = make_data(10);
  const auto backend = make_float_backend(net);
  const EvalResult one = BatchEvaluator(1).evaluate(*backend, data);
  const EvalResult four = BatchEvaluator(4).evaluate(*backend, data);
  expect_same_result(one, four);
}

TEST(BatchEvaluator, BipolarDeterministicAcrossThreadCounts) {
  nn::Network net = make_net(nn::AccumMode::kSum);
  const train::Dataset data = make_data(8);
  BipolarConfig cfg;
  cfg.stream_length = 32;
  const auto backend = make_bipolar_backend(net, cfg);
  const EvalResult one = BatchEvaluator(1).evaluate(*backend, data);
  const EvalResult four = BatchEvaluator(4).evaluate(*backend, data);
  expect_same_result(one, four);
}

TEST(BatchEvaluator, RepeatedRunsAreIdentical) {
  nn::Network net = make_net();
  const train::Dataset data = make_data(6);
  const auto backend = make_sc_backend(net, small_sc());
  BatchEvaluator evaluator(2);
  expect_same_result(evaluator.evaluate(*backend, data),
                     evaluator.evaluate(*backend, data));
}

TEST(BatchEvaluator, PrototypeNeverRunsSamples) {
  nn::Network net = make_net();
  const train::Dataset data = make_data(4);
  const auto backend = make_sc_backend(net, small_sc());
  (void)BatchEvaluator(2).evaluate(*backend, data);
  EXPECT_EQ(backend->stats(), RunStats{});
}

TEST(BatchEvaluator, MergedStatsMatchSerialExecutor) {
  // The evaluator's merged stats must equal what one raw ScNetwork
  // accumulates over the same dataset, regardless of sharding.
  nn::Network net = make_net();
  const train::Dataset data = make_data(6);

  ScNetwork raw(net, small_sc());
  std::size_t raw_correct = 0;
  for (const train::Sample& s : data.samples) {
    if (static_cast<int>(raw.forward(s.image).argmax()) == s.label) {
      ++raw_correct;
    }
  }
  const RunStats raw_stats = raw.take_stats();

  const auto backend = make_sc_backend(net, small_sc());
  const EvalResult result = BatchEvaluator(3).evaluate(*backend, data);
  EXPECT_EQ(result.correct, raw_correct);
  EXPECT_EQ(result.stats.samples, data.size());
  EXPECT_EQ(result.stats.layers_run, raw_stats.layers_run);
  EXPECT_EQ(result.stats.product_bits, raw_stats.product_bits);
  EXPECT_EQ(result.stats.skipped_operands, raw_stats.skipped_operands);
}

TEST(BatchEvaluator, LatencyPercentilesAreOrdered) {
  nn::Network net = make_net();
  const train::Dataset data = make_data(8);
  const auto backend = make_float_backend(net);
  const EvalResult result = BatchEvaluator(2).evaluate(*backend, data);
  EXPECT_GT(result.latency.mean_us, 0.0);
  EXPECT_LE(result.latency.p50_us, result.latency.p90_us);
  EXPECT_LE(result.latency.p90_us, result.latency.p99_us);
  EXPECT_LE(result.latency.p99_us, result.latency.max_us);
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GT(result.throughput_sps, 0.0);
}

TEST(BatchEvaluator, SchedulerStatsArePopulated) {
  nn::Network net = make_net();
  const train::Dataset data = make_data(8);
  const auto backend = make_sc_backend(net, small_sc());
  BatchEvaluator evaluator(3);
  const EvalResult result = evaluator.evaluate(*backend, data);
  EXPECT_EQ(result.sched.workers, 3u);
  // At least one chunk per image; intra-image row subtasks may add more.
  EXPECT_GE(result.sched.tasks, data.size());
  EXPECT_GE(result.sched.busy_peak, 1u);
  EXPECT_LE(result.sched.busy_peak, 3u);
  EXPECT_GT(result.sched.occupancy(), 0.0);
  EXPECT_LE(result.sched.occupancy(), 1.0);
}

TEST(BatchEvaluator, SchedulerStatsArePerRun) {
  // A one-image run on serial layers is one task on one worker, whatever
  // peak an earlier run of the same evaluator reached.
  nn::Network net = make_net();
  ScConfig cfg = small_sc();
  cfg.intra_threads = 1;
  const auto backend = make_sc_backend(net, cfg);
  BatchEvaluator evaluator(4);
  (void)evaluator.evaluate(*backend, make_data(1));
  const EvalResult wide = evaluator.evaluate(*backend, make_data(16));
  EXPECT_EQ(wide.sched.tasks, 16u);
  EXPECT_LE(wide.sched.busy_peak, 4u);
  const EvalResult last = evaluator.evaluate(*backend, make_data(1));
  EXPECT_EQ(last.sched.tasks, 1u);
  EXPECT_EQ(last.sched.busy_peak, 1u);
  EXPECT_EQ(last.sched.occupancy(), 0.25);
}

TEST(BatchEvaluator, NestedIntraImageStealingStaysDeterministic) {
  // The unified-scheduler stress case: image tasks AND per-image row
  // subtasks share one work-stealing pool (an explicit intra_threads
  // count skips the auto work gate, so every conv/dense layer forks row
  // jobs into the evaluator's pool), while per-chunk jitter scrambles the
  // schedule.
  // Accuracy, per-sample correctness and merged stats must still equal
  // the serial single-thread run exactly.
  const unsigned saved = runtime::ThreadPool::task_jitter_us();
  runtime::ThreadPool::set_task_jitter_us(100);
  nn::Network net = make_net();
  const train::Dataset data = make_data(8);
  ScConfig cfg = small_sc();
  cfg.intra_threads = 4;  // every layer forks row subtasks
  const auto backend = make_sc_backend(net, cfg);
  BatchEvaluator serial(1);
  BatchEvaluator wide(4);
  const EvalResult one = serial.evaluate(*backend, data);
  const EvalResult four = wide.evaluate(*backend, data);
  runtime::ThreadPool::set_task_jitter_us(saved);
  // scratch_bytes is the one stat that legitimately depends on the worker
  // count here: the arena carves one WorkerState span per pool worker when
  // the row sharding engages (serial forwards carve none). Every computed
  // quantity must still match exactly.
  EvalResult four_cmp = four;
  four_cmp.sched = one.sched;
  four_cmp.stats.scratch_bytes = one.stats.scratch_bytes;
  four_cmp.threads = one.threads;
  four_cmp.wall_seconds = one.wall_seconds;
  four_cmp.throughput_sps = one.throughput_sps;
  four_cmp.latency = one.latency;
  expect_same_result(one, four_cmp);
  // The nested row jobs really ran through the shared pool: more chunks
  // than images on the wide run.
  EXPECT_GT(four.sched.tasks, static_cast<std::uint64_t>(data.size()));
}

TEST(BatchEvaluator, MoreThreadsThanSamples) {
  nn::Network net = make_net();
  const train::Dataset data = make_data(2);
  const auto backend = make_float_backend(net);
  const EvalResult one = BatchEvaluator(1).evaluate(*backend, data);
  const EvalResult many = BatchEvaluator(6).evaluate(*backend, data);
  expect_same_result(one, many);
}

}  // namespace
}  // namespace acoustic::sim
