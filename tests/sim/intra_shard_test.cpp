// Auto intra-image sharding (ScConfig::intra_threads == 0): a weighted
// node forks its row units only when the pool its forward runs on has
// workers the outermost job leaves idle and the node's estimated work
// reaches kShardMinWords. The decision reads the node, the config, the
// pool size and that job's task count alone, so outputs and counters equal
// the serial run, and repeated runs report the same RunStats.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "runtime/thread_pool.hpp"
#include "sc/rng.hpp"
#include "sim/backend.hpp"
#include "sim/batch_evaluator.hpp"
#include "sim/sc_network.hpp"
#include "train/dataset.hpp"

namespace acoustic::sim {
namespace {

constexpr int kSide = 8;
constexpr int kChannels = 16;

// Word-level work of a same-padded 3x3 conv over the 8x8x16 input at a
// one-word segment (stream 128): every tap is live somewhere, so the live
// field is 9 taps x 16 input channels.
constexpr std::size_t conv_work(int out_channels) {
  return std::size_t{kSide} * kSide * static_cast<std::size_t>(out_channels) *
         9 * kChannels;
}
constexpr int kBigOut = 16;   // 147,456 word-ops
constexpr int kSmallOut = 4;  // 36,864 word-ops
static_assert(conv_work(kBigOut) >= kShardMinWords);
static_assert(conv_work(kSmallOut) < kShardMinWords);

nn::ConvSpec conv3x3(int out_channels) {
  return nn::ConvSpec{.in_channels = kChannels,
                      .out_channels = out_channels,
                      .kernel = 3,
                      .padding = 1,
                      .mode = nn::AccumMode::kOrExact};
}

/// A node at or above the floor, then nodes below it: conv3x3(16->16),
/// ReLU, conv3x3(16->4), ReLU, dense(256->10).
nn::Network mixed_net() {
  nn::Network net;
  net.add<nn::Conv2D>(conv3x3(kBigOut)).initialize(701);
  net.add<nn::ReLU>();
  net.add<nn::Conv2D>(conv3x3(kSmallOut)).initialize(703);
  net.add<nn::ReLU>();
  net.add<nn::Dense>(nn::DenseSpec{.in_features = kSide * kSide * kSmallOut,
                                   .out_features = 10,
                                   .mode = nn::AccumMode::kOrExact})
      .initialize(707);
  return net;
}

/// The same net without its big node: every node is below the floor.
nn::Network small_net() {
  nn::Network net;
  net.add<nn::Conv2D>(conv3x3(kSmallOut)).initialize(703);
  net.add<nn::ReLU>();
  net.add<nn::Dense>(nn::DenseSpec{.in_features = kSide * kSide * kSmallOut,
                                   .out_features = 10,
                                   .mode = nn::AccumMode::kOrExact})
      .initialize(707);
  return net;
}

ScConfig auto_config() {
  ScConfig cfg;
  cfg.stream_length = 128;
  return cfg;  // intra_threads stays 0: the auto gate
}

nn::Tensor random_image(std::uint32_t seed) {
  nn::Tensor t(nn::Shape{kSide, kSide, kChannels});
  sc::XorShift32 rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.next_double());
  }
  return t;
}

train::Dataset make_data(std::size_t count) {
  train::Dataset data;
  for (std::size_t i = 0; i < count; ++i) {
    train::Sample s;
    s.image = random_image(static_cast<std::uint32_t>(900 + i));
    s.label = static_cast<int>(i % 10);
    data.samples.push_back(std::move(s));
  }
  return data;
}

struct PoolRun {
  nn::Tensor out;
  RunStats stats;
  std::uint64_t tasks = 0;  ///< pool tasks, the forward's own included
};

/// One forward of @p exec as the only task of @p pool, the way perfbench's
/// latency client runs it.
PoolRun forward_alone(runtime::ThreadPool& pool, ScNetwork& exec,
                      const nn::Tensor& input) {
  PoolRun run;
  const runtime::ThreadPool::Stats before = pool.stats();
  pool.parallel_for(1, [&](std::size_t, unsigned) {
    exec.forward_into(input, run.out);
  });
  run.tasks = pool.stats().tasks - before.tasks;
  run.stats = exec.take_stats();
  return run;
}

void expect_same_bytes(const nn::Tensor& got, const nn::Tensor& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                        got.size() * sizeof(float)),
            0);
}

TEST(IntraShard, NodeAtTheFloorForksWhenItsForwardRunsAlone) {
  // 4 workers, one task: 3 spare. Only the 8-row big conv forks (8 row
  // units, no channel blocks: rows >= workers), so the pool runs the
  // forward plus 8 units; the nodes below the floor stay serial.
  nn::Network net = mixed_net();
  const nn::Tensor x = random_image(11);
  ScConfig serial_cfg = auto_config();
  serial_cfg.intra_threads = 1;
  ScNetwork serial(net, serial_cfg);
  ScNetwork sharded(net, auto_config());
  runtime::ThreadPool pool(4);
  const PoolRun want = forward_alone(pool, serial, x);
  const PoolRun got = forward_alone(pool, sharded, x);
  EXPECT_EQ(want.tasks, 1u);
  EXPECT_EQ(got.tasks, 1u + kSide);
  expect_same_bytes(got.out, want.out);
  // Every counter but the scratch gauge, which counts one row-unit state
  // per pool worker once a node shards.
  RunStats got_cmp = got.stats;
  got_cmp.scratch_bytes = want.stats.scratch_bytes;
  EXPECT_EQ(got_cmp, want.stats);
  EXPECT_GT(got.stats.scratch_bytes, want.stats.scratch_bytes);
}

TEST(IntraShard, NodeBelowTheFloorNeverForks) {
  nn::Network net = small_net();
  ScNetwork exec(net, auto_config());
  runtime::ThreadPool pool(4);
  for (std::uint32_t seed = 21; seed < 24; ++seed) {
    EXPECT_EQ(forward_alone(pool, exec, random_image(seed)).tasks, 1u)
        << seed;
  }
}

TEST(IntraShard, RepeatedForwardsReportIdenticalStats) {
  // The decision reads no live idle count: every forward of one input,
  // under forced stealing or not, reports the same RunStats, the scratch
  // gauge included.
  nn::Network net = mixed_net();
  const nn::Tensor x = random_image(31);
  ScNetwork exec(net, auto_config());
  runtime::ThreadPool pool(4);
  const PoolRun first = forward_alone(pool, exec, x);
  const unsigned saved = runtime::ThreadPool::task_jitter_us();
  for (const unsigned jitter : {0u, 80u}) {
    runtime::ThreadPool::set_task_jitter_us(jitter);
    for (int rep = 0; rep < 3; ++rep) {
      const PoolRun again = forward_alone(pool, exec, x);
      const std::string label =
          "jitter " + std::to_string(jitter) + " rep " + std::to_string(rep);
      EXPECT_EQ(again.stats, first.stats) << label;
      EXPECT_EQ(again.tasks, first.tasks) << label;
      expect_same_bytes(again.out, first.out);
    }
  }
  runtime::ThreadPool::set_task_jitter_us(saved);
}

TEST(IntraShard, FullBatchForksNoUnit) {
  // A BatchEvaluator job of at least as many images as workers leaves none
  // idle: one task per image, and every stat (the scratch gauge included)
  // equals the one-worker run's. Fewer images than workers shard.
  nn::Network net = mixed_net();
  const auto backend = make_sc_backend(net, auto_config());
  BatchEvaluator serial(1);
  BatchEvaluator wide(4);
  for (const std::size_t images : {4u, 6u}) {
    const train::Dataset data = make_data(images);
    const EvalResult one = serial.evaluate(*backend, data);
    const EvalResult four = wide.evaluate(*backend, data);
    EXPECT_EQ(four.sched.tasks, images);
    EXPECT_EQ(four.stats, one.stats) << images;
    EXPECT_EQ(four.correct, one.correct) << images;
  }
  const EvalResult two = wide.evaluate(*backend, make_data(2));
  EXPECT_EQ(two.sched.tasks, 2u + 2u * kSide);
}

}  // namespace
}  // namespace acoustic::sim
