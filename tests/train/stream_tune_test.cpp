#include "train/stream_tune.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/backend.hpp"
#include "sim/batch_evaluator.hpp"
#include "train/models.hpp"

namespace acoustic::train {
namespace {

TEST(StreamTune, LossDecreasesUnderBitLevelForward) {
  const Dataset data = make_synth_digits(120, 61, 16);
  nn::Network net = build_lenet_small(nn::AccumMode::kOrApprox, 16);
  // Warm start so the fine-tuner works near a sensible operating point.
  TrainConfig warm;
  warm.epochs = 3;
  (void)fit(net, data, warm);

  sim::ScConfig sc;
  sc.stream_length = 32;  // short streams: where stream noise matters
  TrainConfig tune;
  tune.epochs = 2;
  tune.learning_rate = 0.02f;
  const TrainStats stats = fit_stream_aware(net, data, tune, sc);
  ASSERT_EQ(stats.epoch_loss.size(), 2u);
  EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front() + 0.05f);
}

TEST(StreamTune, ImprovesShortStreamAccuracy) {
  // Fine-tuning *through the bitstreams* adapts the weights to the exact
  // short-stream noise/quantization — accuracy at that stream length must
  // not regress, and typically improves.
  const Dataset train_set = make_synth_digits(250, 62, 16);
  const Dataset test_set = make_synth_digits(120, 63, 16);
  nn::Network net = build_lenet_small(nn::AccumMode::kOrApprox, 16);
  TrainConfig warm;
  warm.epochs = 4;
  (void)fit(net, train_set, warm);

  sim::ScConfig sc;
  sc.stream_length = 16;
  sim::BatchEvaluator evaluator(1);
  const float before =
      evaluator.evaluate(*sim::make_sc_backend(net, sc), test_set).accuracy;
  TrainConfig tune;
  tune.epochs = 2;
  tune.learning_rate = 0.02f;
  (void)fit_stream_aware(net, train_set, tune, sc);
  const float after =
      evaluator.evaluate(*sim::make_sc_backend(net, sc), test_set).accuracy;
  EXPECT_GE(after, before - 0.03f);
}

TEST(StreamTune, AccuracyMetricComesFromStochasticForward) {
  const Dataset data = make_synth_digits(60, 64, 16);
  nn::Network net = build_lenet_small(nn::AccumMode::kOrApprox, 16);
  sim::ScConfig sc;
  sc.stream_length = 32;
  TrainConfig tune;
  tune.epochs = 1;
  const TrainStats stats = fit_stream_aware(net, data, tune, sc);
  // An untrained network under bit-level forward is near chance.
  EXPECT_LT(stats.epoch_accuracy.front(), 0.5f);
}

/// FNV-1a over the float bytes of every parameter of @p net, in order.
std::uint64_t parameter_digest(nn::Network& net) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const nn::ParamView& p : net.parameters()) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(p.values.data());
    for (std::size_t i = 0; i < p.values.size_bytes(); ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  return h;
}

TEST(StreamTune, ParameterDigestUnchanged) {
  // Absolute pin of the stream-aware loop: the SC forward's logits drive
  // the loss, the float forward fills the backward caches (MaxPool's
  // argmax among them), then the gradient steps. One epoch on the
  // trainable LeNet at a 32-bit stream.
  const Dataset data = make_synth_digits(64, 41, 16);
  nn::Network net = build_lenet_small(nn::AccumMode::kOrApprox, 16);
  sim::ScConfig sc;
  sc.stream_length = 32;
  TrainConfig tune;
  tune.epochs = 1;
  (void)fit_stream_aware(net, data, tune, sc);
  EXPECT_EQ(parameter_digest(net), 0x85376561ef4e5417ull);
}

}  // namespace
}  // namespace acoustic::train
