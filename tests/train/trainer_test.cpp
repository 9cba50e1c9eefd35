#include "train/trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "nn/pool.hpp"
#include "train/models.hpp"

namespace acoustic::train {
namespace {

TrainConfig quick_config(int epochs) {
  TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.batch_size = 8;
  cfg.learning_rate = 0.05f;
  return cfg;
}

TEST(Trainer, LossDecreasesOnDigits) {
  const Dataset data = make_synth_digits(300, 21, 16);
  nn::Network net = build_lenet_small(nn::AccumMode::kSum, 16);
  const TrainStats stats = fit(net, data, quick_config(4));
  ASSERT_EQ(stats.epoch_loss.size(), 4u);
  EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());
  EXPECT_GT(stats.epoch_accuracy.back(), stats.epoch_accuracy.front());
}

TEST(Trainer, OrApproxModeAlsoLearns) {
  const Dataset data = make_synth_digits(300, 22, 16);
  nn::Network net = build_lenet_small(nn::AccumMode::kOrApprox, 16);
  const TrainStats stats = fit(net, data, quick_config(4));
  EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());
}

TEST(Trainer, WeightsStayClipped) {
  const Dataset data = make_synth_digits(100, 23, 16);
  nn::Network net = build_lenet_small(nn::AccumMode::kOrApprox, 16);
  TrainConfig cfg = quick_config(2);
  cfg.learning_rate = 0.5f;  // aggressive, to hit the clip
  (void)fit(net, data, cfg);
  for (nn::ParamView& p : net.parameters()) {
    for (float w : p.values) {
      EXPECT_LE(std::fabs(w), 1.0f);
    }
  }
}

TEST(Trainer, DeterministicGivenSeeds) {
  const Dataset data = make_synth_digits(100, 24, 16);
  nn::Network a = build_lenet_small(nn::AccumMode::kSum, 16);
  nn::Network b = build_lenet_small(nn::AccumMode::kSum, 16);
  const TrainStats sa = fit(a, data, quick_config(2));
  const TrainStats sb = fit(b, data, quick_config(2));
  EXPECT_EQ(sa.epoch_loss, sb.epoch_loss);
}

TEST(Trainer, RejectsEmptyDataset) {
  // An empty set has no mean loss or accuracy to record: fit refuses it
  // instead of writing NaN for every epoch. Zero epochs touch no sample.
  const Dataset empty;
  nn::Network net = build_lenet_small(nn::AccumMode::kSum, 16);
  EXPECT_THROW((void)fit(net, empty, quick_config(1)), std::invalid_argument);
  const TrainStats none = fit(net, empty, quick_config(0));
  EXPECT_TRUE(none.epoch_loss.empty());
  EXPECT_TRUE(none.epoch_accuracy.empty());
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

TEST(Trainer, ParameterDigestUnchanged) {
  // Absolute pins of the float training arithmetic: DeterministicGivenSeeds
  // compares two runs of the same code, so only fixed digests see a change
  // that moves every run alike. One epoch per AccumMode on the trainable
  // LeNet (conv, pooling, dense) and the residual net (skip blocks).
  const struct {
    nn::AccumMode mode;
    std::uint64_t lenet;
    std::uint64_t resnet;
  } cases[] = {{nn::AccumMode::kSum, 0xc7cbb53fc0eb0665ull,
                0x121705bd11a18e0dull},
               {nn::AccumMode::kOrApprox, 0x47fb22cbd816e56full,
                0xa6eda640d6b6db91ull},
               {nn::AccumMode::kOrExact, 0x31b9a07b09ca01caull,
                0xbcad965139dda271ull}};
  const Dataset digits = make_synth_digits(64, 41, 16);
  const Dataset objects = make_synth_objects(64, 43, 16);
  for (const auto& c : cases) {
    nn::Network lenet = build_lenet_small(c.mode, 16);
    (void)fit(lenet, digits, quick_config(1));
    EXPECT_EQ(parameter_digest(lenet), c.lenet)
        << "lenet mode " << static_cast<int>(c.mode);
    nn::Network resnet = build_resnet_tiny(c.mode, 16);
    (void)fit(resnet, objects, quick_config(1));
    EXPECT_EQ(parameter_digest(resnet), c.resnet)
        << "resnet-tiny mode " << static_cast<int>(c.mode);
  }
}

TEST(Evaluate, UntrainedIsNearChance) {
  const Dataset data = make_synth_digits(400, 25, 16);
  nn::Network net = build_lenet_small(nn::AccumMode::kSum, 16, 1234);
  const float acc = evaluate(net, data);
  EXPECT_LT(acc, 0.35f);  // 10 classes, untrained
}

TEST(Evaluate, EmptyDatasetIsZero) {
  Dataset empty;
  nn::Network net = build_lenet_small(nn::AccumMode::kSum, 16);
  EXPECT_EQ(evaluate(net, empty), 0.0f);
}

TEST(EvaluateQuantized, EightBitTracksFloat) {
  const Dataset train_set = make_synth_digits(400, 26, 16);
  const Dataset test_set = make_synth_digits(150, 27, 16);
  nn::Network net = build_lenet_small(nn::AccumMode::kSum, 16);
  (void)fit(net, train_set, quick_config(5));
  const float facc = evaluate(net, test_set);
  const float qacc = evaluate_quantized(net, test_set, 8);
  EXPECT_NEAR(qacc, facc, 0.05f);
}

TEST(EvaluateQuantized, RestoresFloatWeights) {
  const Dataset data = make_synth_digits(50, 28, 16);
  nn::Network net = build_lenet_small(nn::AccumMode::kSum, 16);
  auto params = net.parameters();
  std::vector<float> before(params[0].values.begin(),
                            params[0].values.end());
  (void)evaluate_quantized(net, data, 4);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(params[0].values[i], before[i]);
  }
}

TEST(EvaluateQuantized, VeryFewBitsHurtAccuracy) {
  const Dataset train_set = make_synth_digits(400, 29, 16);
  const Dataset test_set = make_synth_digits(150, 30, 16);
  nn::Network net = build_lenet_small(nn::AccumMode::kSum, 16);
  (void)fit(net, train_set, quick_config(5));
  const float q8 = evaluate_quantized(net, test_set, 8);
  const float q2 = evaluate_quantized(net, test_set, 2);
  EXPECT_LE(q2, q8 + 1e-6f);
}

TEST(Models, SetNetworkModeFlipsAllWeightedLayers) {
  nn::Network net = build_cifar_small(nn::AccumMode::kSum, 16);
  set_network_mode(net, nn::AccumMode::kOrApprox);
  int weighted = 0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (auto* conv = dynamic_cast<nn::Conv2D*>(&net.layer(i))) {
      EXPECT_EQ(conv->spec().mode, nn::AccumMode::kOrApprox);
      ++weighted;
    } else if (auto* dense = dynamic_cast<nn::Dense*>(&net.layer(i))) {
      EXPECT_EQ(dense->spec().mode, nn::AccumMode::kOrApprox);
      ++weighted;
    }
  }
  EXPECT_EQ(weighted, 3);
}

TEST(Models, MaxPoolVariantHasMaxPool) {
  nn::Network net = build_cifar_small_maxpool(nn::AccumMode::kSum, 16);
  bool has_max = false;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (dynamic_cast<nn::MaxPool2D*>(&net.layer(i)) != nullptr) {
      has_max = true;
    }
  }
  EXPECT_TRUE(has_max);
}

}  // namespace
}  // namespace acoustic::train
