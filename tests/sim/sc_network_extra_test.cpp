// Additional bit-level executor coverage: strided/1x1 convolutions,
// binary-domain max pooling, residual connections, and determinism.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/activation.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "sc/rng.hpp"
#include "sim/sc_network.hpp"
#include "train/models.hpp"

namespace acoustic::sim {
namespace {

nn::Tensor random_unit(nn::Shape shape, std::uint32_t seed) {
  nn::Tensor t(shape);
  sc::XorShift32 rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.next_double());
  }
  return t;
}

ScConfig accurate_config() {
  ScConfig cfg;
  cfg.stream_length = 8192;
  cfg.sng_width = 12;
  return cfg;
}

void expect_matches_reference(nn::Network& net, const nn::Tensor& x,
                              float tolerance = 0.05f) {
  const nn::Tensor reference = net.forward(x);
  ScNetwork executor(net, accurate_config());
  const nn::Tensor got = executor.forward(x);
  ASSERT_EQ(got.shape(), reference.shape());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], reference[i], tolerance) << "output " << i;
  }
}

TEST(ScNetworkExtra, StridedConvMatchesReference) {
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 2, .out_channels = 2, .kernel = 3, .stride = 2,
      .padding = 1, .mode = nn::AccumMode::kOrExact});
  conv.initialize(41);
  expect_matches_reference(net, random_unit(nn::Shape{9, 9, 2}, 3));
}

TEST(ScNetworkExtra, OneByOneConvMatchesReference) {
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 4, .out_channels = 6, .kernel = 1,
      .mode = nn::AccumMode::kOrExact});
  conv.initialize(43);
  expect_matches_reference(net, random_unit(nn::Shape{4, 4, 4}, 5));
}

TEST(ScNetworkExtra, MaxPoolRunsInBinaryDomain) {
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 1, .out_channels = 2, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kOrExact});
  net.add<nn::ReLU>();
  net.add<nn::MaxPool2D>(2);
  conv.initialize(47);
  expect_matches_reference(net, random_unit(nn::Shape{6, 6, 1}, 7), 0.06f);
}

TEST(ScNetworkExtra, ResidualNetworkMatchesReference) {
  nn::Network net = train::build_resnet_tiny(nn::AccumMode::kOrExact, 8, 9);
  expect_matches_reference(net, random_unit(nn::Shape{8, 8, 3}, 11), 0.12f);
}

TEST(ScNetworkExtra, BackToBackDenseLayers) {
  nn::Network net;
  auto& d1 = net.add<nn::Dense>(nn::DenseSpec{
      .in_features = 6, .out_features = 5, .mode = nn::AccumMode::kOrExact});
  net.add<nn::ReLU>();
  auto& d2 = net.add<nn::Dense>(nn::DenseSpec{
      .in_features = 5, .out_features = 3, .mode = nn::AccumMode::kOrExact});
  d1.initialize(51);
  d2.initialize(53);
  expect_matches_reference(net, random_unit(nn::Shape{1, 1, 6}, 13), 0.08f);
}

TEST(ScNetworkExtra, ForwardIsDeterministic) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox, 16);
  const nn::Tensor x = random_unit(nn::Shape{16, 16, 1}, 17);
  ScConfig cfg;
  cfg.stream_length = 128;
  ScNetwork a(net, cfg);
  ScNetwork b(net, cfg);
  const nn::Tensor ya = a.forward(x);
  const nn::Tensor yb = b.forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_EQ(ya[i], yb[i]);
  }
}

TEST(ScNetworkExtra, DifferentSeedsDifferentNoise) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox, 16);
  const nn::Tensor x = random_unit(nn::Shape{16, 16, 1}, 19);
  ScConfig a_cfg;
  a_cfg.stream_length = 64;
  ScConfig b_cfg = a_cfg;
  b_cfg.activation_seed = 0x1234;
  b_cfg.weight_seed = 0x8765;
  ScNetwork a(net, a_cfg);
  ScNetwork b(net, b_cfg);
  const nn::Tensor ya = a.forward(x);
  const nn::Tensor yb = b.forward(x);
  bool any_diff = false;
  for (std::size_t i = 0; i < ya.size(); ++i) {
    any_diff = any_diff || ya[i] != yb[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST(ScNetworkExtra, WeightsSnapshotAtConstruction) {
  // The executor copies the network's weights when it is built, so an edit
  // between forwards (retraining, as stream-aware fine-tuning does between
  // SGD steps) reaches the next executor built on the network, not this
  // one.
  nn::Network net;
  auto& dense = net.add<nn::Dense>(nn::DenseSpec{
      .in_features = 1, .out_features = 1, .mode = nn::AccumMode::kOrExact});
  dense.weights()[0] = 0.9f;
  nn::Tensor x = nn::Tensor::vector(1);
  x[0] = 1.0f;
  ScConfig cfg;
  cfg.stream_length = 4096;
  cfg.sng_width = 12;
  ScNetwork executor(net, cfg);
  const float before = executor.forward(x)[0];
  dense.weights()[0] = 0.1f;
  EXPECT_EQ(executor.forward(x)[0], before);
  const float after = ScNetwork(net, cfg).forward(x)[0];
  EXPECT_GT(before, 0.7f);
  EXPECT_LT(after, 0.3f);
}

}  // namespace
}  // namespace acoustic::sim
