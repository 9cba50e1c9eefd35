#include "train/sgd.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "nn/conv.hpp"

namespace acoustic::train {
namespace {

TEST(Sgd, PlainStepMovesAgainstGradient) {
  std::vector<float> values{1.0f};
  std::vector<float> grads{2.0f};
  std::vector<nn::ParamView> params{{values, grads}};
  Sgd sgd(SgdConfig{.learning_rate = 0.1f, .momentum = 0.0f,
                    .weight_clip = 0.0f});
  sgd.step(params);
  EXPECT_NEAR(values[0], 0.8f, 1e-6f);
}

TEST(Sgd, MomentumAccumulates) {
  std::vector<float> values{0.0f};
  std::vector<float> grads{1.0f};
  std::vector<nn::ParamView> params{{values, grads}};
  Sgd sgd(SgdConfig{.learning_rate = 0.1f, .momentum = 0.5f,
                    .weight_clip = 0.0f});
  sgd.step(params);  // v = -0.1, x = -0.1
  EXPECT_NEAR(values[0], -0.1f, 1e-6f);
  sgd.step(params);  // v = -0.15, x = -0.25
  EXPECT_NEAR(values[0], -0.25f, 1e-6f);
}

TEST(Sgd, ClipsWeightsToBound) {
  std::vector<float> values{0.95f};
  std::vector<float> grads{-10.0f};
  std::vector<nn::ParamView> params{{values, grads}};
  Sgd sgd(SgdConfig{.learning_rate = 0.1f, .momentum = 0.0f,
                    .weight_clip = 1.0f});
  sgd.step(params);
  EXPECT_FLOAT_EQ(values[0], 1.0f);
}

TEST(Sgd, MultipleParameterGroups) {
  std::vector<float> v1{1.0f};
  std::vector<float> g1{1.0f};
  std::vector<float> v2{2.0f, 3.0f};
  std::vector<float> g2{1.0f, -1.0f};
  std::vector<nn::ParamView> params{{v1, g1}, {v2, g2}};
  Sgd sgd(SgdConfig{.learning_rate = 1.0f, .momentum = 0.0f,
                    .weight_clip = 0.0f});
  sgd.step(params);
  EXPECT_FLOAT_EQ(v1[0], 0.0f);
  EXPECT_FLOAT_EQ(v2[0], 1.0f);
  EXPECT_FLOAT_EQ(v2[1], 4.0f);
}

TEST(Sgd, ChangedParameterListThrows) {
  std::vector<float> v{1.0f};
  std::vector<float> g{1.0f};
  std::vector<nn::ParamView> params{{v, g}};
  Sgd sgd(SgdConfig{});
  sgd.step(params);
  params.push_back({v, g});
  EXPECT_THROW(sgd.step(params), std::invalid_argument);
}

TEST(Sgd, UnsizedGradientsThrow) {
  // A layer sizes its gradients on its first zero_gradients() or
  // backward(); a step before that is refused, not read past the end.
  nn::Conv2D conv(nn::ConvSpec{.in_channels = 2, .out_channels = 2});
  std::vector<nn::ParamView> params = conv.parameters();
  ASSERT_TRUE(params.front().gradients.empty());
  Sgd sgd(SgdConfig{});
  EXPECT_THROW(sgd.step(params), std::invalid_argument);
  conv.zero_gradients();
  params = conv.parameters();
  EXPECT_NO_THROW(sgd.step(params));
}

TEST(Sgd, LearningRateCanDecay) {
  Sgd sgd(SgdConfig{.learning_rate = 0.1f});
  sgd.set_learning_rate(0.05f);
  EXPECT_FLOAT_EQ(sgd.config().learning_rate, 0.05f);
}

}  // namespace
}  // namespace acoustic::train
