// Layer::kind() dispatch and Network::clone() deep-copy semantics — the
// foundations of the per-thread backend clones in sim::BatchEvaluator.
#include "nn/network.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "train/dataset.hpp"
#include "train/models.hpp"

namespace acoustic::nn {
namespace {

Tensor make_input(std::uint32_t seed) {
  const train::Dataset data = train::make_synth_objects(1, seed, 16);
  return data.samples.front().image;
}

void expect_same_tensor(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.data().size(), b.data().size());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

TEST(LayerKind, ReportsDynamicType) {
  Network net = train::build_resnet_tiny(AccumMode::kOrApprox, 16);
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    Layer& layer = net.layer(i);
    switch (layer.kind()) {
      case Layer::Kind::kConv2D:
        EXPECT_NE(dynamic_cast<Conv2D*>(&layer), nullptr);
        break;
      case Layer::Kind::kDense:
        EXPECT_NE(dynamic_cast<Dense*>(&layer), nullptr);
        break;
      case Layer::Kind::kAvgPool2D:
        EXPECT_NE(dynamic_cast<AvgPool2D*>(&layer), nullptr);
        break;
      case Layer::Kind::kMaxPool2D:
        EXPECT_NE(dynamic_cast<MaxPool2D*>(&layer), nullptr);
        break;
      case Layer::Kind::kReLU:
        EXPECT_NE(dynamic_cast<ReLU*>(&layer), nullptr);
        break;
      case Layer::Kind::kOrSaturation:
        EXPECT_NE(dynamic_cast<OrSaturation*>(&layer), nullptr);
        break;
      case Layer::Kind::kSkipSave:
        EXPECT_NE(dynamic_cast<SkipSave*>(&layer), nullptr);
        break;
      case Layer::Kind::kSkipAdd:
        EXPECT_NE(dynamic_cast<SkipAdd*>(&layer), nullptr);
        break;
      case Layer::Kind::kBatchNorm:
        EXPECT_NE(dynamic_cast<BatchNorm*>(&layer), nullptr);
        break;
      case Layer::Kind::kSkipProject:
        EXPECT_NE(dynamic_cast<SkipProject*>(&layer), nullptr);
        break;
    }
  }
}

TEST(NetworkClone, ForwardMatchesOriginal) {
  Network net = train::build_cifar_small(AccumMode::kOrApprox, 16);
  Network copy = net.clone();
  ASSERT_EQ(copy.layer_count(), net.layer_count());
  const Tensor input = make_input(5);
  expect_same_tensor(copy.forward(input), net.forward(input));
}

TEST(NetworkClone, MaxPoolVariantMatches) {
  Network net = train::build_cifar_small_maxpool(AccumMode::kOrApprox, 16);
  Network copy = net.clone();
  const Tensor input = make_input(6);
  expect_same_tensor(copy.forward(input), net.forward(input));
}

TEST(NetworkClone, ResidualSkipWiringIsRepaired) {
  // build_resnet_tiny pairs a SkipSave with a SkipAdd through a shared
  // SkipState; the clone must re-pair them on a *fresh* state object so
  // the twin networks can run concurrently.
  Network net = train::build_resnet_tiny(AccumMode::kOrApprox, 16);
  Network copy = net.clone();

  const SkipSave* save = nullptr;
  const SkipSave* save_copy = nullptr;
  const SkipAdd* add_copy = nullptr;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (net.layer(i).kind() == Layer::Kind::kSkipSave) {
      save = dynamic_cast<const SkipSave*>(&net.layer(i));
      save_copy = dynamic_cast<const SkipSave*>(&copy.layer(i));
    }
    if (copy.layer(i).kind() == Layer::Kind::kSkipAdd) {
      add_copy = dynamic_cast<const SkipAdd*>(&copy.layer(i));
    }
  }
  ASSERT_NE(save, nullptr);
  ASSERT_NE(save_copy, nullptr);
  ASSERT_NE(add_copy, nullptr);
  // Fresh state, but still shared between the clone's own save/add pair.
  EXPECT_NE(save_copy->connection(), save->connection());
  EXPECT_EQ(save_copy->connection(), add_copy->connection());

  const Tensor input = make_input(7);
  expect_same_tensor(copy.forward(input), net.forward(input));
}

TEST(NetworkClone, CopiesBatchNormStatistics) {
  // Running mean and variance are BatchNorm state outside parameters();
  // the clone copies them with the rest of state().
  Network net;
  net.add<Conv2D>(ConvSpec{.in_channels = 2, .out_channels = 3,
                           .kernel = 3, .padding = 1})
      .initialize(531);
  net.add<BatchNorm>(BatchNormSpec{.channels = 3}).initialize(533);
  net.add<ReLU>();
  Network copy = net.clone();
  auto& bn = static_cast<BatchNorm&>(net.layer(1));
  auto& bn_copy = static_cast<BatchNorm&>(copy.layer(1));
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(bn_copy.mean()[c], bn.mean()[c]) << "channel " << c;
    EXPECT_EQ(bn_copy.variance()[c], bn.variance()[c]) << "channel " << c;
  }
  EXPECT_NE(bn_copy.mean().data(), bn.mean().data());
  Tensor x(Shape{4, 4, 2});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(i % 5) / 5.0f;
  }
  expect_same_tensor(copy.forward(x), net.forward(x));
}

TEST(NetworkClone, IsADeepCopy) {
  Network net = train::build_lenet_small(AccumMode::kOrApprox, 16);
  Network copy = net.clone();
  const train::Dataset data = train::make_synth_digits(1, 9, 16);
  const Tensor& input = data.samples.front().image;
  const Tensor before = copy.forward(input);

  for (ParamView view : net.parameters()) {
    for (float& v : view.values) {
      v = 0.0f;
    }
  }
  // Zeroing the original's weights must not disturb the clone.
  expect_same_tensor(copy.forward(input), before);
  // ... while the original itself now behaves differently.
  const Tensor zeroed = net.forward(input);
  bool any_diff = false;
  for (std::size_t i = 0; i < zeroed.data().size(); ++i) {
    any_diff = any_diff || zeroed.data()[i] != before.data()[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST(NetworkClone, ParameterCountsMatch) {
  Network net = train::build_resnet_tiny(AccumMode::kOrApprox, 16);
  Network copy = net.clone();
  EXPECT_EQ(copy.parameter_count(), net.parameter_count());
}

TEST(NetworkClone, CarriesNoGradients) {
  // An inference copy holds the values only: conv, BatchNorm and dense
  // gradients stay unsized until the copy itself trains, even when the
  // original has gradients.
  Network net;
  net.add<Conv2D>(ConvSpec{.in_channels = 2, .out_channels = 3,
                           .kernel = 3, .padding = 1, .bias = true})
      .initialize(541);
  net.add<BatchNorm>(BatchNormSpec{.channels = 3}).initialize(543);
  net.add<ReLU>();
  net.add<Dense>(
         DenseSpec{.in_features = 48, .out_features = 4, .bias = true})
      .initialize(547);
  Tensor x(Shape{4, 4, 2});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(i % 7) / 7.0f;
  }
  net.zero_gradients();
  (void)net.backward(net.forward(x));

  Network copy = net.clone();
  const std::vector<ParamView> original = net.parameters();
  const std::vector<ParamView> cloned = copy.parameters();
  ASSERT_EQ(cloned.size(), original.size());
  ASSERT_EQ(cloned.size(), 6u);  // conv w + b, gamma, beta, dense w + b
  for (std::size_t p = 0; p < cloned.size(); ++p) {
    EXPECT_EQ(original[p].gradients.size(), original[p].values.size()) << p;
    EXPECT_EQ(cloned[p].values.size(), original[p].values.size()) << p;
    EXPECT_TRUE(cloned[p].gradients.empty()) << "parameter " << p;
  }
  // Training the copy sizes them, zero-filled.
  copy.zero_gradients();
  for (const ParamView& p : copy.parameters()) {
    ASSERT_EQ(p.gradients.size(), p.values.size());
    for (const float g : p.gradients) {
      EXPECT_EQ(g, 0.0f);
    }
  }
}

}  // namespace
}  // namespace acoustic::nn
