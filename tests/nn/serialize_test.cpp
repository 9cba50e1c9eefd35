#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "train/models.hpp"

namespace acoustic::nn {
namespace {

TEST(Serialize, RoundTripPreservesWeights) {
  Network a = train::build_lenet_small(AccumMode::kOrApprox, 16, 5);
  Network b = train::build_lenet_small(AccumMode::kOrApprox, 16, 99);

  std::stringstream buffer;
  save_parameters(a, buffer);
  load_parameters(b, buffer);

  auto pa = a.parameters();
  auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t g = 0; g < pa.size(); ++g) {
    ASSERT_EQ(pa[g].values.size(), pb[g].values.size());
    for (std::size_t i = 0; i < pa[g].values.size(); ++i) {
      EXPECT_EQ(pa[g].values[i], pb[g].values[i]);
    }
  }
}

TEST(Serialize, LoadedNetworkPredictsIdentically) {
  Network a = train::build_cifar_small(AccumMode::kSum, 16, 3);
  Network b = train::build_cifar_small(AccumMode::kSum, 16, 77);
  std::stringstream buffer;
  save_parameters(a, buffer);
  load_parameters(b, buffer);
  Tensor x(Shape{16, 16, 3});
  x.fill(0.4f);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_EQ(ya[i], yb[i]);
  }
}

TEST(Serialize, RoundTripCarriesBatchNormStatistics) {
  // Running mean and variance are BatchNorm state outside parameters():
  // the blob carries them too, so the loaded network's forward is the
  // saved one's.
  const auto build = [](std::uint32_t seed) {
    Network net;
    net.add<Conv2D>(ConvSpec{.in_channels = 2, .out_channels = 3,
                             .kernel = 3, .padding = 1})
        .initialize(seed);
    net.add<BatchNorm>(BatchNormSpec{.channels = 3}).initialize(seed + 2);
    net.add<ReLU>();
    return net;
  };
  Network a = build(521);
  Network b = build(975);
  std::stringstream buffer;
  save_parameters(a, buffer);
  load_parameters(b, buffer);
  auto& bn_a = static_cast<BatchNorm&>(a.layer(1));
  auto& bn_b = static_cast<BatchNorm&>(b.layer(1));
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(bn_b.mean()[c], bn_a.mean()[c]) << "channel " << c;
    EXPECT_EQ(bn_b.variance()[c], bn_a.variance()[c]) << "channel " << c;
  }
  Tensor x(Shape{4, 4, 2});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(i % 5) / 5.0f;
  }
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  ASSERT_EQ(ya.size(), yb.size());
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_EQ(ya[i], yb[i]) << "output " << i;
  }
}

TEST(Serialize, RejectsBadMagic) {
  Network net = train::build_lenet_small(AccumMode::kSum, 16);
  std::stringstream buffer("JUNKJUNKJUNK");
  EXPECT_THROW(load_parameters(net, buffer), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedStream) {
  Network a = train::build_lenet_small(AccumMode::kSum, 16);
  std::stringstream buffer;
  save_parameters(a, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  Network b = train::build_lenet_small(AccumMode::kSum, 16);
  EXPECT_THROW(load_parameters(b, truncated), std::runtime_error);
}

TEST(Serialize, RejectsTopologyMismatch) {
  Network a = train::build_lenet_small(AccumMode::kSum, 16);
  std::stringstream buffer;
  save_parameters(a, buffer);
  Network different = train::build_cifar_small(AccumMode::kSum, 16);
  EXPECT_THROW(load_parameters(different, buffer), std::runtime_error);
}

TEST(Serialize, FileRoundTrip) {
  Network a = train::build_lenet_small(AccumMode::kSum, 16, 8);
  const std::string path = "/tmp/acoustic_serialize_test.bin";
  save_parameters(a, path);
  Network b = train::build_lenet_small(AccumMode::kSum, 16, 1000);
  load_parameters(b, path);
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  EXPECT_EQ(pa.front().values[0], pb.front().values[0]);
}

TEST(Serialize, MissingFileThrows) {
  Network net = train::build_lenet_small(AccumMode::kSum, 16);
  EXPECT_THROW(load_parameters(net, "/nonexistent/path/x.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace acoustic::nn
