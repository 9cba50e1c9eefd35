#include "nn/model_zoo.hpp"

#include <gtest/gtest.h>

#include "nn/zoo_build.hpp"

namespace acoustic::nn {
namespace {

TEST(LayerDesc, ConvOutputDims) {
  LayerDesc l;
  l.kind = OpKind::kConv2D;
  l.in_h = 227;
  l.in_w = 227;
  l.in_c = 3;
  l.kernel = 11;
  l.stride = 4;
  l.out_c = 96;
  EXPECT_EQ(l.out_h(), 55);
  EXPECT_EQ(l.out_w(), 55);
  l.pool = 2;
  EXPECT_EQ(l.pooled_h(), 27);
}

TEST(LayerDesc, ConvMacsAndWeights) {
  LayerDesc l;
  l.kind = OpKind::kConv2D;
  l.in_h = 8;
  l.in_w = 8;
  l.in_c = 4;
  l.kernel = 3;
  l.padding = 1;
  l.out_c = 16;
  EXPECT_EQ(l.macs(), 8ull * 8 * 16 * 9 * 4);
  EXPECT_EQ(l.weight_count(), 16ull * 9 * 4);
}

TEST(LayerDesc, DenseMacsEqualWeights) {
  LayerDesc l;
  l.kind = OpKind::kDense;
  l.in_c = 100;
  l.out_c = 10;
  EXPECT_EQ(l.macs(), 1000u);
  EXPECT_EQ(l.weight_count(), 1000u);
  EXPECT_EQ(l.out_h(), 1);
}

TEST(ModelZoo, LeNet5Structure) {
  const NetworkDesc net = lenet5();
  EXPECT_EQ(net.layers.size(), 5u);
  // Classic LeNet-5 sizes: conv outputs 28x28x6 and 10x10x16.
  EXPECT_EQ(net.layers[0].out_h(), 28);
  EXPECT_EQ(net.layers[1].out_h(), 10);
  EXPECT_EQ(net.layers[1].pooled_h(), 5);
  // ~60k weights, ~0.4M MACs.
  EXPECT_NEAR(static_cast<double>(net.total_weights()), 61470.0, 1000.0);
  EXPECT_GT(net.conv_macs(), 300000u);
  EXPECT_LT(net.conv_macs(), 400000u);
}

TEST(ModelZoo, AlexNetShapesChain) {
  const NetworkDesc net = alexnet();
  for (std::size_t i = 0; i + 1 < net.layers.size(); ++i) {
    const LayerDesc& cur = net.layers[i];
    const LayerDesc& next = net.layers[i + 1];
    if (next.kind == OpKind::kConv2D) {
      EXPECT_EQ(cur.pooled_h(), next.in_h) << "layer " << i;
      EXPECT_EQ(cur.out_c, next.in_c) << "layer " << i;
    } else if (cur.kind == OpKind::kConv2D) {
      EXPECT_EQ(cur.output_elems(), static_cast<std::uint64_t>(next.in_c))
          << "layer " << i;
    }
  }
  // Grouped AlexNet (conv2/4/5 split across two GPUs): ~724 M MACs,
  // ~61 M weights.
  EXPECT_NEAR(static_cast<double>(net.total_macs()), 7.24e8, 0.5e8);
  EXPECT_NEAR(static_cast<double>(net.total_weights()), 61e6, 3e6);
}

TEST(ModelZoo, Vgg16Macs) {
  const NetworkDesc net = vgg16();
  EXPECT_EQ(net.layers.size(), 16u);
  // ~15.5 G MACs, ~138 M weights.
  EXPECT_NEAR(static_cast<double>(net.total_macs()), 15.5e9, 0.5e9);
  EXPECT_NEAR(static_cast<double>(net.total_weights()), 138e6, 5e6);
}

TEST(ModelZoo, Resnet18Macs) {
  const NetworkDesc net = resnet18();
  // ~1.8 G MACs — the paper notes ResNet-18 is ~2x AlexNet's conv load.
  EXPECT_NEAR(static_cast<double>(net.total_macs()), 1.8e9, 0.2e9);
  // Single small FC layer (512 x 1000).
  EXPECT_EQ(net.fc_macs(), 512000u);
}

TEST(ModelZoo, ConvOnlyDropsDenseLayers) {
  const NetworkDesc conv = lenet5().conv_only();
  EXPECT_EQ(conv.layers.size(), 2u);
  EXPECT_EQ(conv.fc_macs(), 0u);
  EXPECT_EQ(conv.total_macs(), lenet5().conv_macs());
}

TEST(ModelZoo, Table3WorkloadsInPaperOrder) {
  const auto nets = table3_workloads();
  ASSERT_EQ(nets.size(), 4u);
  EXPECT_EQ(nets[0].name, "AlexNet");
  EXPECT_EQ(nets[1].name, "VGG-16");
  EXPECT_EQ(nets[2].name, "ResNet-18");
  EXPECT_EQ(nets[3].name, "CIFAR-10 CNN");
}

TEST(ModelZoo, MaxActivationFitsLpMemoryForSmallNets) {
  // The LP activation memory (600 KB) is sized to hold most CNN layers
  // without spilling (paper III-D).
  EXPECT_LT(cifar10_cnn().max_layer_activation_elems(), 600u * 1024);
  EXPECT_LT(lenet5().max_layer_activation_elems(), 600u * 1024);
}

TEST(ZooBuild, RejectsNegativeSide) {
  // Only side 0 selects the descriptor's native input size.
  ZooBuildOptions opt;
  opt.side = -3;
  EXPECT_THROW((void)zoo_input_shape(lenet5(), opt), std::invalid_argument);
  EXPECT_THROW((void)build_from_descriptor(lenet5(), opt),
               std::invalid_argument);
  opt.side = 0;
  EXPECT_EQ(zoo_input_shape(lenet5(), opt).h, lenet5().layers.front().in_h);
}

}  // namespace
}  // namespace acoustic::nn
