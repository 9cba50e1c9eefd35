#include "perf/mapping.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace acoustic::perf {
namespace {

nn::LayerDesc conv_layer(int h, int w, int c, int k, int out_c, int pool = 0,
                         int stride = 1, int padding = 0) {
  nn::LayerDesc l;
  l.kind = nn::OpKind::kConv2D;
  l.label = "conv";
  l.in_h = h;
  l.in_w = w;
  l.in_c = c;
  l.kernel = k;
  l.out_c = out_c;
  l.stride = stride;
  l.padding = padding;
  l.pool = pool;
  return l;
}

nn::LayerDesc fc_layer(int in, int out) {
  nn::LayerDesc l;
  l.kind = nn::OpKind::kDense;
  l.label = "fc";
  l.in_c = in;
  l.out_c = out;
  return l;
}

TEST(Mapping, Figure4LayerIsNearFullUtilization) {
  // The Fig. 4 layer: 16x16x512 inputs, 512 3x3x512 kernels. Deep and
  // wide, so the hierarchical mapping should keep the fabric busy.
  const LayerMapping m = map_layer(conv_layer(16, 16, 512, 3, 512, 0, 1, 1),
                                   lp());
  EXPECT_GT(m.utilization, 0.9);
  // ch(16) x kern(16) x pos(ceil(256/128)=2) passes, 256 cycles each.
  EXPECT_EQ(m.passes, 512u);
  EXPECT_EQ(m.cycles_per_pass, 256u);
}

TEST(Mapping, PoolingShortensPasses) {
  const LayerMapping no_pool =
      map_layer(conv_layer(16, 16, 512, 3, 512, 0, 1, 1), lp());
  const LayerMapping pooled =
      map_layer(conv_layer(16, 16, 512, 3, 512, 2, 1, 1), lp());
  // Computation skipping: same pass count, 4x shorter passes (2x2 window).
  EXPECT_EQ(pooled.passes, no_pool.passes);
  EXPECT_EQ(pooled.cycles_per_pass * 4, no_pool.cycles_per_pass);
  EXPECT_EQ(pooled.product_bits * 4, no_pool.product_bits);
}

TEST(Mapping, ThreeByThreePoolingGivesNineX) {
  const ArchConfig arch = lp();
  const LayerMapping no_pool =
      map_layer(conv_layer(27, 27, 96, 3, 256, 0, 1, 1), arch);
  const LayerMapping pooled =
      map_layer(conv_layer(27, 27, 96, 3, 256, 3, 1, 1), arch);
  EXPECT_NEAR(static_cast<double>(no_pool.mac_cycles) /
                  static_cast<double>(pooled.mac_cycles),
              9.0, 0.5);
}

TEST(Mapping, RejectsStreamTooShortForPoolWindow) {
  // Each sign phase (stream / 2 bits) must give every slot of a window
  // that tiles the conv output at least one bit, as the SC executor
  // requires: a 2x2 window needs stream 8.
  ArchConfig arch = lp();
  arch.stream_length = 8;
  EXPECT_EQ(map_layer(conv_layer(8, 8, 1, 3, 4, 2), arch).cycles_per_pass,
            2u);
  for (const std::uint64_t stream : {4u, 6u}) {
    arch.stream_length = stream;
    try {
      (void)map_layer(conv_layer(8, 8, 1, 3, 4, 2), arch);
      FAIL() << "stream " << stream << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("conv"), std::string::npos) << what;
      EXPECT_NE(what.find("2x2"), std::string::npos) << what;
      EXPECT_NE(what.find("stream " + std::to_string(stream)),
                std::string::npos)
          << what;
    }
  }
  // A window that does not tile the 5x5 output runs unfused: no slots.
  arch.stream_length = 4;
  EXPECT_NO_THROW((void)map_layer(conv_layer(7, 7, 1, 3, 4, 2), arch));
}

TEST(Mapping, PackedModeForTinyReceptiveFields) {
  // 5x5x1 kernel (25 <= 96): whole RF in one MAC, high position parallelism.
  const LayerMapping m = map_layer(conv_layer(28, 28, 1, 5, 6), lp());
  // LP: 768 arrays, 6 kernels -> 128 arrays/kernel * 16 MACs = 2048
  // positions/pass >= 784, so a single pass per kernel batch.
  EXPECT_EQ(m.passes, 1u);
}

TEST(Mapping, SlicedModeForMediumReceptiveFields) {
  // 5x5x6 = 150 inputs: 2 slices across sub-rows, no 3x3-chunk penalty.
  const ArchConfig arch = ulp();
  const LayerMapping m = map_layer(conv_layer(14, 14, 6, 5, 16), arch);
  // positions = 100, pos/pass = (2 arrays / 1 group) * 2 macs = 4,
  // kern passes = ceil(16/8) = 2 -> 25 * 2 = 50 passes.
  EXPECT_EQ(m.passes, 50u);
}

TEST(Mapping, LargeKernelsPayChunkPenalty) {
  // 11x11 kernels with many channels: 4x4 chunk passes of <=3x3 each.
  const LayerMapping small =
      map_layer(conv_layer(28, 28, 128, 3, 32, 0, 1, 1), lp());
  const LayerMapping large =
      map_layer(conv_layer(28, 28, 128, 11, 32, 0, 1, 5), lp());
  EXPECT_GT(large.passes, small.passes * 8);
}

TEST(Mapping, FcUsesOneMacPerArray) {
  // 512-input FC: ceil(512/96) = 6 MACs per output (the paper's "6
  // successive rows" for a 512-wide kernel maps to 6 ganged MACs);
  // LP has 768 single-MAC arrays -> 128 outputs per pass.
  const LayerMapping m = map_layer(fc_layer(512, 256), lp());
  EXPECT_EQ(m.passes, 2u);
  EXPECT_EQ(m.cycles_per_pass, lp().stream_length);
  // FC utilization is intentionally poor (paper III-B).
  EXPECT_LT(m.utilization, 0.2);
}

TEST(Mapping, FcHugeInputTakesInputPasses) {
  const ArchConfig arch = lp();
  // 9216-in, 4096-out (AlexNet fc6): macs/out = 96 > 768? No: 96 <= 768,
  // outputs/pass = 8, passes = 512.
  const LayerMapping m = map_layer(fc_layer(9216, 4096), arch);
  EXPECT_EQ(m.passes, 512u);
}

TEST(Mapping, WeightsResidencyFlag) {
  const ArchConfig arch = lp();  // 147.5 KB weight memory
  const LayerMapping small = map_layer(conv_layer(16, 16, 64, 3, 64), arch);
  EXPECT_TRUE(small.weights_resident);   // 36,864 weights
  const LayerMapping big = map_layer(fc_layer(9216, 4096), arch);
  EXPECT_FALSE(big.weights_resident);    // 37.7 M weights
}

TEST(Mapping, DramTrafficOnlyWithDram) {
  const nn::LayerDesc layer = conv_layer(8, 8, 8, 3, 8);
  const LayerMapping with_dram = map_layer(layer, lp());
  EXPECT_GT(with_dram.wgt_dram_bytes, 0u);
  const LayerMapping without = map_layer(layer, ulp());
  EXPECT_EQ(without.wgt_dram_bytes, 0u);
  EXPECT_EQ(without.act_dram_bytes, 0u);
}

TEST(Mapping, FirstAndLastLayerMoveActivations) {
  const nn::LayerDesc layer = conv_layer(8, 8, 8, 3, 8);
  const LayerMapping first = map_layer(layer, lp(), true, false);
  EXPECT_EQ(first.act_dram_bytes, layer.input_elems());
  const LayerMapping last = map_layer(layer, lp(), false, true);
  EXPECT_EQ(last.act_dram_bytes, layer.output_elems());
  const LayerMapping middle = map_layer(layer, lp(), false, false);
  EXPECT_EQ(middle.act_dram_bytes, 0u);
}

TEST(Mapping, SpillWhenActivationsExceedMemory) {
  // 224x224x64 in and out (~6.4 MB): exceeds LP's 600 KB scratchpad.
  const LayerMapping m =
      map_layer(conv_layer(224, 224, 64, 3, 64, 0, 1, 1), lp(), false, false);
  EXPECT_GT(m.act_dram_bytes, 0u);
}

TEST(Mapping, UtilizationNeverExceedsOne) {
  for (const auto& net : nn::table3_workloads()) {
    for (const LayerMapping& m : map_network(net, lp())) {
      EXPECT_LE(m.utilization, 1.0 + 1e-9);
      EXPECT_GT(m.passes, 0u);
      EXPECT_GT(m.cycles_per_pass, 0u);
    }
  }
}

TEST(Mapping, MapNetworkCoversAllLayers) {
  const nn::NetworkDesc net = nn::lenet5();
  const auto maps = map_network(net, ulp());
  EXPECT_EQ(maps.size(), net.layers.size());
}

TEST(Mapping, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
}

}  // namespace
}  // namespace acoustic::perf
