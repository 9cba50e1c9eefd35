// Zoo regression for `acoustic check`: every Table III descriptor must be
// clean for the performance-simulator target (it lowers everything), and
// the SC-simulator target must report exactly the documented expected
// findings — no silent rule regressions in either direction.
#include "analysis/check.hpp"

#include <gtest/gtest.h>

#include "nn/model_zoo.hpp"

namespace acoustic::analysis {
namespace {

CheckOptions perf_options() {
  CheckOptions opt;
  opt.target = CheckTarget::kPerfSim;
  return opt;
}

TEST(ZooCheck, EveryWorkloadIsPerfCleanUnderWerror) {
  for (const nn::NetworkDesc& net : nn::table3_workloads()) {
    const core::Report r = check_descriptor(net, perf_options());
    EXPECT_FALSE(r.fails(/*werror=*/true))
        << net.name << ":\n"
        << r.to_string();
  }
}

// SC-target expected findings per model. Since the graph executor lowers
// residual blocks, grouped convolutions, batch norm and max/untiled
// pooling as first-class ops, the whole zoo must be free of SC errors —
// "cannot lower" is no longer a thing any Table III descriptor triggers.

TEST(ZooCheck, EveryWorkloadIsScLowerable) {
  for (const nn::NetworkDesc& net : nn::table3_workloads()) {
    const core::Report r = check_descriptor(net);
    EXPECT_TRUE(r.ok()) << net.name << ":\n" << r.to_string();
    EXPECT_FALSE(r.has_rule("sc-unsupported-op")) << net.name;
  }
}

TEST(ZooCheck, SmallNetworksHaveNoScErrors) {
  for (const nn::NetworkDesc& net :
       {nn::lenet5(), nn::cifar10_cnn(), nn::svhn_cnn()}) {
    const core::Report r = check_descriptor(net);
    EXPECT_TRUE(r.ok()) << net.name << ":\n" << r.to_string();
    // Each model's wide FC layer sits above the saturation threshold at
    // the Kaiming prior — the documented expected (note-level) finding.
    EXPECT_TRUE(r.has_rule("or-saturation")) << net.name;
  }
}

TEST(ZooCheck, AlexNetUntiledPoolingIsANoteNotAnError) {
  const core::Report r = check_descriptor(nn::alexnet());
  EXPECT_TRUE(r.ok()) << r.to_string();
  // conv1/conv2/conv5 pool 3x3-style outputs a 2x2 window cannot tile;
  // the executor falls back to binary-domain pooling, so the finding is
  // informational.
  EXPECT_EQ(r.count_rule("pool-untiled"), 3u) << r.to_string();
  EXPECT_FALSE(r.has_rule("sc-unsupported-op")) << r.to_string();
}

TEST(ZooCheck, Vgg16HasNoScErrors) {
  const core::Report r = check_descriptor(nn::vgg16());
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(ZooCheck, ResNet18ResidualBlocksCheckClean) {
  const core::Report r = check_descriptor(nn::resnet18());
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_FALSE(r.has_rule("residual-shape")) << r.to_string();
  EXPECT_FALSE(r.has_rule("residual-structure")) << r.to_string();
}

TEST(ZooCheck, ResidualCloserPoolIsNotFused) {
  // conv5_2b closes a residual block and pools 7x7 after the skip add and
  // the ReLU, so the executor runs it unfused: its 128-bit phase is one
  // slot, which nothing truncates (a fused window would leave 49 slots of
  // 2 bits and drop 30 bits per phase).
  CheckOptions opt;
  opt.sc.stream_length = 256;
  const core::Report r = check_descriptor(nn::resnet18(), opt);
  for (const core::Diagnostic& d : r.diagnostics()) {
    EXPECT_FALSE(d.path == "ResNet-18/conv5_2b" &&
                 d.rule == "segment-truncation")
        << d.to_string();
  }
  EXPECT_EQ(r.warning_count(), 0u) << r.to_string();
}

// Broken-descriptor fixtures: the residual rules must actually fire.

TEST(ZooCheck, MissingProjectionIsAResidualShapeError) {
  nn::NetworkDesc net = nn::resnet18();
  // Drop the first downsample projection conv: the saved 56x56x64 skip
  // tensor no longer matches the 28x28x128 block output at the add.
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    if (net.layers[i].residual_proj) {
      net.layers.erase(net.layers.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  const core::Report r = check_descriptor(net);
  EXPECT_TRUE(r.has_rule("residual-shape")) << r.to_string();
}

TEST(ZooCheck, ResidualCloserWithoutABlockIsAStructureError) {
  nn::NetworkDesc net = nn::lenet5();
  // A lone residual closer with no opener conv or projection before it.
  net.layers[0].residual = true;
  const core::Report r = check_descriptor(net);
  EXPECT_TRUE(r.has_rule("residual-structure")) << r.to_string();
}

TEST(ZooCheck, InvalidGroupCountIsAGeometryError) {
  nn::NetworkDesc net = nn::alexnet();
  for (nn::LayerDesc& l : net.layers) {
    if (l.groups > 1) {
      l.groups = 3;  // does not divide the channel counts
      break;
    }
  }
  const core::Report r = check_descriptor(net);
  EXPECT_TRUE(r.has_rule("geometry-invalid")) << r.to_string();
}

}  // namespace
}  // namespace acoustic::analysis
