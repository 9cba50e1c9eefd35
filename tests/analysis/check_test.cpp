// Broken-descriptor corpus for the network-level SC static analyzer: one
// deliberately malformed configuration / descriptor / live network per
// rule, each asserting that exactly its diagnostic fires (plus the clean
// fixtures that prove the rules do not over-trigger).
#include "analysis/check.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/model_zoo.hpp"
#include "nn/network.hpp"
#include "nn/pool.hpp"
#include "nn/zoo_build.hpp"
#include "sim/sc_network.hpp"
#include "train/models.hpp"

namespace acoustic::analysis {
namespace {

// ---------------------------------------------------------------------------
// check_config

TEST(CheckConfig, DefaultConfigHasNoGatingFindings) {
  const core::Report r = check_config(sim::ScConfig{});
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.warning_count(), 0u) << r.to_string();
  // The default 256-bit stream replays one state of the 255-cycle width-8
  // LFSR: worth a note, but notes never gate --werror.
  EXPECT_TRUE(r.has_rule("lfsr-period-exhausted"));
  EXPECT_FALSE(r.fails(/*werror=*/true));
}

TEST(CheckConfig, SeedCollisionAfterMaskingIsAnError) {
  sim::ScConfig cfg;  // sng_width = 8
  cfg.activation_seed = 0x1b;
  cfg.weight_seed = 0x11b;  // same low 8 bits
  const core::Report r = check_config(cfg);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has_rule("sng-seed-collision")) << r.to_string();
}

TEST(CheckConfig, ZeroSeedsCollideThroughTheZeroToOneRule) {
  sim::ScConfig cfg;
  cfg.activation_seed = 0;      // masked 0 -> loads 1
  cfg.weight_seed = 0x100;      // low 8 bits 0 -> also loads 1
  const core::Report r = check_config(cfg);
  EXPECT_TRUE(r.has_rule("sng-seed-collision")) << r.to_string();
}

TEST(CheckConfig, DistinctMaskedSeedsDoNotCollide) {
  sim::ScConfig cfg;
  cfg.activation_seed = 0x1b;
  cfg.weight_seed = 0x1c;
  EXPECT_FALSE(check_config(cfg).has_rule("sng-seed-collision"));
}

TEST(CheckConfig, SngWidthOutsideLfsrRangeIsAnError) {
  sim::ScConfig cfg;
  cfg.sng_width = 2;
  EXPECT_TRUE(check_config(cfg).has_rule("sng-width-invalid"));
  cfg.sng_width = 33;
  const core::Report r = check_config(cfg);
  EXPECT_TRUE(r.has_rule("sng-width-invalid"));
  EXPECT_FALSE(r.ok());
}

TEST(CheckConfig, WidthBeyondFloatMantissaWarns) {
  sim::ScConfig cfg;
  cfg.sng_width = 25;
  const core::Report r = check_config(cfg);
  EXPECT_TRUE(r.has_rule("quantize-resolution")) << r.to_string();
  EXPECT_TRUE(r.ok());
}

TEST(CheckConfig, StreamLengthRules) {
  sim::ScConfig cfg;
  cfg.stream_length = 1;  // no bits left for the two sign phases
  EXPECT_FALSE(check_config(cfg).ok());
  EXPECT_TRUE(check_config(cfg).has_rule("stream-length-invalid"));

  cfg.stream_length = 255;  // odd: one bit never counted
  const core::Report odd = check_config(cfg);
  EXPECT_TRUE(odd.ok());
  EXPECT_TRUE(odd.has_rule("stream-length-invalid"));
  EXPECT_TRUE(odd.fails(/*werror=*/true));
}

TEST(CheckConfig, NaiveSharingWarns) {
  sim::ScConfig cfg;
  cfg.decorrelate_lanes = false;
  const core::Report r = check_config(cfg);
  EXPECT_TRUE(r.has_rule("sng-naive-sharing"));
  EXPECT_TRUE(r.ok());
}

TEST(CheckConfig, HeavyPeriodReuseEscalatesToWarning) {
  sim::ScConfig cfg;
  cfg.sng_width = 3;  // period 7 against a 256-bit bank window
  const core::Report r = check_config(cfg);
  ASSERT_TRUE(r.has_rule("lfsr-period-exhausted")) << r.to_string();
  EXPECT_GE(r.warning_count(), 1u);
}

// ---------------------------------------------------------------------------
// check_descriptor

/// One conv (+pool) layer descriptor that satisfies every rule under the
/// default SC configuration.
nn::LayerDesc clean_conv() {
  nn::LayerDesc l;
  l.kind = nn::OpKind::kConv2D;
  l.label = "conv1";
  l.in_h = 8;
  l.in_w = 8;
  l.in_c = 1;
  l.kernel = 3;
  l.out_c = 4;
  l.pool = 2;  // 6x6 output, tiled by 2x2
  return l;
}

nn::NetworkDesc one_layer(const nn::LayerDesc& l) {
  nn::NetworkDesc net;
  net.name = "fixture";
  net.layers.push_back(l);
  return net;
}

TEST(CheckDescriptor, CleanFixturePasses) {
  const core::Report r = check_descriptor(one_layer(clean_conv()));
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.warning_count(), 0u) << r.to_string();
}

TEST(CheckDescriptor, NonPositiveDimensionsAreFlagged) {
  nn::LayerDesc l = clean_conv();
  l.in_h = 0;
  const core::Report r = check_descriptor(one_layer(l));
  EXPECT_TRUE(r.has_rule("geometry-invalid")) << r.to_string();
  EXPECT_FALSE(r.ok());
}

TEST(CheckDescriptor, GroupsMustDivideChannels) {
  nn::LayerDesc l = clean_conv();
  l.in_c = 4;
  l.groups = 3;
  const core::Report r = check_descriptor(one_layer(l));
  EXPECT_TRUE(r.has_rule("geometry-invalid")) << r.to_string();
}

TEST(CheckDescriptor, OversizedKernelIsFlagged) {
  nn::LayerDesc l = clean_conv();
  l.kernel = 9;  // does not fit the 8x8 input... with pool it would, but
  l.in_h = 4;    // on 4x4 it cannot
  l.in_w = 4;
  l.pool = 0;
  const core::Report r = check_descriptor(one_layer(l));
  EXPECT_TRUE(r.has_rule("geometry-invalid")) << r.to_string();
}

TEST(CheckDescriptor, UnproducedInputVolumeIsAShapeMismatch) {
  nn::NetworkDesc net = one_layer(clean_conv());
  nn::LayerDesc l2 = clean_conv();
  l2.label = "conv2";
  l2.in_h = 5;  // conv1 produces 3x3x4 (pooled); nothing produces 5x5x4
  l2.in_w = 5;
  l2.in_c = 4;
  l2.kernel = 1;
  l2.pool = 0;
  net.layers.push_back(l2);
  const core::Report r = check_descriptor(net);
  EXPECT_TRUE(r.has_rule("shape-mismatch")) << r.to_string();
  EXPECT_FALSE(r.ok());
}

TEST(CheckDescriptor, DenseMatchesFlattenedVolume) {
  nn::NetworkDesc net = one_layer(clean_conv());
  nn::LayerDesc fc;
  fc.kind = nn::OpKind::kDense;
  fc.label = "fc";
  fc.in_c = 3 * 3 * 4;  // conv1's pooled output, flattened
  fc.out_c = 10;
  net.layers.push_back(fc);
  const core::Report r = check_descriptor(net);
  EXPECT_FALSE(r.has_rule("shape-mismatch")) << r.to_string();
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(CheckDescriptor, LoneResidualCloserIsAStructureError) {
  nn::LayerDesc l = clean_conv();
  l.residual = true;  // closes a block nothing opened
  const core::Report r = check_descriptor(one_layer(l));
  EXPECT_TRUE(r.has_rule("residual-structure")) << r.to_string();
  EXPECT_FALSE(r.has_rule("sc-unsupported-op")) << r.to_string();
  EXPECT_FALSE(r.ok());
}

TEST(CheckDescriptor, IdentityResidualBlockChecksClean) {
  // conv1 opens the block (saving its 8x8x4 input), conv2 closes it with
  // a shape-preserving conv: the add is consistent.
  nn::LayerDesc a = clean_conv();
  a.in_c = 4;
  a.out_c = 4;
  a.padding = 1;  // 3x3 pad-1: shape-preserving
  a.pool = 0;
  nn::LayerDesc b = a;
  b.label = "conv2";
  b.residual = true;
  nn::NetworkDesc net = one_layer(a);
  net.layers.push_back(b);
  const core::Report r = check_descriptor(net);
  EXPECT_FALSE(r.has_rule("residual-structure")) << r.to_string();
  EXPECT_FALSE(r.has_rule("residual-shape")) << r.to_string();
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(CheckDescriptor, ResidualShapeMismatchIsAnError) {
  // The closer changes the channel count but no projection fixes the
  // skip path: the add cannot be lowered shape-consistently.
  nn::LayerDesc a = clean_conv();
  a.in_c = 4;
  a.out_c = 4;
  a.padding = 1;
  a.pool = 0;
  nn::LayerDesc b = a;
  b.label = "conv2";
  b.out_c = 8;
  b.residual = true;
  nn::NetworkDesc net = one_layer(a);
  net.layers.push_back(b);
  const core::Report r = check_descriptor(net);
  EXPECT_TRUE(r.has_rule("residual-shape")) << r.to_string();
  EXPECT_FALSE(r.ok());
}

TEST(CheckDescriptor, GroupedConvIsLowerableOnTheScSimulator) {
  nn::LayerDesc l = clean_conv();
  l.in_c = 4;
  l.out_c = 4;
  l.groups = 2;  // divides evenly: lowered via the grouped weight mapping
  const core::Report r = check_descriptor(one_layer(l));
  EXPECT_FALSE(r.has_rule("geometry-invalid")) << r.to_string();
  EXPECT_FALSE(r.has_rule("sc-unsupported-op")) << r.to_string();
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(CheckDescriptor, PerfTargetAcceptsResidualAndGroups) {
  nn::LayerDesc l = clean_conv();
  l.in_c = 4;
  l.out_c = 4;
  l.groups = 2;
  CheckOptions opt;
  opt.target = CheckTarget::kPerfSim;
  const core::Report r = check_descriptor(one_layer(l), opt);
  EXPECT_FALSE(r.has_rule("sc-unsupported-op")) << r.to_string();
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(CheckDescriptor, UntiledPoolingWindowIsANote) {
  nn::LayerDesc l = clean_conv();
  l.in_h = 7;  // 5x5 conv output; a 2x2 window cannot tile it
  l.in_w = 7;
  const core::Report r = check_descriptor(one_layer(l));
  EXPECT_TRUE(r.has_rule("pool-untiled")) << r.to_string();
  // The executor falls back to binary-domain pooling, so the model still
  // runs — informational, not gating.
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(CheckDescriptor, PhaseShorterThanWindowSlotsIsAnError) {
  nn::LayerDesc l = clean_conv();
  l.kernel = 1;
  l.pool = 4;  // 16 slots per sign phase
  CheckOptions opt;
  opt.sc.stream_length = 8;  // phase of 4 bits < 16 slots
  const core::Report r = check_descriptor(one_layer(l), opt);
  EXPECT_TRUE(r.has_rule("stream-too-short")) << r.to_string();
  EXPECT_FALSE(r.ok());
}

TEST(CheckDescriptor, SlotTruncationWarnsWhenWasteIsLarge) {
  nn::LayerDesc l = clean_conv();
  l.in_h = 6;
  l.in_w = 6;
  l.kernel = 1;
  l.pool = 3;  // 9 slots
  CheckOptions opt;
  opt.sc.stream_length = 32;  // phase 16: seg 1, 7/16 bits wasted
  const core::Report r = check_descriptor(one_layer(l), opt);
  ASSERT_TRUE(r.has_rule("segment-truncation")) << r.to_string();
  EXPECT_GE(r.warning_count(), 1u) << r.to_string();
}

TEST(CheckDescriptor, SubsampledSlotsGetAResolutionNote) {
  // Default config: 2x2 pooling slices the 128-bit phase into 32-bit
  // slots, far below the 2^8 comparator grid.
  const core::Report r = check_descriptor(one_layer(clean_conv()));
  EXPECT_TRUE(r.has_rule("stream-resolution")) << r.to_string();
  EXPECT_FALSE(r.fails(/*werror=*/true)) << r.to_string();
}

TEST(CheckDescriptor, WideFanInSaturatesTheOrLine) {
  nn::LayerDesc fc;
  fc.kind = nn::OpKind::kDense;
  fc.label = "fc";
  fc.in_h = 1;
  fc.in_w = 1;
  fc.in_c = 4096;  // Kaiming-prior products pin the OR output near 1
  fc.out_c = 10;
  const core::Report r = check_descriptor(one_layer(fc));
  EXPECT_TRUE(r.has_rule("or-saturation")) << r.to_string();
}

TEST(CheckDescriptor, IncludeConfigOffSuppressesConfigFindings) {
  CheckOptions opt;
  opt.sc.activation_seed = opt.sc.weight_seed;  // guaranteed collision
  opt.include_config = false;
  const core::Report r = check_descriptor(one_layer(clean_conv()), opt);
  EXPECT_FALSE(r.has_rule("sng-seed-collision")) << r.to_string();
  opt.include_config = true;
  EXPECT_TRUE(check_descriptor(one_layer(clean_conv()), opt)
                  .has_rule("sng-seed-collision"));
}

// ---------------------------------------------------------------------------
// check_network (live trainable networks)

constexpr nn::Shape kLenetInput{16, 16, 1};

/// The message of the first @p rule finding anchored at @p path, or "".
std::string finding(const core::Report& r, const std::string& rule,
                    const std::string& path) {
  for (const core::Diagnostic& d : r.diagnostics()) {
    if (d.rule == rule && d.path == path) {
      return d.message;
    }
  }
  return "";
}

TEST(CheckDescriptor, PriorFanInCountsLiveTapsOnly) {
  // A 3x3 pad-1 conv on a 1x1 map reads only its centre tap: the prior's
  // OR lines are that tap's 512 input channels, not all 4608 weights,
  // while the Kaiming magnitude still comes from the full 3x3 fan-in.
  nn::LayerDesc l = clean_conv();
  l.in_h = 1;
  l.in_w = 1;
  l.in_c = 512;
  l.out_c = 512;
  l.padding = 1;
  l.pool = 0;
  const core::Report r = check_descriptor(one_layer(l));
  const std::string note = finding(r, "or-saturation", "fixture/conv1");
  EXPECT_NE(note.find(" 512 live products"), std::string::npos)
      << r.to_string();
  EXPECT_NE(note.find("sqrt(1.5/4608)"), std::string::npos) << note;

  // On a 2x2 map every tap is live at some position, but each position
  // reads only a 2x2 corner of the kernel: 4 taps' lines, not 9.
  l.in_h = 2;
  l.in_w = 2;
  const core::Report r2 = check_descriptor(one_layer(l));
  const std::string note2 = finding(r2, "or-saturation", "fixture/conv1");
  EXPECT_NE(note2.find(" 2048 live products"), std::string::npos)
      << r2.to_string();
  EXPECT_NE(note2.find("sqrt(1.5/4608)"), std::string::npos) << note2;
}

TEST(CheckNetwork, TrainableBuildersPassWithProbe) {
  nn::Network lenet = train::build_lenet_small(nn::AccumMode::kOrApprox);
  const core::Report r = check_network(lenet, "lenet", kLenetInput);
  EXPECT_TRUE(r.ok()) << r.to_string();

  nn::Network resnet = train::build_resnet_tiny(nn::AccumMode::kOrApprox);
  const core::Report rr = check_network(resnet, "resnet-tiny", {16, 16, 3});
  EXPECT_TRUE(rr.ok()) << rr.to_string();
}

TEST(CheckNetwork, NanWeightIsAnError) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox);
  ASSERT_EQ(net.layer(0).kind(), nn::Layer::Kind::kConv2D);
  static_cast<nn::Conv2D&>(net.layer(0)).weights()[0] =
      std::numeric_limits<float>::quiet_NaN();
  const core::Report r = check_network(net, "lenet", kLenetInput);
  EXPECT_TRUE(r.has_rule("nonfinite-weight")) << r.to_string();
  EXPECT_FALSE(r.ok());
}

TEST(CheckNetwork, WeightMagnitudeBeyondOneWarns) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox);
  static_cast<nn::Conv2D&>(net.layer(0)).weights()[0] = 2.5f;
  const core::Report r = check_network(net, "lenet", kLenetInput);
  EXPECT_TRUE(r.has_rule("weight-range")) << r.to_string();
  EXPECT_TRUE(r.ok()) << r.to_string();

  // Every raw weight within [-1, 1], but the executor quantizes w * scale
  // with a folded BatchNorm scale of 2.
  nn::Network folded;
  auto& conv = folded.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 1, .out_channels = 2, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kOrApprox});
  auto& bn = folded.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = 2});
  folded.add<nn::ReLU>();
  for (float& w : conv.weights()) {
    w = 0.6f;
  }
  for (float& g : bn.gamma()) {
    g = 2.0f;
  }
  for (float& v : bn.variance()) {
    v = 1.0f - bn.spec().epsilon;
  }
  const core::Report rf = check_network(folded, "folded", {8, 8, 1});
  EXPECT_NE(finding(rf, "weight-range", "folded/conv3x3(1->2)")
                .find("18 of 18 weight magnitudes exceed 1 (max |w| = 1.2)"),
            std::string::npos)
      << rf.to_string();
}

TEST(CheckNetwork, SumModeLayersWarnAgainstTheOrDatapath) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kSum);
  const core::Report r = check_network(net, "lenet", kLenetInput);
  EXPECT_TRUE(r.has_rule("accum-mode-mismatch")) << r.to_string();
}

TEST(CheckNetwork, WrongInputChannelsAreAShapeMismatch) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox);
  const core::Report r = check_network(net, "lenet", {16, 16, 3});
  EXPECT_TRUE(r.has_rule("shape-mismatch")) << r.to_string();
  EXPECT_FALSE(r.ok());

  // A 1-channel input fed to a 3-channel conv, probe on or off: reported,
  // never executed.
  nn::Network rgb;
  rgb.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 3, .out_channels = 4,
                                   .kernel = 3, .padding = 1,
                                   .mode = nn::AccumMode::kOrApprox})
      .initialize(1);
  rgb.add<nn::ReLU>();
  for (const bool probe : {false, true}) {
    CheckOptions opt;
    opt.probe = probe;
    const core::Report rr = check_network(rgb, "rgb", {8, 8, 1}, opt);
    EXPECT_NE(finding(rr, "shape-mismatch", "rgb/conv3x3(3->4)")
                  .find("expects 3 input channels but receives 1"),
              std::string::npos)
        << rr.to_string();
    EXPECT_FALSE(rr.has_rule("sc-lowering-failed")) << rr.to_string();
  }
}

TEST(CheckNetwork, EmptyNetworkIsAStructureError) {
  nn::Network net;
  const core::Report r = check_network(net, "empty", kLenetInput);
  EXPECT_TRUE(r.has_rule("stage-structure")) << r.to_string();
  EXPECT_FALSE(r.ok());
}

TEST(CheckNetwork, UnweightedFirstStageIsAStructureError) {
  nn::Network net;
  net.add<nn::ReLU>();
  net.add<nn::Dense>(nn::DenseSpec{16 * 16, 10, false,
                                   nn::AccumMode::kOrApprox});
  CheckOptions opt;
  opt.probe = false;  // structurally broken; only the static walk matters
  const core::Report r = check_network(net, "headless", kLenetInput, opt);
  EXPECT_TRUE(r.has_rule("stage-structure")) << r.to_string();
}

TEST(CheckNetwork, ProbeRunsThePlanInvariantValidator) {
  // The probe forwards a clone through sim::ScNetwork and merges
  // validate_plans(); a clean report proves the planned fast path's
  // schedules, plans and product tables satisfy every invariant.
  nn::Network net = train::build_cifar_small(nn::AccumMode::kOrApprox);
  CheckOptions opt;
  const core::Report with_probe = check_network(net, "cifar", {16, 16, 3},
                                                opt);
  EXPECT_TRUE(with_probe.ok()) << with_probe.to_string();
  EXPECT_FALSE(with_probe.has_rule("plan-invariant")) << with_probe.to_string();
  EXPECT_FALSE(with_probe.has_rule("sc-lowering-failed"))
      << with_probe.to_string();
}

TEST(CheckNetwork, PlanBudgetNoteAgreesWithTheExecutorFallback) {
  // One footprint rule for both sides: a budget one byte below a network's
  // largest table must fire the note AND make the executor regenerate
  // (plan misses); at exactly that footprint neither happens.
  CheckOptions opt;
  opt.probe = false;
  opt.sc.stream_length = 128;
  const std::size_t phase = opt.sc.phase_length();
  nn::Tensor input(nn::Shape{8, 8, 1});
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(i % 7) / 7.0f;
  }
  const auto expect_agreement = [&](nn::Network& net, std::size_t figure) {
    for (const std::size_t budget : {figure - 1, figure}) {
      opt.sc.plan_budget_bytes = budget;
      const bool over = budget < figure;
      const core::Report r = check_network(net, "budget", {8, 8, 1}, opt);
      EXPECT_EQ(r.has_rule("plan-budget-exceeded"), over) << r.to_string();
      sim::ScNetwork exec(net, opt.sc);
      (void)exec.forward(input);
      EXPECT_EQ(exec.stats().plan_misses > 0, over) << "budget " << budget;
    }
  };

  // conv -> dense: the largest table is the dense node's weight table
  // (every weight at its one live tap, one sign phase's slot each).
  nn::Network plain;
  auto& conv = plain.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 1, .out_channels = 2, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kOrApprox});
  plain.add<nn::ReLU>();
  auto& dense = plain.add<nn::Dense>(
      nn::DenseSpec{8 * 8 * 2, 4, false, nn::AccumMode::kOrApprox});
  conv.initialize(3);
  dense.initialize(4);
  const std::size_t features = 8 * 8 * 2;
  expect_agreement(
      plain, sim::weight_table_bytes(
                 sim::SegmentSchedule{phase, 1, phase},
                 sim::WeightLayout{.oc_count = 4, .rf = features,
                                   .in_c = features, .cpg = features,
                                   .oc_per_group = 4, .w_per_oc = features}));

  // conv -> BatchNorm -> AvgPool(2): the BN folds and the pool still fuses,
  // so the largest table is the conv's activation plan over 4 slots of
  // phase / 4 bits — 4x the unfused figure.
  nn::Network fused;
  fused.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 1, .out_channels = 2,
                                     .kernel = 3, .padding = 1,
                                     .mode = nn::AccumMode::kOrApprox})
      .initialize(3);
  fused.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = 2}).initialize(5);
  fused.add<nn::AvgPool2D>(2);
  fused.add<nn::ReLU>();
  fused.add<nn::Dense>(nn::DenseSpec{4 * 4 * 2, 4, false,
                                     nn::AccumMode::kOrApprox})
      .initialize(4);
  expect_agreement(fused, sim::plan_table_bytes(sim::SegmentSchedule{
                                                    phase, 4, phase / 4},
                                                input.size()));
  const core::Report r = check_network(fused, "budget", {8, 8, 1}, opt);
  EXPECT_NE(finding(r, "stream-resolution", "budget/conv3x3(1->2)")
                .find("each slot counts 16 bits"),
            std::string::npos)
      << r.to_string();
}

TEST(CheckNetwork, ZooResnet18StemReportsItsFusedSlot) {
  // The stem conv7x7 is followed by BatchNorm and then AvgPool(2); the
  // executor folds the BN and fuses the pool, so at stream 128 each of the
  // 4 window slots counts 64 / 4 = 16 bits.
  nn::ZooBuildOptions zoo;
  zoo.side = 16;
  nn::Network net = nn::build_from_descriptor(nn::resnet18(), zoo);
  CheckOptions opt;
  opt.probe = false;
  opt.sc.stream_length = 128;
  const core::Report r = check_network(
      net, "resnet18", nn::zoo_input_shape(nn::resnet18(), zoo), opt);
  EXPECT_NE(finding(r, "stream-resolution", "resnet18/conv7x7(3->64)")
                .find("each slot counts 16 bits"),
            std::string::npos)
      << r.to_string();
}

TEST(CheckNetwork, BatchNormChannelMismatchIsAShapeMismatch) {
  // Conv2D(1 -> 64) followed by BatchNorm(2): reported by the structural
  // walk with the probe on or off, never executed.
  nn::Network net;
  net.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 1, .out_channels = 64,
                                   .kernel = 3, .padding = 1,
                                   .mode = nn::AccumMode::kOrApprox})
      .initialize(1);
  net.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = 2});
  net.add<nn::ReLU>();
  for (const bool probe : {false, true}) {
    CheckOptions opt;
    opt.probe = probe;
    const core::Report r = check_network(net, "bn", {8, 8, 1}, opt);
    EXPECT_NE(finding(r, "shape-mismatch", "bn/batch-norm(2)")
                  .find("expects 2 channels but receives 64"),
              std::string::npos)
        << r.to_string();
    EXPECT_FALSE(r.has_rule("sc-lowering-failed")) << r.to_string();
  }
}

}  // namespace
}  // namespace acoustic::analysis
