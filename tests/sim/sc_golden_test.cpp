// Golden bit-exactness suite for the planned (fast-path) executor.
//
// The stream-plan fast path, the plan-budget fallback and intra-image row
// parallelism are pure refactorings of the scalar reference executor:
// every stream segment they serve is the same pure function of
// (bank, lane, level, offset), counter accumulation is integer-exact and
// output shards are disjoint. These tests pin that down: for every zoo
// model and hand-built stage the planned output must be BYTE-identical to
// the scalar oracle — for 1..N intra threads, with and without per-lane
// decorrelation, and with the plan forced over its byte budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/diagnostics.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/model_zoo.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "nn/zoo_build.hpp"
#include "runtime/thread_pool.hpp"
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

/// Byte-level tensor comparison: exact equality of the float bit patterns,
/// not EXPECT_FLOAT_EQ closeness.
void expect_bytes_equal(const nn::Tensor& got, const nn::Tensor& want,
                        const std::string& label) {
  ASSERT_EQ(got.shape(), want.shape()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float gf = got[i];
    const float wf = want[i];
    std::uint32_t g = 0;
    std::uint32_t w = 0;
    std::memcpy(&g, &gf, sizeof(g));
    std::memcpy(&w, &wf, sizeof(w));
    ASSERT_EQ(g, w) << label << ": output " << i << " differs (" << gf
                    << " vs " << wf << ")";
  }
}

/// @p exec's forward on @p input, run as a task of a @p threads-worker
/// pool the way the batch evaluator runs it: rows shard only on the pool
/// the forward runs on, so intra_threads >= 2 shards on these workers.
nn::Tensor forward_on_pool(ScNetwork& exec, const nn::Tensor& input,
                           unsigned threads) {
  runtime::ThreadPool pool(threads);
  nn::Tensor out;
  pool.parallel_for(1, [&](std::size_t, unsigned) {
    out = exec.forward(input);
  });
  return out;
}

/// Runs @p net on @p input under every planned configuration and checks
/// each against the scalar oracle: logits byte for byte, the work counters,
/// and the stream fetch accounting — every segment the planned path
/// fetches is one the oracle generates, served from a table in budget
/// (plan hits, reused bits) or regenerated at a 1-byte budget (plan misses,
/// generated bits; the stochastic max FSM's regenerated streams count on
/// both sides).
void expect_planned_matches_scalar(nn::Network& net, const nn::Tensor& input,
                                   ScConfig base) {
  for (const bool decorrelate : {true, false}) {
    base.decorrelate_lanes = decorrelate;

    ScConfig scalar_cfg = base;
    scalar_cfg.exec = ExecMode::kScalar;
    ScNetwork scalar_exec(net, scalar_cfg);
    const nn::Tensor want = scalar_exec.forward(input);
    const RunStats want_stats = scalar_exec.take_stats();

    for (const unsigned threads : {1u, 2u, 3u}) {
      ScConfig planned_cfg = base;
      planned_cfg.exec = ExecMode::kPlanned;
      planned_cfg.intra_threads = threads;
      ScNetwork planned_exec(net, planned_cfg);
      const nn::Tensor got = forward_on_pool(planned_exec, input, threads);
      const RunStats got_stats = planned_exec.take_stats();

      const std::string label = "decorrelate=" +
                                std::to_string(decorrelate) +
                                " threads=" + std::to_string(threads);
      expect_bytes_equal(got, want, label);
      // The plans the forward just executed must satisfy every structural
      // invariant (schedule coverage, word offsets, product-table
      // consistency with the live weights).
      const core::Report plan_report = planned_exec.validate_plans();
      EXPECT_TRUE(plan_report.clean())
          << label << ":\n"
          << plan_report.to_string();
      // The planned path must do the same logical work as the oracle:
      // identical product-bit and operand-gating accounting.
      EXPECT_EQ(got_stats.product_bits, want_stats.product_bits) << label;
      EXPECT_EQ(got_stats.skipped_operands, want_stats.skipped_operands)
          << label;
      EXPECT_EQ(got_stats.layers_run, want_stats.layers_run) << label;
      if (base.plan_budget_bytes == 1) {
        EXPECT_EQ(got_stats.plan_hits, 0u) << label;
        EXPECT_EQ(got_stats.stream_bits_reused, 0u) << label;
        EXPECT_EQ(got_stats.stream_bits_generated,
                  want_stats.stream_bits_generated)
            << label;
      } else if (base.max_pool != MaxPoolMode::kStochastic) {
        EXPECT_EQ(got_stats.plan_misses, 0u) << label;
        EXPECT_EQ(got_stats.stream_bits_reused,
                  want_stats.stream_bits_generated)
            << label;
      }
    }
  }
}

ScConfig golden_config() {
  ScConfig cfg;
  cfg.stream_length = 128;
  cfg.sng_width = 8;
  return cfg;
}

TEST(ScGolden, LenetSmallPlannedMatchesScalar) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrExact);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{16, 16, 1}, 101),
                                golden_config());
}

TEST(ScGolden, CifarSmallPlannedMatchesScalar) {
  nn::Network net = train::build_cifar_small(nn::AccumMode::kOrExact);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{16, 16, 3}, 103),
                                golden_config());
}

TEST(ScGolden, ResnetTinyPlannedMatchesScalar) {
  nn::Network net = train::build_resnet_tiny(nn::AccumMode::kOrExact, 8, 9);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{8, 8, 3}, 107),
                                golden_config());
}

TEST(ScGolden, ConvFusedPoolStageMatchesScalar) {
  // One conv + fused avg-pool stage (computation skipping): the pooled
  // segment timetable is the part the plan slot layout must reproduce.
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 2, .out_channels = 3, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kOrExact});
  net.add<nn::ReLU>();
  net.add<nn::AvgPool2D>(2);
  conv.initialize(51);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{8, 8, 2}, 109),
                                golden_config());
}

TEST(ScGolden, StridedConvNoPoolMatchesScalar) {
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 2, .out_channels = 2, .kernel = 3, .stride = 2,
      .padding = 1, .mode = nn::AccumMode::kOrExact});
  conv.initialize(53);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{9, 9, 2}, 113),
                                golden_config());
}

/// stream 1024 with a 2x2 pool fused into the conv (the pool directly
/// follows it) -> 128-bit (two-word) pooled segments.
nn::Network multi_word_pooled_net() {
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 1, .out_channels = 2, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kOrExact});
  net.add<nn::AvgPool2D>(2);
  net.add<nn::ReLU>();
  conv.initialize(57);
  return net;
}

ScConfig multi_word_config() {
  ScConfig cfg;
  cfg.stream_length = 1024;
  cfg.sng_width = 10;
  return cfg;
}

TEST(ScGolden, MultiWordSegmentsMatchScalar) {
  // Exercises the multi-word AND/OR lane of the row body.
  nn::Network net = multi_word_pooled_net();
  expect_planned_matches_scalar(net, random_unit(nn::Shape{6, 6, 1}, 127),
                                multi_word_config());
}

/// A groups=2 conv (+ReLU): the plan slot space stays kernel*kernel*in_c
/// wide but every cross-group (oc, ic) pair must be absent from both
/// sign-phase bitmaps.
nn::Network grouped_conv_net() {
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 4, .out_channels = 4, .kernel = 3, .padding = 1,
      .groups = 2, .mode = nn::AccumMode::kOrExact});
  net.add<nn::ReLU>();
  conv.initialize(61);
  return net;
}

TEST(ScGolden, GroupedConvMatchesScalar) {
  // At 1-word segments and, unpooled at stream 1024, 8-word segments.
  nn::Network net = grouped_conv_net();
  const nn::Tensor input = random_unit(nn::Shape{8, 8, 4}, 141);
  expect_planned_matches_scalar(net, input, golden_config());
  expect_planned_matches_scalar(net, input, multi_word_config());
}

TEST(ScGolden, DepthwiseConvMatchesScalar) {
  // groups == channels: each output channel sees exactly kernel*kernel
  // live slots; the degenerate extreme of the grouped weight mapping.
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 4, .out_channels = 4, .kernel = 3, .padding = 1,
      .groups = 4, .mode = nn::AccumMode::kOrExact});
  conv.initialize(63);
  const nn::Tensor input = random_unit(nn::Shape{7, 7, 4}, 143);
  expect_planned_matches_scalar(net, input, golden_config());
  expect_planned_matches_scalar(net, input, multi_word_config());
}

TEST(ScGolden, BatchNormFoldMatchesScalar) {
  // Conv + BN: the planned path folds scale into the quantized weight
  // levels and applies shift post-counter; the scalar oracle folds the
  // same way, so outputs must stay byte-identical.
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 2, .out_channels = 4, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kOrExact});
  auto& bn = net.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = 4});
  net.add<nn::ReLU>();
  conv.initialize(65);
  bn.initialize(66);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{8, 8, 2}, 145),
                                golden_config());
}

TEST(ScGolden, SkipProjectionBlockMatchesScalar) {
  // A ResNet downsample block: the skip path runs a 1x1 stride-2
  // projection conv (itself an SC stage) so the saved tensor matches the
  // halved block output at the add.
  nn::Network net;
  auto state = std::make_shared<nn::SkipState>();
  net.add<nn::SkipSave>(state);
  auto& proj = net.add<nn::SkipProject>(
      state, nn::ConvSpec{.in_channels = 2, .out_channels = 4, .kernel = 1,
                          .stride = 2, .mode = nn::AccumMode::kOrExact});
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 2, .out_channels = 4, .kernel = 3, .stride = 2,
      .padding = 1, .mode = nn::AccumMode::kOrExact});
  net.add<nn::SkipAdd>(state);
  net.add<nn::ReLU>();
  proj.conv().initialize(67);
  conv.initialize(68);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{8, 8, 2}, 147),
                                golden_config());
}

TEST(ScGolden, StochasticMaxPoolMatchesScalar) {
  // MaxPoolMode::kStochastic: the max FSM runs the same portable body at
  // every SIMD level and thread count, so planned == scalar holds for the
  // whole max-pool network too.
  nn::Network net = train::build_cifar_small_maxpool(nn::AccumMode::kOrExact);
  ScConfig cfg = golden_config();
  cfg.max_pool = MaxPoolMode::kStochastic;
  expect_planned_matches_scalar(net, random_unit(nn::Shape{16, 16, 3}, 149),
                                cfg);
}

TEST(ScGolden, StochasticMaxPoolDiffersFromExactMax) {
  // Sanity check that the stochastic mode actually engages: at a short
  // stream the FSM's approximate max must not collapse to the exact max
  // on every window.
  nn::Network net = train::build_cifar_small_maxpool(nn::AccumMode::kOrExact);
  const nn::Tensor input = random_unit(nn::Shape{16, 16, 3}, 151);
  ScConfig exact_cfg = golden_config();
  ScConfig sc_cfg = golden_config();
  sc_cfg.max_pool = MaxPoolMode::kStochastic;
  ScNetwork exact_exec(net, exact_cfg);
  ScNetwork sc_exec(net, sc_cfg);
  const nn::Tensor exact_out = exact_exec.forward(input);
  const nn::Tensor sc_out = sc_exec.forward(input);
  ASSERT_EQ(exact_out.shape(), sc_out.shape());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < exact_out.size(); ++i) {
    if (exact_out[i] != sc_out[i]) {
      ++diffs;
    }
  }
  EXPECT_GT(diffs, 0u);
}

/// conv -> ReLU -> pool -> dense, the pool a fused average or a max pool.
nn::Network conv_pool_dense_net(bool max_pool) {
  nn::Network net;
  net.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 2, .out_channels = 3,
                                   .kernel = 3, .padding = 1,
                                   .mode = nn::AccumMode::kOrExact})
      .initialize(161);
  net.add<nn::ReLU>();
  if (max_pool) {
    net.add<nn::MaxPool2D>(2);
  } else {
    net.add<nn::AvgPool2D>(2);
  }
  net.add<nn::Dense>(nn::DenseSpec{.in_features = 4 * 4 * 3,
                                   .out_features = 5,
                                   .mode = nn::AccumMode::kOrExact})
      .initialize(163);
  return net;
}

TEST(ScGolden, NonFiniteInputsQuantizeLikeTheirClampedValues) {
  // An input holding NaN of both signs, +-Inf, a denormal and values above
  // 1. Every executor quantizes NaN and -Inf to level 0 and +Inf to the
  // full level, so planned == scalar on logits and stats, and the logits
  // and stats equal those of the same input with NaN and -Inf set to 0 and
  // +Inf set to 1.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {nan,  std::copysign(nan, -1.0f),
                            inf,  -inf,
                            std::numeric_limits<float>::denorm_min(),
                            1.5f, 7.0f};
  nn::Tensor input = random_unit(nn::Shape{8, 8, 2}, 165);
  for (std::size_t i = 0; i < input.size(); i += 3) {
    input[i] = specials[(i / 3) % std::size(specials)];
  }
  nn::Tensor clamped = input;
  for (std::size_t i = 0; i < clamped.size(); ++i) {
    if (std::isnan(clamped[i]) || clamped[i] == -inf) {
      clamped[i] = 0.0f;
    } else if (clamped[i] == inf) {
      clamped[i] = 1.0f;
    }
  }
  for (const bool max_pool : {false, true}) {
    nn::Network net = conv_pool_dense_net(max_pool);
    ScConfig cfg = golden_config();
    cfg.max_pool = max_pool ? MaxPoolMode::kStochastic : MaxPoolMode::kExact;
    expect_planned_matches_scalar(net, input, cfg);
    for (const ExecMode exec : {ExecMode::kScalar, ExecMode::kPlanned}) {
      cfg.exec = exec;
      const std::string label = "max_pool=" + std::to_string(max_pool) +
                                " scalar=" +
                                std::to_string(exec == ExecMode::kScalar);
      ScNetwork raw(net, cfg);
      ScNetwork ref(net, cfg);
      expect_bytes_equal(raw.forward(input), ref.forward(clamped), label);
      EXPECT_EQ(raw.take_stats(), ref.take_stats()) << label;
    }
  }
}

TEST(ScGolden, Resnet18DescriptorMatchesScalar) {
  // The deepest zoo workload end to end: residual blocks, projection
  // downsamples and batch norm, built from the Table III descriptor at a
  // reduced input side.
  nn::ZooBuildOptions opt;
  opt.side = 8;
  opt.mode = nn::AccumMode::kOrExact;
  nn::Network net = nn::build_from_descriptor(nn::resnet18(), opt);
  const nn::Shape in = nn::zoo_input_shape(nn::resnet18(), opt);
  ScConfig cfg;
  cfg.stream_length = 32;
  cfg.sng_width = 8;
  expect_planned_matches_scalar(net, random_unit(in, 153), cfg);
}

/// Runs @p net at a 1-byte plan budget — every weight table and activation
/// plan over budget — and checks the regenerating fallback against the
/// scalar oracle; the fallback must actually have run (plan misses).
void expect_fallback_matches_scalar(nn::Network& net, const nn::Tensor& input,
                                    ScConfig cfg) {
  cfg.plan_budget_bytes = 1;
  expect_planned_matches_scalar(net, input, cfg);
  ScNetwork planned(net, cfg);
  (void)planned.forward(input);
  const RunStats stats = planned.take_stats();
  EXPECT_GT(stats.plan_misses, 0u);
  EXPECT_EQ(stats.plan_hits, 0u);
}

TEST(ScGolden, PlanBudgetFallbackMatchesScalar) {
  // A 1-byte budget disables every plan: the row body must regenerate
  // exactly the bits the tables would have served.
  nn::Network lenet = train::build_lenet_small(nn::AccumMode::kOrExact);
  expect_fallback_matches_scalar(
      lenet, random_unit(nn::Shape{16, 16, 1}, 131), golden_config());

  // Wide segments: stream 1024 with max pooling gives 8-word conv and
  // dense segments...
  nn::Network cifar =
      train::build_cifar_small_maxpool(nn::AccumMode::kOrExact);
  ScConfig wide = golden_config();
  wide.stream_length = 1024;
  expect_fallback_matches_scalar(
      cifar, random_unit(nn::Shape{16, 16, 3}, 133), wide);

  // ...and a 2x2 fused pool at stream 1024 gives 2-word pooled segments.
  nn::Network pooled = multi_word_pooled_net();
  expect_fallback_matches_scalar(
      pooled, random_unit(nn::Shape{6, 6, 1}, 127), multi_word_config());
}

TEST(ScGolden, PartialLastSegmentWordMatchesScalar) {
  // Stream 600: the unpooled grouped conv runs 300-bit segments, five
  // words with a 44-bit last word, planned and through the fallback; the
  // max-pool network adds 300-bit stochastic max streams.
  ScConfig cfg = multi_word_config();
  cfg.stream_length = 600;
  nn::Network grouped = grouped_conv_net();
  const nn::Tensor input = random_unit(nn::Shape{8, 8, 4}, 193);
  expect_planned_matches_scalar(grouped, input, cfg);
  expect_fallback_matches_scalar(grouped, input, cfg);

  nn::Network cifar =
      train::build_cifar_small_maxpool(nn::AccumMode::kOrExact);
  cfg.max_pool = MaxPoolMode::kStochastic;
  expect_fallback_matches_scalar(
      cifar, random_unit(nn::Shape{16, 16, 3}, 197), cfg);
}

TEST(ScGolden, ScheduleChangeMatchesScalar) {
  // One executor fed two input sizes: at 8x8 the 2x2 pool tiles the conv
  // output and fuses (four pooled slots per phase); at 7x7 it does not, so
  // the conv runs unfused (one full-phase slot) and pools in the binary
  // domain. The cached weight table must follow the schedule in both
  // orders, never serving the other geometry's slot layout.
  for (const bool small_first : {false, true}) {
    nn::Network net;
    auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
        .in_channels = 2, .out_channels = 3, .kernel = 3, .padding = 1,
        .mode = nn::AccumMode::kOrExact});
    net.add<nn::AvgPool2D>(2);  // directly after the conv: fusable
    conv.initialize(71);
    ScConfig cfg = golden_config();
    ScNetwork planned(net, cfg);
    const int first = small_first ? 7 : 8;
    for (const int side : {first, 15 - first}) {
      const nn::Tensor input = random_unit(
          nn::Shape{side, side, 2}, 173 + static_cast<std::uint32_t>(side));
      ScConfig scalar_cfg = cfg;
      scalar_cfg.exec = ExecMode::kScalar;
      ScNetwork scalar(net, scalar_cfg);
      const std::string label = "side=" + std::to_string(side) +
                                " small_first=" + std::to_string(small_first);
      expect_bytes_equal(planned.forward(input), scalar.forward(input), label);
      const core::Report plan_report = planned.validate_plans();
      EXPECT_TRUE(plan_report.clean()) << label << ":\n"
                                       << plan_report.to_string();
    }
  }
}

/// conv [-> BatchNorm] -> ReLU, 4 -> 4 channels.
nn::Network small_map_net(nn::ConvSpec spec, bool bn, std::uint32_t seed) {
  nn::Network net;
  spec.in_channels = 4;
  spec.out_channels = 4;
  spec.mode = nn::AccumMode::kOrExact;
  net.add<nn::Conv2D>(spec).initialize(seed);
  if (bn) {
    net.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = 4})
        .initialize(seed + 1);
  }
  net.add<nn::ReLU>();
  return net;
}

TEST(ScGolden, LiveTapConvsOnSmallMapsMatchScalar) {
  // Where padding leaves kernel taps dead: the table holds live-tap
  // entries only, and border positions walk only their live tap range.
  // At 1-word (stream 128) and, unpooled at stream 1024, 8-word segments,
  // each in budget and at a 1-byte budget.
  struct Case {
    const char* name;
    int side;
    int kernel;
    int stride;
    int padding;
  };
  const Case cases[] = {
      {"3x3 pad 1 on 1x1", 1, 3, 1, 1},
      {"3x3 pad 1 on 2x2", 2, 3, 1, 1},
      {"3x3 stride 2 from 2x2 to 1x1", 2, 3, 2, 1},
      {"5x5 pad 2 on 3x3", 3, 5, 1, 2},
  };
  struct Variant {
    const char* name;
    int groups;
    bool bn;
  };
  const Variant variants[] = {{"plain", 1, false},
                              {"bn-folded", 1, true},
                              {"grouped", 2, false},
                              {"depthwise", 4, true}};
  ScConfig wide = golden_config();
  wide.stream_length = 1024;
  std::uint32_t seed = 401;
  for (const Case& c : cases) {
    for (const Variant& v : variants) {
      SCOPED_TRACE(std::string(c.name) + " " + v.name);
      nn::Network net = small_map_net(
          nn::ConvSpec{.kernel = c.kernel, .stride = c.stride,
                       .padding = c.padding, .groups = v.groups},
          v.bn, seed);
      const nn::Tensor input =
          random_unit(nn::Shape{c.side, c.side, 4}, seed + 7);
      seed += 11;
      for (const ScConfig& cfg : {golden_config(), wide}) {
        expect_planned_matches_scalar(net, input, cfg);
        expect_fallback_matches_scalar(net, input, cfg);
      }
    }
  }
}

TEST(ScGolden, PaddingOnlyTapsMatchScalar) {
  // Extreme geometries: output positions that read only padding, a dead
  // tap inside the live rectangle, and a fused 2x2 pool over a 2x2 map
  // (every window slot a border position)...
  nn::Network k1 = small_map_net(nn::ConvSpec{.kernel = 1, .padding = 1},
                                 true, 501);
  nn::Network gap = small_map_net(
      nn::ConvSpec{.kernel = 5, .stride = 2, .padding = 3}, false, 505);
  nn::Network pooled;
  pooled.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 4, .out_channels = 4,
                                      .kernel = 3, .padding = 1,
                                      .mode = nn::AccumMode::kOrExact})
      .initialize(513);
  pooled.add<nn::AvgPool2D>(2);
  pooled.add<nn::ReLU>();
  const nn::Tensor one = random_unit(nn::Shape{1, 1, 4}, 503);
  for (nn::Network* net : {&k1, &gap}) {
    expect_planned_matches_scalar(*net, one, golden_config());
    expect_fallback_matches_scalar(*net, one, golden_config());
  }
  const nn::Tensor two = random_unit(nn::Shape{2, 2, 4}, 515);
  expect_planned_matches_scalar(pooled, two, golden_config());
  expect_fallback_matches_scalar(pooled, two, golden_config());
  // ...and a node whose every tap is dead: it fetches nothing, so even at
  // a 1-byte budget there is no plan miss to require.
  nn::Network none = small_map_net(
      nn::ConvSpec{.kernel = 3, .stride = 7, .padding = 5}, false, 509);
  ScConfig tiny = golden_config();
  tiny.plan_budget_bytes = 1;
  for (const ScConfig& cfg : {golden_config(), tiny}) {
    expect_planned_matches_scalar(none, one, cfg);
  }
}

/// The scalar oracle's output for @p net on @p input, from a fresh
/// executor.
nn::Tensor oracle_forward(nn::Network& net, const nn::Tensor& input,
                          ScConfig cfg) {
  cfg.exec = ExecMode::kScalar;
  ScNetwork scalar(net, cfg);
  return scalar.forward(input);
}

TEST(ScGolden, FoldedBatchNormEditsArePickedUp) {
  // The table key holds the folded BatchNorm's per-channel scale, so an
  // edit to gamma or variance — which moves the folded weights, and with a
  // sign flip their phases — must reach the next forward of a warm
  // executor.
  nn::Network net;
  net.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 2, .out_channels = 4,
                                   .kernel = 3, .padding = 1,
                                   .mode = nn::AccumMode::kOrExact})
      .initialize(521);
  auto& bn = net.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = 4});
  bn.initialize(523);
  net.add<nn::ReLU>();
  const nn::Tensor input = random_unit(nn::Shape{4, 4, 2}, 525);
  const ScConfig cfg = golden_config();
  ScNetwork planned(net, cfg);
  expect_bytes_equal(planned.forward(input), oracle_forward(net, input, cfg),
                     "before edits");
  bn.gamma()[1] = -1.5f * bn.gamma()[1];
  expect_bytes_equal(planned.forward(input), oracle_forward(net, input, cfg),
                     "gamma edit");
  bn.variance()[2] *= 4.0f;
  expect_bytes_equal(planned.forward(input), oracle_forward(net, input, cfg),
                     "variance edit");
  const core::Report plans = planned.validate_plans();
  EXPECT_TRUE(plans.clean()) << plans.to_string();
}

TEST(ScGolden, ParamViewWriteBackIsPickedUp) {
  // Writers that hold ParamView spans across forwards (as
  // train::evaluate_quantized does: quantize in place, evaluate, restore)
  // bypass any setter, so only comparing the key's bits catches them.
  nn::Network net;
  net.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 2, .out_channels = 4,
                                   .kernel = 3, .padding = 1,
                                   .mode = nn::AccumMode::kOrExact})
      .initialize(531);
  net.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = 4}).initialize(533);
  net.add<nn::ReLU>();
  net.add<nn::Dense>(nn::DenseSpec{.in_features = 4 * 4 * 4,
                                   .out_features = 5,
                                   .mode = nn::AccumMode::kOrExact})
      .initialize(535);
  const nn::Tensor input = random_unit(nn::Shape{4, 4, 2}, 537);
  const ScConfig cfg = golden_config();
  std::vector<nn::ParamView> params = net.parameters();
  std::vector<std::vector<float>> saved;
  for (const nn::ParamView& p : params) {
    saved.emplace_back(p.values.begin(), p.values.end());
  }
  ScNetwork planned(net, cfg);
  const nn::Tensor original = planned.forward(input);
  for (nn::ParamView& p : params) {
    for (std::size_t i = 0; i < p.values.size(); i += 3) {
      p.values[i] = -0.5f * p.values[i];
    }
  }
  expect_bytes_equal(planned.forward(input), oracle_forward(net, input, cfg),
                     "written back");
  for (std::size_t p = 0; p < params.size(); ++p) {
    std::copy(saved[p].begin(), saved[p].end(), params[p].values.begin());
  }
  expect_bytes_equal(planned.forward(input), original, "restored");
}

/// FNV-1a over the logits' float bytes followed by the work counters that
/// must not drift when the executor is restructured.
std::uint64_t forward_digest(nn::Network& net, const nn::Tensor& input,
                             const ScConfig& cfg) {
  ScNetwork exec(net, cfg);
  const nn::Tensor logits = exec.forward(input);
  const RunStats stats = exec.take_stats();
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ull;
    }
  };
  mix(logits.data().data(), logits.size() * sizeof(float));
  for (const std::uint64_t v : {stats.product_bits, stats.skipped_operands,
                                stats.stream_bits_generated}) {
    mix(&v, sizeof(v));
  }
  return h;
}

TEST(ScGolden, DigestUnchanged) {
  // Absolute pins: planned == scalar comparisons cannot see a drift that
  // moves both executors together, so these digests fix the logits and
  // the work counters of four representative networks outright.
  {
    nn::Network net = train::build_lenet_small(nn::AccumMode::kOrExact);
    ScConfig cfg = golden_config();
    cfg.stream_length = 256;
    EXPECT_EQ(forward_digest(net, random_unit(nn::Shape{16, 16, 1}, 181), cfg),
              0xb8796042b735bcd4ull)
        << "lenet-small stream 256";
  }
  {
    nn::Network net =
        train::build_cifar_small_maxpool(nn::AccumMode::kOrExact);
    ScConfig cfg = golden_config();
    cfg.stream_length = 1024;
    cfg.max_pool = MaxPoolMode::kStochastic;
    EXPECT_EQ(forward_digest(net, random_unit(nn::Shape{16, 16, 3}, 183), cfg),
              0xcbbc7749090c3adaull)
        << "cifar-small-maxpool stream 1024 stochastic max";
  }
  {
    nn::Network net = train::build_resnet_tiny(nn::AccumMode::kOrExact, 8, 9);
    EXPECT_EQ(forward_digest(net, random_unit(nn::Shape{8, 8, 3}, 187),
                             golden_config()),
              0xc67e9ffbc4f9e23full)
        << "resnet-tiny";
  }
  {
    nn::ZooBuildOptions opt;
    opt.side = 8;
    opt.mode = nn::AccumMode::kOrExact;
    nn::Network net = nn::build_from_descriptor(nn::resnet18(), opt);
    ScConfig cfg;
    cfg.stream_length = 32;
    cfg.sng_width = 8;
    EXPECT_EQ(forward_digest(net,
                             random_unit(nn::zoo_input_shape(nn::resnet18(),
                                                             opt),
                                         189),
                             cfg),
              0xe075619592b679f2ull)
        << "resnet18 descriptor side 8 stream 32";
  }
}

/// Checks that every stat of @p net's planned forward is independent of
/// the intra-image worker count.
void expect_thread_counts_agree(nn::Network& net, const nn::Tensor& input,
                                ScConfig cfg) {
  cfg.exec = ExecMode::kPlanned;
  cfg.intra_threads = 1;
  ScNetwork serial(net, cfg);
  const nn::Tensor want = serial.forward(input);
  const RunStats want_stats = serial.take_stats();

  for (const unsigned threads : {2u, 4u}) {
    ScConfig threaded_cfg = cfg;
    threaded_cfg.intra_threads = threads;
    ScNetwork threaded(net, threaded_cfg);
    const nn::Tensor got = forward_on_pool(threaded, input, threads);
    const RunStats got_stats = threaded.take_stats();
    expect_bytes_equal(got, want, "threads=" + std::to_string(threads));
    EXPECT_EQ(got_stats.product_bits, want_stats.product_bits);
    EXPECT_EQ(got_stats.skipped_operands, want_stats.skipped_operands);
    EXPECT_EQ(got_stats.stream_bits_generated,
              want_stats.stream_bits_generated);
    EXPECT_EQ(got_stats.stream_bits_reused, want_stats.stream_bits_reused);
    EXPECT_EQ(got_stats.plan_hits, want_stats.plan_hits);
    EXPECT_EQ(got_stats.plan_misses, want_stats.plan_misses);
  }
}

TEST(ScGolden, PlannedThreadCountsAgreeOnAllStats) {
  // Row/output sharding merges additive per-worker counters: every stat
  // (including the reuse counters) must be independent of worker count.
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrExact);
  expect_thread_counts_agree(net, random_unit(nn::Shape{16, 16, 1}, 137),
                             golden_config());

  // A wide dense head on a 1x1 output map: sharding must split its output
  // neurons, and the activation-segment counters must not scale with the
  // number of shards.
  nn::Network wide;
  auto& conv = wide.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 2, .out_channels = 4, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kOrExact});
  wide.add<nn::ReLU>();
  auto& dense = wide.add<nn::Dense>(nn::DenseSpec{
      .in_features = 8 * 8 * 4, .out_features = 96,
      .mode = nn::AccumMode::kOrExact});
  conv.initialize(79);
  dense.initialize(80);
  expect_thread_counts_agree(wide, random_unit(nn::Shape{8, 8, 2}, 191),
                             golden_config());
}

/// Scoped override of the scheduler's per-chunk jitter hook (the same one
/// ACOUSTIC_SCHED_JITTER sets); restores the previous value on exit.
class JitterGuard {
 public:
  explicit JitterGuard(unsigned max_us)
      : saved_(runtime::ThreadPool::task_jitter_us()) {
    runtime::ThreadPool::set_task_jitter_us(max_us);
  }
  JitterGuard(const JitterGuard&) = delete;
  JitterGuard& operator=(const JitterGuard&) = delete;
  ~JitterGuard() { runtime::ThreadPool::set_task_jitter_us(saved_); }

 private:
  unsigned saved_;
};

TEST(ScGolden, JitteredStealingStaysByteIdentical) {
  // The scheduler stress gate: up to 150us of deterministic per-chunk
  // busy-wait scrambles which worker reaches which row subtask first, so
  // chunks migrate between deques (heavy stealing). The work-stealing
  // schedule must never leak into the numbers — every planned
  // configuration still has to match the scalar oracle byte for byte,
  // stats included.
  const JitterGuard jitter(150);
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrExact);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{16, 16, 1}, 157),
                                golden_config());
}

TEST(ScGolden, JitteredThreadCountsAgreeOnAllStats) {
  // Same invariant as PlannedThreadCountsAgreeOnAllStats, but with the
  // schedule perturbed: additive counter merges must be steal-order
  // insensitive, not just worker-count insensitive.
  const JitterGuard jitter(120);
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrExact);
  const nn::Tensor input = random_unit(nn::Shape{16, 16, 1}, 163);

  ScConfig cfg = golden_config();
  cfg.exec = ExecMode::kPlanned;
  cfg.intra_threads = 1;
  ScNetwork serial(net, cfg);
  const nn::Tensor want = serial.forward(input);
  const RunStats want_stats = serial.take_stats();

  for (const unsigned threads : {2u, 4u}) {
    ScConfig threaded_cfg = cfg;
    threaded_cfg.intra_threads = threads;
    ScNetwork threaded(net, threaded_cfg);
    const nn::Tensor got = forward_on_pool(threaded, input, threads);
    const RunStats got_stats = threaded.take_stats();
    expect_bytes_equal(got, want,
                       "jitter threads=" + std::to_string(threads));
    EXPECT_EQ(got_stats.product_bits, want_stats.product_bits);
    EXPECT_EQ(got_stats.skipped_operands, want_stats.skipped_operands);
    EXPECT_EQ(got_stats.stream_bits_generated,
              want_stats.stream_bits_generated);
    EXPECT_EQ(got_stats.stream_bits_reused, want_stats.stream_bits_reused);
  }
}

TEST(ScGolden, RepeatedForwardIsBitStable) {
  // The cached weight plan kicks in on the second image; serving from the
  // cache must not change a single bit, and per-run stats must be a pure
  // function of the input.
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrExact);
  const nn::Tensor input = random_unit(nn::Shape{16, 16, 1}, 139);

  ScConfig cfg = golden_config();
  cfg.exec = ExecMode::kPlanned;
  ScNetwork exec(net, cfg);
  const nn::Tensor first = exec.forward(input);
  const RunStats first_stats = exec.take_stats();
  const nn::Tensor second = exec.forward(input);
  const RunStats second_stats = exec.take_stats();

  expect_bytes_equal(second, first, "repeat");
  // Cache-served plans must still validate against the live weights.
  const core::Report plan_report = exec.validate_plans();
  EXPECT_TRUE(plan_report.clean()) << plan_report.to_string();
  EXPECT_EQ(second_stats.product_bits, first_stats.product_bits);
  EXPECT_EQ(second_stats.stream_bits_generated,
            first_stats.stream_bits_generated);
  EXPECT_EQ(second_stats.stream_bits_reused, first_stats.stream_bits_reused);
}

}  // namespace
}  // namespace acoustic::sim
