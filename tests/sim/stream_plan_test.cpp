// Unit tests for the packed stream tables: slot layout, bit identity of
// planned segments against direct StreamBank generation, the byte-budget
// footprint rules, the shared weight-table store, the live-tap table shape
// and the table validator's negative cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/network.hpp"
#include "sc/rng.hpp"
#include "sim/op_graph.hpp"
#include "sim/plan_check.hpp"
#include "sim/stream_plan.hpp"

namespace acoustic::sim {
namespace {

std::vector<std::uint32_t> ramp_levels(std::size_t lanes,
                                       std::uint32_t max_level) {
  std::vector<std::uint32_t> levels(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    // Mix of zero (operand-gated) and nonzero lanes.
    levels[i] = static_cast<std::uint32_t>((i * 37) % (max_level + 1));
  }
  return levels;
}

TEST(SegmentScheduleTest, SlotLayout) {
  const SegmentSchedule sched{64, 4, 16};
  EXPECT_EQ(sched.seg_words(), 1u);
  EXPECT_EQ(sched.slots(), 8u);
  EXPECT_EQ(sched.words_per_lane(), 8u);
  EXPECT_EQ(sched.offset(true, 0), 0u);
  EXPECT_EQ(sched.offset(true, 3), 48u);
  EXPECT_EQ(sched.offset(false, 0), 64u);
  EXPECT_EQ(sched.offset(false, 3), 112u);
  EXPECT_EQ(sched.slot_index(true, 2), 2u);
  EXPECT_EQ(sched.slot_index(false, 2), 6u);
}

/// Every planned segment must equal a direct word-parallel fill of the
/// same (level, lane, offset) window — the core bit-identity contract.
void expect_plan_matches_fill(const SegmentSchedule& sched, unsigned width,
                              bool decorrelate) {
  StreamBank bank(width, 0xBEEF, 2 * sched.phase, decorrelate);
  const std::size_t lanes = 23;
  const auto levels =
      ramp_levels(lanes, (std::uint32_t{1} << width) - 1);

  LayerStreamPlan plan(bank, sched, lanes, 0);
  ASSERT_TRUE(plan.enabled());
  EXPECT_EQ(plan.sched(), sched);
  EXPECT_EQ(plan.lanes(), lanes);
  // Only lanes with a nonzero level are generated, each over both phases.
  std::uint64_t live = 0;
  for (const std::uint32_t level : levels) {
    live += level != 0 ? 1 : 0;
  }
  EXPECT_EQ(plan.build(levels), live * 2 * sched.phase);

  std::vector<std::uint64_t> want(sched.seg_words());
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (levels[lane] == 0) {
      continue;  // operand-gated: never read
    }
    for (const bool positive : {true, false}) {
      for (std::size_t k = 0; k < sched.positions; ++k) {
        bank.fill(levels[lane], static_cast<std::uint32_t>(lane),
                  sched.offset(positive, k), sched.seg, want);
        const std::uint64_t* got =
            plan.lane_words(lane) +
            sched.slot_index(positive, k) * sched.seg_words();
        for (std::size_t w = 0; w < sched.seg_words(); ++w) {
          ASSERT_EQ(got[w], want[w])
              << "lane " << lane << " positive " << positive << " k " << k
              << " word " << w << " decorrelate " << decorrelate;
        }
      }
    }
  }
}

TEST(LayerStreamPlanTest, SegmentsMatchDirectFill) {
  expect_plan_matches_fill(SegmentSchedule{64, 4, 16}, 8, true);
  expect_plan_matches_fill(SegmentSchedule{64, 4, 16}, 8, false);
}

TEST(LayerStreamPlanTest, SegmentsMatchDirectFillUnevenAndMultiWord) {
  // seg not a multiple of 64 with a wasted tail (100 / 3 = 33 floored)...
  expect_plan_matches_fill(SegmentSchedule{100, 3, 33}, 10, true);
  // ...and multi-word segments straddling word boundaries.
  expect_plan_matches_fill(SegmentSchedule{512, 4, 128}, 11, true);
  expect_plan_matches_fill(SegmentSchedule{300, 2, 150}, 9, true);
}

TEST(LayerStreamPlanTest, OverBudgetPlanDisablesItself) {
  const SegmentSchedule sched{64, 4, 16};
  StreamBank bank(8, 0x77, 2 * sched.phase, true);
  const std::vector<std::uint32_t> levels{10, 250, 77};
  const std::size_t bytes = plan_table_bytes(sched, levels.size());
  EXPECT_EQ(bytes, levels.size() * sched.words_per_lane() * 8);

  // Exactly at the footprint the plan fits; one byte less disables it.
  LayerStreamPlan fits(bank, sched, levels.size(), bytes);
  EXPECT_TRUE(fits.enabled());
  LayerStreamPlan over(bank, sched, levels.size(), bytes - 1);
  EXPECT_FALSE(over.enabled());
  EXPECT_EQ(over.build(levels), 0u);  // no-op
}

/// A dense layer's layout: @p outputs neurons over @p inputs slots,
/// weight o * inputs + i.
WeightLayout dense_layout(std::size_t outputs, std::size_t inputs) {
  return WeightLayout{.oc_count = outputs, .rf = inputs, .in_c = inputs,
                      .cpg = inputs, .oc_per_group = outputs,
                      .w_per_oc = inputs};
}

TEST(WeightPlanStoreTest, BuildsOncePerStageAndKeysOnLevels) {
  ScConfig cfg;
  cfg.stream_length = 128;
  cfg.sng_width = 8;
  WeightPlanStore store(cfg, 2);
  const SegmentSchedule sched{cfg.phase_length(), 4,
                              cfg.phase_length() / 4};
  const WeightLayout layout = dense_layout(2, 3);
  const std::vector<float> weights{0.5f, 0.0f, -0.25f, 0.75f, 1e-6f, -1.0f};

  const auto t1 = store.get(0, sched, layout, weights);
  // 0.0 is in no phase; 1e-6 quantizes to level 0 (gated): 4 entries.
  EXPECT_EQ(t1->total(), 4u);
  EXPECT_TRUE(
      check_product_table(*t1, store.bank(), weights, "t").clean());

  // Same geometry: the cached table is returned and nothing is rebuilt.
  EXPECT_EQ(store.get(0, sched, layout, weights).get(), t1.get());

  // A changed schedule (a fused pool that stops tiling) is a new key: a
  // rebuild, while the old table stays valid for holders of the original
  // shared_ptr. Each entry holds the slots of its own sign phase only.
  const SegmentSchedule unpooled{cfg.phase_length(), 1, cfg.phase_length()};
  const auto t3 = store.get(0, unpooled, layout, weights);
  EXPECT_NE(t3.get(), t1.get());
  EXPECT_TRUE(t1->keyed_on(sched, layout));
  EXPECT_EQ(t3->words.size(), unpooled.positions * t3->total());
  EXPECT_TRUE(
      check_product_table(*t3, store.bank(), weights, "t").clean());

  // Distinct stages are independent slots.
  EXPECT_NE(store.get(1, sched, layout, weights).get(), t1.get());
}

TEST(WeightPlanStoreTest, FootprintCountsLiveTapsAndOneSignPhase) {
  // Every weight of a dense node is at its one (live) tap; each lane holds
  // the positions slots of one sign phase.
  const SegmentSchedule sched{64, 4, 16};
  EXPECT_EQ(weight_table_bytes(sched, dense_layout(3, 5)), 15u * 4u * 8u);
  // A 3x3 conv whose rectangle is the centre tap counts 1 of 9 taps.
  WeightLayout conv = dense_layout(4, 18);
  conv.in_c = conv.cpg = 2;
  conv.w_per_oc = 18;
  conv.kernel = 3;
  conv.taps = TapRect{1, 1, 1, 1};
  EXPECT_EQ(weight_table_bytes(sched, conv), 4u * 2u * 4u * 8u);
  // Multi-word segments scale the footprint by seg_words.
  EXPECT_EQ(weight_table_bytes(SegmentSchedule{512, 1, 512}, conv),
            4u * 2u * 8u * 8u);
}

/// A 3x3 conv's layout over a @p side x @p side x in_c map with the
/// node's own live-tap rectangle (sim::live_taps, as conv_geometry takes
/// it).
WeightLayout conv3x3_layout(std::size_t oc, std::size_t in_c, int side,
                            int stride) {
  const nn::ConvSpec spec{.in_channels = static_cast<int>(in_c),
                          .out_channels = static_cast<int>(oc),
                          .kernel = 3,
                          .stride = stride,
                          .padding = 1};
  const nn::Shape in{side, side, static_cast<int>(in_c)};
  return WeightLayout{.oc_count = oc, .rf = 9 * in_c, .in_c = in_c,
                      .cpg = in_c, .oc_per_group = oc, .w_per_oc = 9 * in_c,
                      .kernel = 3, .taps = live_taps(spec, in)};
}

/// The full-field slot that @p layout maps to live-field slot @p live.
std::size_t full_slot(const WeightLayout& layout, std::size_t live) {
  for (std::size_t slot = 0; slot < layout.rf; ++slot) {
    if (layout.live_slot(slot) == live) {
      return slot;
    }
  }
  ADD_FAILURE() << "no full slot maps to live slot " << live;
  return WeightLayout::kNoSlot;
}

std::vector<float> signed_weights(std::size_t count, std::uint32_t seed) {
  std::vector<float> w(count);
  sc::XorShift32 rng(seed);
  for (float& v : w) {
    v = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  }
  return w;
}

TEST(ProductTableShapeTest, OneByOneMapHoldsOnlyCentreTapEntries) {
  // A 3x3 pad-1 conv on a 1x1 map reads only its centre tap: the table
  // holds entries there alone, every other signed weight counts as gated,
  // and each entry stores only its own sign phase's window slots.
  const WeightLayout layout = conv3x3_layout(3, 4, 1, 1);
  ASSERT_EQ(layout.taps, (TapRect{1, 1, 1, 1}));
  const SegmentSchedule sched{64, 4, 16};
  StreamBank bank(8, 0x5EED, 2 * sched.phase, true);
  const std::vector<float> weights = signed_weights(3 * 36, 11);
  const auto tbl = build_product_table(bank, sched, layout, weights);
  std::size_t centre = 0;
  std::size_t signed_total = 0;
  for (std::size_t oc = 0; oc < 3; ++oc) {
    for (std::size_t s = 0; s < layout.rf; ++s) {
      const float wv = weights[layout.weight(oc, s)];
      signed_total += wv != 0.0f ? 1 : 0;
      const bool at_centre = s / layout.in_c == 4;
      centre += at_centre && bank.quantize(std::fabs(wv)) != 0 ? 1 : 0;
    }
  }
  EXPECT_EQ(tbl->total(), centre);
  EXPECT_LE(tbl->total(), 3u * 4u);
  for (const std::uint32_t live : tbl->slot_of) {
    EXPECT_LT(live, layout.live_rf());
    EXPECT_EQ(full_slot(layout, live) / layout.in_c, 4u);  // the centre tap
  }
  std::size_t gated = 0;
  for (const std::uint32_t g : tbl->gated) {
    gated += g;
  }
  EXPECT_EQ(gated + tbl->total(), signed_total);
  EXPECT_EQ(tbl->words.size(), sched.positions * tbl->total());
  EXPECT_EQ(tbl->bm_words(), 1u);
  EXPECT_TRUE(check_product_table(*tbl, bank, weights, "t").clean());

  // The stride-2 3x3 from a 2x2 map to 1x1 reads taps (1..2, 1..2).
  EXPECT_EQ(conv3x3_layout(3, 4, 2, 2).taps, (TapRect{1, 1, 2, 2}));
  // A 2x2 map at stride 1 reads every tap at some position.
  EXPECT_EQ(conv3x3_layout(3, 4, 2, 1).taps, (TapRect{0, 0, 3, 3}));
}

TEST(ProductTableShapeTest, OwnSignWordsMatchDirectFills) {
  // Every entry's window slot k equals a direct fill at the offset of its
  // group's sign phase; tap offsets split each group at its taps.
  const WeightLayout layout = conv3x3_layout(2, 3, 2, 1);
  const SegmentSchedule sched{96, 4, 24};
  StreamBank bank(9, 0xACE5, 2 * sched.phase, true);
  const std::vector<float> weights = signed_weights(2 * 27, 13);
  const auto tbl = build_product_table(bank, sched, layout, weights);
  ASSERT_EQ(layout.taps.count(), 9u);
  std::vector<std::uint64_t> want(sched.seg_words());
  for (std::size_t group = 0; group < 4; ++group) {
    const bool positive = group < 2;
    const std::uint32_t* const to = tbl->taps_of(group);
    for (std::uint32_t ei = to[0]; ei < to[9]; ++ei) {
      const std::size_t tap = tbl->slot_of[ei] / layout.in_c;
      EXPECT_LE(to[tap], ei);
      EXPECT_LT(ei, to[tap + 1]);
      const std::size_t wi =
          layout.weight(group % 2, full_slot(layout, tbl->slot_of[ei]));
      EXPECT_EQ(weights[wi] > 0.0f, positive);
      for (std::size_t k = 0; k < sched.positions; ++k) {
        bank.fill(bank.quantize(std::fabs(weights[wi])),
                  static_cast<std::uint32_t>(wi), sched.offset(positive, k),
                  sched.seg, want);
        EXPECT_EQ(tbl->words[(k * tbl->total() + ei) * sched.seg_words()],
                  want[0])
            << "entry " << ei << " k " << k;
      }
    }
  }
}

TEST(ProductTableShapeTest, ValidatorReportsCorruptedTapOffsetAndSignSlot) {
  const WeightLayout layout = conv3x3_layout(2, 3, 4, 1);
  const SegmentSchedule sched{64, 1, 64};
  StreamBank bank(8, 0x77, 2 * sched.phase, true);
  const std::vector<float> weights = signed_weights(2 * 27, 17);
  const auto tbl = build_product_table(bank, sched, layout, weights);
  ASSERT_TRUE(check_product_table(*tbl, bank, weights, "t").clean());

  // A tap offset moved one entry late: the entry it skips lies outside
  // its tap's run.
  ProductTable moved = *tbl;
  std::uint32_t* const to = moved.tap_off.data() + 5;  // group 0, tap 5
  ASSERT_LT(to[0], moved.tap_off[9]);                   // group 0's end
  ++to[0];
  const core::Report r1 = check_product_table(moved, bank, weights, "t");
  EXPECT_TRUE(r1.has_rule("plan-invariant")) << r1.to_string();

  // Entry 0 (positive) holding its negative-phase words, as if its sign
  // slot were swapped.
  ProductTable swapped = *tbl;
  const std::size_t wi =
      layout.weight(0, full_slot(layout, swapped.slot_of[0]));
  std::vector<std::uint64_t> other(sched.seg_words());
  bank.fill(bank.quantize(std::fabs(weights[wi])),
            static_cast<std::uint32_t>(wi), sched.offset(false, 0), sched.seg,
            other);
  ASSERT_NE(swapped.words[0], other[0]);
  swapped.words[0] = other[0];
  const core::Report r2 = check_product_table(swapped, bank, weights, "t");
  EXPECT_TRUE(r2.has_rule("plan-invariant")) << r2.to_string();

  // A table checked against other weights (one sign flipped) is reported:
  // the re-classification walk moves that weight to the other phase.
  std::vector<float> edited = weights;
  edited[3] = -edited[3];
  const core::Report r3 = check_product_table(*tbl, bank, edited, "t");
  EXPECT_TRUE(r3.has_rule("plan-invariant")) << r3.to_string();
}

TEST(ProductTableShapeTest, BatchNormScaleFoldsIntoTheKeyedWeights) {
  // A 1x1 conv node with a folded BatchNorm: node_weights multiplies each
  // output channel's weights by its scale, and the table classifies those
  // folded weights, so a negative scale moves its channel's products to
  // the other phase.
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(
      nn::ConvSpec{.in_channels = 3, .out_channels = 2, .kernel = 1});
  const std::vector<float> raw{0.5f, -0.25f, 0.75f, 0.5f, -0.25f, 0.75f};
  std::copy(raw.begin(), raw.end(), conv.weights().begin());
  auto& bn = net.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = 2});
  bn.gamma()[0] = 1.0f;
  bn.gamma()[1] = -1.0f;
  const std::vector<LoweredOp> ops =
      lower_graph(net, LowerOptions{.fold_batch_norm = true}, "t");
  ASSERT_EQ(ops.size(), 1u);
  ASSERT_EQ(ops[0].bn, &bn);
  std::vector<float> scratch;
  const std::span<const float> folded = node_weights(ops[0], scratch);
  ASSERT_EQ(folded.size(), raw.size());
  for (std::size_t j = 0; j < raw.size(); ++j) {
    EXPECT_EQ(folded[j], raw[j] * bn.scale(static_cast<int>(j / 3)));
  }
  EXPECT_LT(folded[1], 0.0f);
  EXPECT_GT(folded[4], 0.0f);
  // A 1x1 conv's layout is a dense one.
  const WeightLayout layout = dense_layout(2, 3);
  const SegmentSchedule sched{64, 1, 64};
  StreamBank bank(8, 0x99, 2 * sched.phase, true);
  const auto tbl = build_product_table(bank, sched, layout, folded);
  // Channel 0 holds two positive weights, channel 1 (scale -1) one.
  EXPECT_EQ(tbl->taps_of(1)[1] - tbl->taps_of(0)[0], 3u);
  EXPECT_EQ(tbl->taps_of(1)[1] - tbl->taps_of(1)[0], 1u);
  EXPECT_TRUE(check_product_table(*tbl, bank, folded, "t").clean());
}

TEST(ProductTableShapeTest, ValidatorReDerivesLiveTaps) {
  // The stride-2 3x3 pad-1 conv from a 2x2 map to 1x1 reads taps
  // (1..2, 1..2).
  ConvGeometry g;
  g.spec = nn::ConvSpec{.in_channels = 4,
                        .out_channels = 3,
                        .kernel = 3,
                        .stride = 2,
                        .padding = 1};
  g.in = nn::Shape{2, 2, 4};
  g.conv_out = nn::Shape{1, 1, 3};
  g.layout.kernel = 3;
  g.layout.taps = live_taps(g.spec, g.in);
  ASSERT_EQ(g.layout.taps, (TapRect{1, 1, 2, 2}));
  EXPECT_TRUE(check_live_taps(g, "t").clean());
  // One column too narrow: live weights would be counted as gated.
  g.layout.taps.w = 1;
  const core::Report narrow = check_live_taps(g, "t");
  EXPECT_TRUE(narrow.has_rule("plan-invariant")) << narrow.to_string();
  // The full kernel: entries for taps that only ever read padding.
  g.layout.taps = TapRect{0, 0, 3, 3};
  EXPECT_TRUE(check_live_taps(g, "t").has_rule("plan-invariant"));
}

TEST(ProductTableShapeTest, PositionTapsAreTheMaximalPerPositionSets) {
  const auto spec = [](int stride) {
    return nn::ConvSpec{.in_channels = 1,
                        .out_channels = 1,
                        .kernel = 3,
                        .stride = stride,
                        .padding = 1};
  };
  // A 1x1 map: only the centre tap, at the one position.
  EXPECT_EQ(position_taps(spec(1), nn::Shape{1, 1, 1}),
            (std::vector<TapRect>{{1, 1, 1, 1}}));
  // A 2x2 map: each position reads a 2x2 corner of the kernel; no position
  // reads the whole 3x3 live-tap rectangle.
  EXPECT_EQ(position_taps(spec(1), nn::Shape{2, 2, 1}),
            (std::vector<TapRect>{
                {1, 1, 2, 2}, {1, 0, 2, 2}, {0, 1, 2, 2}, {0, 0, 2, 2}}));
  // A map with an interior position: the whole kernel, once.
  EXPECT_EQ(position_taps(spec(1), nn::Shape{4, 3, 1}),
            (std::vector<TapRect>{{0, 0, 3, 3}}));
  // Stride 2 from 3x3 to 2x2: outputs read rows (1..2) and (0..1), as on
  // the 2x2 map.
  EXPECT_EQ(position_taps(spec(2), nn::Shape{3, 3, 1}),
            position_taps(spec(1), nn::Shape{2, 2, 1}));
  // Stride 2 from 5x5 to 3x3: the middle output reads every row, and the
  // border outputs' rows lie inside its.
  EXPECT_EQ(position_taps(spec(2), nn::Shape{5, 5, 1}),
            (std::vector<TapRect>{{0, 0, 3, 3}}));
}

}  // namespace
}  // namespace acoustic::sim
