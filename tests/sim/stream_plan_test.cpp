// Unit tests for the packed stream tables: slot layout, bit identity of
// planned segments against direct StreamBank generation, the byte-budget
// footprint rule, and the shared weight-table store.
#include <gtest/gtest.h>

#include <vector>

#include "runtime/thread_pool.hpp"
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
  StreamPlanCounters counters;
  plan.build(levels, counters, nullptr);

  std::vector<std::uint64_t> want(sched.seg_words());
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (levels[lane] == 0) {
      EXPECT_FALSE(plan.planned(lane));
      continue;
    }
    ASSERT_TRUE(plan.planned(lane));
    for (const bool positive : {true, false}) {
      for (std::size_t k = 0; k < sched.positions; ++k) {
        bank.fill(levels[lane], static_cast<std::uint32_t>(lane),
                  sched.offset(positive, k), sched.seg, want);
        const std::uint64_t* got = plan.segment(lane, positive, k);
        for (std::size_t w = 0; w < sched.seg_words(); ++w) {
          ASSERT_EQ(got[w], want[w])
              << "lane " << lane << " positive " << positive << " k " << k
              << " word " << w << " decorrelate " << decorrelate;
        }
        EXPECT_EQ(got, plan.lane_words(lane) +
                           sched.slot_index(positive, k) * sched.seg_words());
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

TEST(LayerStreamPlanTest, PooledBuildIsIdenticalToSerial) {
  const SegmentSchedule sched{96, 4, 24};
  StreamBank bank(9, 0xACE5, 2 * sched.phase, true);
  const std::size_t lanes = 41;
  const auto levels = ramp_levels(lanes, 511);

  LayerStreamPlan serial(bank, sched, lanes, 0);
  LayerStreamPlan pooled(bank, sched, lanes, 0);
  StreamPlanCounters sc1;
  StreamPlanCounters sc2;
  serial.build(levels, sc1, nullptr);
  runtime::ThreadPool pool(3);
  pooled.build(levels, sc2, &pool);

  EXPECT_EQ(sc1.bits_generated, sc2.bits_generated);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    ASSERT_EQ(serial.planned(lane), pooled.planned(lane));
    if (!serial.planned(lane)) {
      continue;
    }
    for (std::size_t w = 0; w < sched.words_per_lane(); ++w) {
      ASSERT_EQ(serial.lane_words(lane)[w], pooled.lane_words(lane)[w])
          << "lane " << lane << " word " << w;
    }
  }
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
  StreamPlanCounters counters;
  over.build(levels, counters, nullptr);  // no-op
  EXPECT_EQ(counters.bits_generated, 0u);
  EXPECT_FALSE(over.planned(1));
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

  const auto t1 = store.get(0, sched, layout, weights, 0, nullptr);
  ASSERT_TRUE(t1->planned);
  // 0.0 is in no phase; 1e-6 quantizes to level 0 (gated): 4 entries.
  EXPECT_EQ(t1->total, 4u);
  EXPECT_TRUE(check_product_table(*t1, store.bank(), weights, "t").clean());

  // Same key: the cached table is returned and nothing is rebuilt.
  EXPECT_EQ(store.get(0, sched, layout, weights, 0, nullptr).get(), t1.get());

  // Changed weights (retraining): rebuild, and the old table stays valid
  // for holders of the original shared_ptr.
  std::vector<float> retrained = weights;
  retrained[0] = 0.5625f;
  const auto t2 = store.get(0, sched, layout, retrained, 0, nullptr);
  EXPECT_NE(t2.get(), t1.get());
  EXPECT_TRUE(t1->keyed_on(sched, layout, weights));

  // A changed schedule (a fused pool that stops tiling) is a new key too.
  const SegmentSchedule unpooled{cfg.phase_length(), 1, cfg.phase_length()};
  const auto t3 = store.get(0, unpooled, layout, retrained, 0, nullptr);
  EXPECT_NE(t3.get(), t2.get());
  EXPECT_EQ(t3->words.size(), unpooled.slots() * t3->total);
  EXPECT_TRUE(
      check_product_table(*t3, store.bank(), retrained, "t").clean());

  // Distinct stages are independent slots.
  EXPECT_NE(store.get(1, sched, layout, weights, 0, nullptr).get(), t1.get());

  // Over budget: the structure is built, the words are left out and the
  // per-entry levels kept for regeneration.
  WeightPlanStore tight(cfg, 1);
  const auto t4 = tight.get(0, sched, layout, weights, 1, nullptr);
  EXPECT_FALSE(t4->planned);
  EXPECT_TRUE(t4->words.empty());
  EXPECT_EQ(t4->level_of.size(), t4->total);
  EXPECT_TRUE(check_product_table(*t4, tight.bank(), weights, "t").clean());
}

}  // namespace
}  // namespace acoustic::sim
