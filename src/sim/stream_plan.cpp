#include "sim/stream_plan.hpp"

#include <cmath>
#include <numeric>

namespace acoustic::sim {

namespace {

/// Words of the buffer a lane's run — at most both sign phases, 2*phase
/// bits — is generated into (plus a zero pad word: the shift-extract below
/// may read past the end).
std::size_t lane_buf_words(const SegmentSchedule& sched) {
  return (2 * sched.phase + 63) / 64 + 1;
}

/// The sign phases of an activation lane: both, positive first.
constexpr bool kBothSigns[] = {true, false};

/// Generates @p lane's stream over the consecutive sign phases @p signs
/// (kBothSigns for an activation lane, the one sign of a weight entry) and
/// slices every slot of them out of it: slot j, window slot
/// k = j % positions of phase signs[j / positions], lands at dst + j *
/// slot_stride. The run starts at bit0 = sched.offset(signs[0], 0), and
/// fill() maps output bit t of (offset, count) to shared sequence position
/// offset + t, so slicing the run at sched.offset(sign, k) - bit0 is
/// bit-identical to a per-slot fill — at one wiring hoist and one state
/// sweep per lane instead of one per slot. @p buf holds lane_buf_words().
void fill_slots(const StreamBank& bank, const SegmentSchedule& sched,
                std::uint32_t level, std::size_t lane,
                std::span<const bool> signs, std::uint64_t* buf,
                std::uint64_t* dst, std::size_t slot_stride) {
  const std::size_t bit0 = sched.offset(signs[0], 0);
  const std::size_t run = signs.size() * sched.phase;
  const std::size_t run_words = (run + 63) / 64;
  const std::size_t seg_words = sched.seg_words();
  const unsigned tail = static_cast<unsigned>(sched.seg % 64);
  const std::uint64_t tail_mask =
      tail != 0 ? (std::uint64_t{1} << tail) - 1 : ~std::uint64_t{0};
  bank.fill(level, static_cast<std::uint32_t>(lane), bit0, run,
            {buf, run_words});
  buf[run_words] = 0;
  for (std::size_t slot = 0; slot < signs.size() * sched.positions; ++slot) {
    const std::size_t start = sched.offset(signs[slot / sched.positions],
                                           slot % sched.positions) -
                              bit0;
    std::uint64_t* out = dst + slot * slot_stride;
    for (std::size_t w = 0; w < seg_words; ++w) {
      const std::size_t bit = start + w * 64;
      const std::size_t i = bit / 64;
      const unsigned r = static_cast<unsigned>(bit % 64);
      std::uint64_t v = buf[i] >> r;
      if (r != 0) {
        v |= buf[i + 1] << (64u - r);
      }
      // Bits past the segment end must be zero, exactly as a direct
      // fill() of `seg` bits leaves them.
      out[w] = w + 1 == seg_words ? v & tail_mask : v;
    }
  }
}

}  // namespace

LayerStreamPlan::LayerStreamPlan(const StreamBank& bank,
                                 const SegmentSchedule& sched,
                                 std::size_t lanes, std::size_t budget_bytes)
    : bank_(&bank),
      sched_(sched),
      lanes_(lanes),
      enabled_(!over_plan_budget(plan_table_bytes(sched, lanes),
                                 budget_bytes)) {
  if (enabled_) {
    words_.resize(lanes * sched.words_per_lane());
  }
}

std::uint64_t LayerStreamPlan::build(std::span<const std::uint32_t> levels) {
  if (!enabled_) {
    return 0;
  }
  build_buf_.resize(lane_buf_words(sched_));
  std::uint64_t built = 0;
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    if (levels[lane] != 0) {
      fill_slots(*bank_, sched_, levels[lane], lane, kBothSigns,
                 build_buf_.data(),
                 words_.data() + lane * sched_.words_per_lane(),
                 sched_.seg_words());
      ++built;
    }
  }
  // Honest accounting: the kernel swept the full 2*phase window per built
  // lane (>= slots * seg when phase does not divide evenly).
  return built * static_cast<std::uint64_t>(2 * sched_.phase);
}

std::shared_ptr<const ProductTable> build_product_table(
    const StreamBank& bank, const SegmentSchedule& sched,
    const WeightLayout& layout, std::span<const float> weights) {
  auto tbl = std::make_shared<ProductTable>();
  tbl->sched = sched;
  tbl->layout = layout;
  const std::size_t oc_count = layout.oc_count;
  const std::size_t groups = 2 * oc_count;  // [phase * oc_count + oc]
  const std::size_t taps = layout.taps.count();
  const std::size_t bm_words = tbl->bm_words();
  tbl->gated.assign(groups, 0);
  tbl->tap_off.assign(groups * taps + 1, 0);
  tbl->group_bm.assign(groups * bm_words, 0);
  std::vector<std::uint32_t> levels(weights.size());
  for (std::size_t wi = 0; wi < weights.size(); ++wi) {
    levels[wi] = bank.quantize(std::fabs(weights[wi]));
  }
  // Visits every signed weight in oc-major slot order with its live-field
  // slot (kNoSlot at a dead tap). Zero (and non-finite) weights are active
  // in neither sign phase, exactly like the scalar oracle's per-phase sign
  // test.
  const auto for_each_signed = [&](const auto& visit) {
    for (std::size_t oc = 0; oc < oc_count; ++oc) {
      for (std::size_t s = 0; s < layout.rf; ++s) {
        const std::size_t wi = layout.weight(oc, s);
        if (wi == WeightLayout::kNoWeight) {
          continue;  // grouped conv: slot outside oc's group
        }
        const float wv = weights[wi];
        if (!(wv > 0.0f) && !(wv < 0.0f)) {
          continue;
        }
        visit((wv > 0.0f ? 0 : 1) * oc_count + oc, layout.live_slot(s), wi,
              levels[wi]);
      }
    }
  };
  // A product gated at every position — a zero level, or a tap that only
  // ever reads padding — gets no entry, only a count. Every other one is
  // counted in its (group, tap) cell, one past the cell's offset slot.
  const auto cell = [&](std::size_t group, std::size_t live) {
    return group * taps + live / layout.in_c;
  };
  const auto usable = [](std::size_t live, std::uint32_t level) {
    return level != 0 && live != WeightLayout::kNoSlot;
  };
  for_each_signed([&](std::size_t group, std::size_t live, std::size_t,
                      std::uint32_t level) {
    if (usable(live, level)) {
      ++tbl->tap_off[cell(group, live) + 1];
    } else {
      ++tbl->gated[group];
    }
  });
  std::partial_sum(tbl->tap_off.begin(), tbl->tap_off.end(),
                   tbl->tap_off.begin());
  const std::uint32_t total = tbl->tap_off.back();
  tbl->slot_of.assign(total, 0);
  std::vector<std::uint32_t> lane_of(total);
  std::vector<std::uint32_t> level_of(total);
  // Within a cell, entries keep the visiting (input channel) order.
  std::vector<std::uint32_t> cursor(tbl->tap_off.begin(),
                                    tbl->tap_off.end() - 1);
  for_each_signed([&](std::size_t group, std::size_t live, std::size_t wi,
                      std::uint32_t level) {
    if (!usable(live, level)) {
      return;
    }
    const std::uint32_t ei = cursor[cell(group, live)]++;
    tbl->slot_of[ei] = static_cast<std::uint32_t>(live);
    lane_of[ei] = static_cast<std::uint32_t>(wi);
    level_of[ei] = level;
    tbl->group_bm[group * bm_words + live / 64] |= std::uint64_t{1}
                                                   << (live % 64);
  });
  // Each entry is read in its own sign phase only: generate that phase's
  // bits and keep its window slots. Positive groups come first.
  const std::size_t seg_words = sched.seg_words();
  const std::uint32_t positive_entries = tbl->taps_of(oc_count)[0];
  tbl->words.assign(sched.positions * total * seg_words, 0);
  std::vector<std::uint64_t> buf(lane_buf_words(sched));
  for (std::uint32_t ei = 0; ei < total; ++ei) {
    const bool sign[] = {ei < positive_entries};
    fill_slots(bank, sched, level_of[ei], lane_of[ei], sign, buf.data(),
               tbl->words.data() + ei * seg_words, total * seg_words);
  }
  return tbl;
}

WeightPlanStore::WeightPlanStore(const ScConfig& cfg, std::size_t stages)
    : bank_(cfg.sng_width, cfg.weight_seed, 2 * cfg.phase_length(),
            cfg.decorrelate_lanes) {
  entries_.reserve(stages);
  for (std::size_t s = 0; s < stages; ++s) {
    entries_.push_back(std::make_unique<Entry>());
  }
}

std::shared_ptr<const ProductTable> WeightPlanStore::get(
    std::size_t stage, const SegmentSchedule& sched,
    const WeightLayout& layout, std::span<const float> weights) {
  Entry& entry = *entries_[stage];
  const std::lock_guard<std::mutex> lock(entry.mu);
  if (entry.table == nullptr || !entry.table->keyed_on(sched, layout)) {
    entry.table = build_product_table(bank_, sched, layout, weights);
  }
  return entry.table;
}

}  // namespace acoustic::sim
