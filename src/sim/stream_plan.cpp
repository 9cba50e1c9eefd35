#include "sim/stream_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "runtime/thread_pool.hpp"

namespace acoustic::sim {

namespace {

/// Words of the buffer one lane's full 2*phase window is generated into
/// (plus a zero pad word: the shift-extract below may read past the end).
std::size_t lane_buf_words(const SegmentSchedule& sched) {
  return (2 * sched.phase + 63) / 64 + 1;
}

/// Generates @p lane's stream once over both sign phases and slices every
/// slot out of it: slot si's seg_words words land at dst + si * slot_stride.
/// fill() maps output bit j of (offset, count) to shared sequence position
/// offset + j, so slicing the [0, 2*phase) run at offset(positive, k) is
/// bit-identical to a per-slot fill — at one wiring hoist and one state
/// sweep per lane instead of one per slot. @p buf holds lane_buf_words().
void fill_slots(const StreamBank& bank, const SegmentSchedule& sched,
                std::uint32_t level, std::size_t lane, std::uint64_t* buf,
                std::uint64_t* dst, std::size_t slot_stride) {
  const std::size_t buf_words = lane_buf_words(sched);
  const std::size_t seg_words = sched.seg_words();
  const unsigned tail = static_cast<unsigned>(sched.seg % 64);
  const std::uint64_t tail_mask =
      tail != 0 ? (std::uint64_t{1} << tail) - 1 : ~std::uint64_t{0};
  bank.fill(level, static_cast<std::uint32_t>(lane), 0, 2 * sched.phase,
            {buf, buf_words - 1});
  buf[buf_words - 1] = 0;
  for (std::size_t slot = 0; slot < sched.slots(); ++slot) {
    const bool positive = slot < sched.positions;
    const std::size_t k = positive ? slot : slot - sched.positions;
    const std::size_t bit0 = sched.offset(positive, k);
    std::uint64_t* out = dst + slot * slot_stride;
    for (std::size_t w = 0; w < seg_words; ++w) {
      const std::size_t bit = bit0 + w * 64;
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

/// Runs body(item, buf) for every item in [0, count), sharded across
/// @p pool when given (one lane buffer per worker) or serially over
/// @p serial_buf. Items must write disjoint outputs.
template <typename Body>
void for_each_lane(std::size_t count, const SegmentSchedule& sched,
                   runtime::ThreadPool* pool,
                   std::vector<std::uint64_t>& serial_buf, const Body& body) {
  const std::size_t buf_words = lane_buf_words(sched);
  if (pool != nullptr && count > 1) {
    std::vector<std::vector<std::uint64_t>> bufs(
        pool->size(), std::vector<std::uint64_t>(buf_words));
    pool->parallel_for(count, [&](std::size_t item, unsigned worker) {
      body(item, bufs[worker].data());
    });
    return;
  }
  serial_buf.resize(buf_words);
  for (std::size_t item = 0; item < count; ++item) {
    body(item, serial_buf.data());
  }
}

}  // namespace

LayerStreamPlan::LayerStreamPlan(const StreamBank& bank,
                                 const SegmentSchedule& sched,
                                 std::size_t lanes, std::size_t budget_bytes)
    : bank_(&bank), sched_(sched), lanes_(lanes), enabled_(true) {
  if (over_plan_budget(plan_table_bytes(sched, lanes), budget_bytes)) {
    enabled_ = false;
    return;
  }
  words_.resize(lanes * sched.words_per_lane());
  built_.assign(lanes, 0);
}

void LayerStreamPlan::build(std::span<const std::uint32_t> levels,
                            StreamPlanCounters& counters,
                            runtime::ThreadPool* pool) {
  if (!enabled_) {
    return;
  }
  // Disjoint writes per lane and pure per-lane content: the sharded build
  // is bit-identical to the serial one for any worker count.
  for_each_lane(lanes_, sched_, pool, build_buf_,
                [&](std::size_t lane, std::uint64_t* buf) {
                  if (levels[lane] == 0) {
                    built_[lane] = 0;  // operand-gated: never read
                    return;
                  }
                  fill_slots(*bank_, sched_, levels[lane], lane, buf,
                             words_.data() + lane * sched_.words_per_lane(),
                             sched_.seg_words());
                  built_[lane] = 1;
                });
  std::uint64_t built = 0;
  for (const char b : built_) {
    built += static_cast<std::uint64_t>(b);
  }
  // Honest accounting: the kernel swept the full 2*phase window per built
  // lane (>= slots * seg when phase does not divide evenly).
  counters.bits_generated += built * static_cast<std::uint64_t>(2 * sched_.phase);
}

bool ProductTable::keyed_on(const SegmentSchedule& s, const WeightLayout& l,
                            std::span<const float> w) const noexcept {
  return sched == s && layout == l && weights.size() == w.size() &&
         (w.empty() || std::memcmp(weights.data(), w.data(),
                                   w.size() * sizeof(float)) == 0);
}

std::shared_ptr<const ProductTable> build_product_table(
    const StreamBank& bank, const SegmentSchedule& sched,
    const WeightLayout& layout, std::span<const float> weights,
    std::size_t budget_bytes, runtime::ThreadPool* pool) {
  auto tbl = std::make_shared<ProductTable>();
  tbl->sched = sched;
  tbl->layout = layout;
  tbl->weights.assign(weights.begin(), weights.end());
  const std::size_t oc_count = layout.oc_count;
  const std::size_t groups = 2 * oc_count;  // [phase * oc_count + oc]
  tbl->bm_words = (layout.rf + 63) / 64;
  tbl->group_count.assign(groups, 0);
  tbl->gated.assign(groups, 0);
  tbl->group_off.assign(groups + 1, 0);
  tbl->group_bm.assign(groups * tbl->bm_words, 0);
  std::vector<std::uint32_t> levels(weights.size());
  for (std::size_t wi = 0; wi < weights.size(); ++wi) {
    levels[wi] = bank.quantize(std::fabs(weights[wi]));
  }
  // Visits every signed weight in oc-major slot order — the entry order.
  // Zero (and non-finite) weights are active in neither sign phase,
  // exactly like the scalar oracle's per-phase sign test.
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
        visit((wv > 0.0f ? 0 : 1) * oc_count + oc, s, wi, levels[wi]);
      }
    }
  };
  for_each_signed([&](std::size_t group, std::size_t, std::size_t,
                      std::uint32_t level) {
    ++(level != 0 ? tbl->group_count : tbl->gated)[group];
  });
  std::uint32_t total = 0;
  for (std::size_t gi = 0; gi < groups; ++gi) {
    tbl->group_off[gi] = total;
    total += tbl->group_count[gi];
  }
  tbl->group_off[groups] = total;
  tbl->total = total;
  tbl->slot_of.assign(total, 0);
  std::vector<std::uint32_t> lane_of(total);
  std::vector<std::uint32_t> level_of(total);
  std::vector<std::uint32_t> cursor(tbl->group_off.begin(),
                                    tbl->group_off.end() - 1);
  for_each_signed([&](std::size_t group, std::size_t s, std::size_t wi,
                      std::uint32_t level) {
    if (level == 0) {
      return;
    }
    const std::uint32_t ei = cursor[group]++;
    tbl->slot_of[ei] = static_cast<std::uint32_t>(s);
    lane_of[ei] = static_cast<std::uint32_t>(wi);
    level_of[ei] = level;
    tbl->group_bm[group * tbl->bm_words + s / 64] |= std::uint64_t{1}
                                                     << (s % 64);
  });
  tbl->planned = !over_plan_budget(plan_table_bytes(sched, weights.size()),
                                   budget_bytes);
  if (!tbl->planned) {
    tbl->level_of = std::move(level_of);
    return tbl;
  }
  const std::size_t seg_words = sched.seg_words();
  tbl->words.assign(sched.slots() * total * seg_words, 0);
  std::vector<std::uint64_t> serial_buf;
  for_each_lane(total, sched, pool, serial_buf,
                [&](std::size_t ei, std::uint64_t* buf) {
                  fill_slots(bank, sched, level_of[ei], lane_of[ei], buf,
                             tbl->words.data() + ei * seg_words,
                             total * seg_words);
                });
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
    const WeightLayout& layout, std::span<const float> weights,
    std::size_t budget_bytes, runtime::ThreadPool* pool) {
  Entry& entry = *entries_[stage];
  const std::lock_guard<std::mutex> lock(entry.mu);
  if (entry.table == nullptr ||
      !entry.table->keyed_on(sched, layout, weights)) {
    entry.table = build_product_table(bank_, sched, layout, weights,
                                      budget_bytes, pool);
  }
  return entry.table;
}

}  // namespace acoustic::sim
