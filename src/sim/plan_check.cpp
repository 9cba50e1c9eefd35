#include "sim/plan_check.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

namespace acoustic::sim {

namespace {

using core::Severity;

std::string at(std::string_view path) { return std::string(path); }

}  // namespace

core::Report check_live_taps(const ConvGeometry& g, std::string_view path) {
  // The bounding box of every tap an output position reads in bounds,
  // scanned position by position — independent of live_taps' per-axis
  // arithmetic.
  const nn::ConvSpec& spec = g.spec;
  int y_lo = spec.kernel;
  int y_hi = 0;
  int x_lo = spec.kernel;
  int x_hi = 0;
  for (int oy = 0; oy < g.conv_out.h; ++oy) {
    for (int ox = 0; ox < g.conv_out.w; ++ox) {
      for (int ky = 0; ky < spec.kernel; ++ky) {
        for (int kx = 0; kx < spec.kernel; ++kx) {
          const int iy = oy * spec.stride + ky - spec.padding;
          const int ix = ox * spec.stride + kx - spec.padding;
          if (iy >= 0 && iy < g.in.h && ix >= 0 && ix < g.in.w) {
            y_lo = std::min(y_lo, ky);
            y_hi = std::max(y_hi, ky + 1);
            x_lo = std::min(x_lo, kx);
            x_hi = std::max(x_hi, kx + 1);
          }
        }
      }
    }
  }
  TapRect want{0, 0, 0, 0};
  if (y_lo < y_hi && x_lo < x_hi) {
    want = TapRect{static_cast<std::size_t>(y_lo),
                   static_cast<std::size_t>(x_lo),
                   static_cast<std::size_t>(y_hi - y_lo),
                   static_cast<std::size_t>(x_hi - x_lo)};
  }
  core::Report report;
  const TapRect& got = g.layout.taps;
  if (!(got == want)) {
    const auto rect = [](const TapRect& r) {
      return std::to_string(r.h) + "x" + std::to_string(r.w) + " at (" +
             std::to_string(r.y0) + ", " + std::to_string(r.x0) + ")";
    };
    report.add("plan-invariant", Severity::kError, at(path),
               "live-tap rectangle " + rect(got) +
                   " differs from the taps the output positions read, " +
                   rect(want));
  }
  return report;
}

core::Report check_product_table(const ProductTable& table,
                                 const StreamBank& bank,
                                 std::span<const float> weights,
                                 std::string_view path,
                                 std::size_t max_entries) {
  core::Report report;
  const WeightLayout& layout = table.layout;
  const SegmentSchedule& sched = table.sched;
  const std::size_t oc_count = layout.oc_count;
  const std::size_t groups = 2 * oc_count;
  const std::size_t taps = layout.taps.count();
  const std::size_t seg_words = sched.seg_words();
  if (weights.size() != oc_count * layout.w_per_oc ||
      layout.taps.y0 + layout.taps.h > layout.kernel ||
      layout.taps.x0 + layout.taps.w > layout.kernel ||
      table.gated.size() != groups ||
      table.tap_off.size() != groups * taps + 1 ||
      table.tap_off.front() != 0 || table.slot_of.size() != table.total() ||
      table.group_bm.size() != groups * table.bm_words() ||
      table.words.size() != sched.positions * table.total() * seg_words) {
    report.add("plan-invariant", Severity::kError, at(path),
               "table extents are inconsistent with the layer geometry (" +
                   std::to_string(groups) + " groups, live field " +
                   std::to_string(layout.live_rf()) + " of rf " +
                   std::to_string(layout.rf) + ", " +
                   std::to_string(weights.size()) + " weights)");
    return report;
  }
  std::vector<std::uint32_t> cursor(groups);
  for (std::size_t gi = 0; gi < groups; ++gi) {
    cursor[gi] = table.taps_of(gi)[0];
  }
  std::vector<std::uint32_t> gated(groups, 0);
  std::size_t mismatches = 0;
  const auto flag = [&](const std::string& msg) {
    if (++mismatches <= 4) {  // cap per-layer noise; the count is summarized
      report.add("plan-invariant", Severity::kError, at(path), msg);
    }
  };
  const auto in_bm = [&](std::size_t group, std::size_t live) {
    return ((table.group_bm[group * table.bm_words() + live / 64] >>
             (live % 64)) &
            1u) != 0;
  };
  // Tap offsets: prefix sums, so never decreasing from 0 to total.
  const auto descent =
      std::adjacent_find(table.tap_off.begin(), table.tap_off.end(),
                         std::greater<>());
  if (descent != table.tap_off.end()) {
    const auto cell =
        static_cast<std::size_t>(descent - table.tap_off.begin());
    flag("tap offsets decrease after (group, tap) cell " +
         std::to_string(cell) + ": " + std::to_string(descent[0]) + " > " +
         std::to_string(descent[1]));
  }
  // Sample entries evenly so both ends of the weight lane space are
  // exercised against regeneration.
  const std::size_t stride =
      max_entries != 0 && table.total() > max_entries
          ? table.total() / max_entries
          : 1;
  std::vector<std::uint64_t> fresh(seg_words);
  std::size_t sampled = 0;
  for (std::size_t oc = 0; oc < oc_count; ++oc) {
    for (std::size_t slot = 0; slot < layout.rf; ++slot) {
      const std::size_t wi = layout.weight(oc, slot);
      const std::size_t live = layout.live_slot(slot);
      if (wi == WeightLayout::kNoWeight) {
        // Cross-group slot: no weight exists; must be absent everywhere.
        if (live != WeightLayout::kNoSlot &&
            (in_bm(oc, live) || in_bm(oc_count + oc, live))) {
          flag("cross-group slot " + std::to_string(slot) +
               " of output channel " + std::to_string(oc) +
               " is present in the group bitmap");
        }
        continue;
      }
      const float wv = weights[wi];
      if (!(wv > 0.0f) && !(wv < 0.0f)) {
        continue;  // active in neither sign phase
      }
      const bool positive = wv > 0.0f;
      const std::size_t group = (positive ? 0 : 1) * oc_count + oc;
      if (live == WeightLayout::kNoSlot) {
        ++gated[group];  // dead tap: padding at every position
        continue;
      }
      const std::uint32_t level = bank.quantize(std::fabs(wv));
      if (in_bm(group, live) != (level != 0)) {
        flag("slot " + std::to_string(slot) + " of output channel " +
             std::to_string(oc) +
             (level != 0 ? " is live but missing from"
                         : " is gated but present in") +
             " the group bitmap");
        continue;
      }
      if (level == 0) {
        ++gated[group];
        continue;
      }
      const std::uint32_t ei = cursor[group]++;
      // ei < total guards the reads below when the offsets are corrupt.
      if (ei >= table.taps_of(group)[taps] || ei >= table.total() ||
          table.slot_of[ei] != live) {
        flag("entry order for output channel " + std::to_string(oc) +
             " slot " + std::to_string(slot) +
             " disagrees with the oc-major, tap-major fill order");
        continue;
      }
      const std::size_t tap = live / layout.in_c;
      const std::uint32_t* const to = table.taps_of(group);
      if (ei < to[tap] || ei >= to[tap + 1]) {
        flag("entry " + std::to_string(ei) + " at live tap " +
             std::to_string(tap) + " lies outside its group's tap offsets [" +
             std::to_string(to[tap]) + ", " + std::to_string(to[tap + 1]) +
             ")");
      }
      if (ei % stride != 0 || sampled >= max_entries) {
        continue;
      }
      ++sampled;
      // An entry holds the window slots of its own sign phase only.
      for (std::size_t k = 0; k < sched.positions; ++k) {
        bank.fill(level, static_cast<std::uint32_t>(wi),
                  sched.offset(positive, k), sched.seg, fresh);
        const std::uint64_t* served =
            table.words.data() + (k * table.total() + ei) * seg_words;
        if (std::memcmp(served, fresh.data(),
                        seg_words * sizeof(std::uint64_t)) != 0) {
          flag("stream words of weight " + std::to_string(wi) +
               " window slot " + std::to_string(k) + " differ from its " +
               (positive ? "positive" : "negative") +
               "-phase regeneration — the table is not a pure function of "
               "(bank, schedule, weights)");
          break;
        }
      }
    }
  }
  for (std::size_t gi = 0; gi < groups; ++gi) {
    const std::uint32_t* const to = table.taps_of(gi);
    if (cursor[gi] != to[taps]) {
      flag("group " + std::to_string(gi) + " holds " +
           std::to_string(to[taps] - to[0]) +
           " entries but the node's weights produce " +
           std::to_string(cursor[gi] - to[0]));
    }
    if (gated[gi] != table.gated[gi]) {
      flag("group " + std::to_string(gi) + " counts " +
           std::to_string(table.gated[gi]) +
           " gated weights but the node's weights have " +
           std::to_string(gated[gi]));
    }
  }
  if (mismatches > 4) {
    report.add("plan-invariant", Severity::kError, at(path),
               std::to_string(mismatches) +
                   " total mismatches against the node's weights (first 4 "
                   "shown)");
  }
  return report;
}

}  // namespace acoustic::sim
