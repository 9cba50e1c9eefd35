#include "sim/plan_check.hpp"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

namespace acoustic::sim {

namespace {

using core::Severity;

std::string at(std::string_view path) { return std::string(path); }

}  // namespace

core::Report check_schedule(const SegmentSchedule& sched,
                            std::size_t phase_length, std::size_t bank_length,
                            std::string_view path) {
  core::Report report;
  if (sched.positions == 0 || sched.seg == 0) {
    report.add("plan-invariant", Severity::kError, at(path),
               "degenerate segment schedule: positions=" +
                   std::to_string(sched.positions) +
                   " seg=" + std::to_string(sched.seg));
    return report;
  }
  if (sched.phase != phase_length) {
    report.add("plan-invariant", Severity::kError, at(path),
               "schedule phase " + std::to_string(sched.phase) +
                   " does not match the configured phase length " +
                   std::to_string(phase_length));
  }
  if (sched.seg != sched.phase / sched.positions) {
    report.add("plan-invariant", Severity::kError, at(path),
               "segment length " + std::to_string(sched.seg) +
                   " is not phase/positions = " +
                   std::to_string(sched.phase / sched.positions));
  }
  // Slot coverage: every (sign, k) must map to a distinct dense index in
  // [0, slots()), and its bank window must stay inside the bank.
  std::vector<char> seen(sched.slots(), 0);
  for (int sign = 0; sign < 2; ++sign) {
    const bool positive = sign == 0;
    for (std::size_t k = 0; k < sched.positions; ++k) {
      const std::size_t idx = sched.slot_index(positive, k);
      if (idx >= sched.slots()) {
        report.add("plan-invariant", Severity::kError, at(path),
                   "slot index " + std::to_string(idx) + " for (sign=" +
                       (positive ? std::string("+") : std::string("-")) +
                       ", k=" + std::to_string(k) + ") exceeds " +
                       std::to_string(sched.slots()) + " slots");
        continue;
      }
      if (seen[idx] != 0) {
        report.add("plan-invariant", Severity::kError, at(path),
                   "slot index " + std::to_string(idx) +
                       " is covered more than once");
      }
      seen[idx] = 1;
      const std::size_t offset = sched.offset(positive, k);
      if (offset + sched.seg > bank_length) {
        report.add("plan-invariant", Severity::kError, at(path),
                   "slot (sign=" +
                       (positive ? std::string("+") : std::string("-")) +
                       ", k=" + std::to_string(k) + ") window [" +
                       std::to_string(offset) + ", " +
                       std::to_string(offset + sched.seg) +
                       ") exceeds the bank length " +
                       std::to_string(bank_length));
      }
      // Within one sign phase, slot windows must not overlap (phase- is
      // the same layout shifted by a full phase, so checking the k-extent
      // covers both signs).
      if (positive && offset + sched.seg > phase_length &&
          sched.positions > 1) {
        report.add("plan-invariant", Severity::kError, at(path),
                   "positive-phase slot k=" + std::to_string(k) +
                       " spills past the phase boundary");
      }
    }
  }
  for (std::size_t idx = 0; idx < seen.size(); ++idx) {
    if (seen[idx] == 0) {
      report.add("plan-invariant", Severity::kError, at(path),
                 "slot index " + std::to_string(idx) + " is never covered");
    }
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
  const std::size_t seg_words = sched.seg_words();
  if (weights.size() != table.weights.size() ||
      table.group_count.size() != groups || table.gated.size() != groups ||
      table.group_off.size() != groups + 1 ||
      table.group_off[groups] != table.total ||
      table.slot_of.size() != table.total ||
      table.bm_words != (layout.rf + 63) / 64 ||
      table.group_bm.size() != groups * table.bm_words ||
      table.words.size() !=
          (table.planned ? sched.slots() * table.total * seg_words : 0) ||
      table.level_of.size() != (table.planned ? 0 : table.total)) {
    report.add("plan-invariant", Severity::kError, at(path),
               "table extents are inconsistent with the layer geometry (" +
                   std::to_string(groups) + " groups, rf " +
                   std::to_string(layout.rf) + ", " +
                   std::to_string(weights.size()) + " weights)");
    return report;
  }
  std::vector<std::uint32_t> cursor(table.group_off.begin(),
                                    table.group_off.end() - 1);
  std::vector<std::uint32_t> gated(groups, 0);
  std::size_t mismatches = 0;
  const auto flag = [&](const std::string& msg) {
    if (++mismatches <= 4) {  // cap per-layer noise; the count is summarized
      report.add("plan-invariant", Severity::kError, at(path), msg);
    }
  };
  const auto in_bm = [&](std::size_t group, std::size_t slot) {
    return ((table.group_bm[group * table.bm_words + slot / 64] >>
             (slot % 64)) &
            1u) != 0;
  };
  // Sample entries evenly so both ends of the weight lane space are
  // exercised against regeneration.
  const std::size_t stride =
      max_entries != 0 && table.total > max_entries ? table.total / max_entries
                                                    : 1;
  std::vector<std::uint64_t> fresh(seg_words);
  std::size_t sampled = 0;
  for (std::size_t oc = 0; oc < oc_count; ++oc) {
    for (std::size_t slot = 0; slot < layout.rf; ++slot) {
      const std::size_t wi = layout.weight(oc, slot);
      if (wi == WeightLayout::kNoWeight) {
        // Cross-group slot: no weight exists; must be absent everywhere.
        if (in_bm(oc, slot) || in_bm(oc_count + oc, slot)) {
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
      const std::size_t group = (wv > 0.0f ? 0 : 1) * oc_count + oc;
      const std::uint32_t level = bank.quantize(std::fabs(wv));
      if (in_bm(group, slot) != (level != 0)) {
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
      if (ei >= table.group_off[group + 1] || table.slot_of[ei] != slot) {
        flag("entry order for output channel " + std::to_string(oc) +
             " slot " + std::to_string(slot) +
             " disagrees with the oc-major fill order");
        continue;
      }
      if (!table.planned) {
        if (table.level_of[ei] != level) {
          flag("entry " + std::to_string(ei) + " level " +
               std::to_string(table.level_of[ei]) +
               " differs from the quantized weight level " +
               std::to_string(level));
        }
        continue;
      }
      if (ei % stride != 0 || sampled >= max_entries) {
        continue;
      }
      ++sampled;
      for (std::size_t si = 0; si < sched.slots(); ++si) {
        const bool positive = si < sched.positions;
        const std::size_t k = positive ? si : si - sched.positions;
        bank.fill(level, static_cast<std::uint32_t>(wi),
                  sched.offset(positive, k), sched.seg, fresh);
        const std::uint64_t* served =
            table.words.data() + (si * table.total + ei) * seg_words;
        if (std::memcmp(served, fresh.data(),
                        seg_words * sizeof(std::uint64_t)) != 0) {
          flag("stream words of weight " + std::to_string(wi) + " slot " +
               std::to_string(si) +
               " differ from regeneration — the table is not a pure "
               "function of (bank, schedule, weights)");
          break;
        }
      }
    }
  }
  for (std::size_t gi = 0; gi < groups; ++gi) {
    if (cursor[gi] != table.group_off[gi + 1]) {
      flag("group " + std::to_string(gi) + " holds " +
           std::to_string(table.group_off[gi + 1] - table.group_off[gi]) +
           " entries but the live weights produce " +
           std::to_string(cursor[gi] - table.group_off[gi]));
    }
    if (gated[gi] != table.gated[gi]) {
      flag("group " + std::to_string(gi) + " counts " +
           std::to_string(table.gated[gi]) +
           " gated weights but the live weights have " +
           std::to_string(gated[gi]));
    }
  }
  if (mismatches > 4) {
    report.add("plan-invariant", Severity::kError, at(path),
               std::to_string(mismatches) +
                   " total mismatches against the live weights (first 4 "
                   "shown)");
  }
  return report;
}

}  // namespace acoustic::sim
