// Plan-invariant verification for the packed stream plans.
//
// The planned fast path is only trustworthy because its tables are pure
// functions of (bank, schedule, levels); these validators re-derive the
// invariants independently and report violations through the shared
// diagnostics engine (rule "plan-invariant"):
//
//   check_schedule — the segment timetable covers every (sign, slot) pair
//     exactly once, slot windows are disjoint within a phase, and every
//     packed word offset stays inside the bank window.
//   check_product_table — a weight ProductTable is consistent with the
//     weights it claims to be built from: group extents and prefix sums,
//     the (sign phase, output channel) classification and oc-major entry
//     order, slot bitmaps, gated counts, and sampled entries' stream words
//     bit-identical to regenerating them from the bank.
//
// ScNetwork::validate_plans() composes these over every executed stage.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "core/diagnostics.hpp"
#include "sim/stream_bank.hpp"
#include "sim/stream_plan.hpp"

namespace acoustic::sim {

/// Validates @p sched against a bank window of @p bank_length bits with
/// sign phases of @p phase_length bits. Findings anchor at @p path.
[[nodiscard]] core::Report check_schedule(const SegmentSchedule& sched,
                                          std::size_t phase_length,
                                          std::size_t bank_length,
                                          std::string_view path);

/// Re-derives @p table from @p weights (the live, BN-folded float weights
/// of its node) and @p bank (the weight bank it draws from) and reports
/// every field that disagrees. Stream words are regenerated for up to
/// @p max_entries sampled entries (every slot); an over-budget table's
/// per-entry levels are checked instead. Findings anchor at @p path.
[[nodiscard]] core::Report check_product_table(const ProductTable& table,
                                               const StreamBank& bank,
                                               std::span<const float> weights,
                                               std::string_view path,
                                               std::size_t max_entries = 8);

}  // namespace acoustic::sim
