// Plan-invariant verification for the packed stream plans.
//
// The planned fast path is only trustworthy because its tables are pure
// functions of (bank, schedule, levels); these validators re-derive the
// invariants independently and report violations through the shared
// diagnostics engine (rule "plan-invariant"). The slot timetable itself
// needs no validator: sim::window_schedule is its one definition, and
// WindowSchedule.TimetableCoversBothPhasesInsideTheBank pins its
// invariants.
//
//   check_live_taps — a node's live-tap rectangle is exactly the bounding
//     box of the taps its output positions read in bounds, re-derived by
//     brute force over every position.
//   check_product_table — a weight ProductTable is consistent with the
//     node it claims to be built for: the (sign phase, output channel)
//     classification of the node's folded weights with entries only at
//     live taps in oc-major, tap-major order,
//     gated counts that include every dead-tap weight, monotone tap
//     offsets that agree with the entries' slots, slot bitmaps, word
//     extents (positions x entries x seg_words), and sampled entries'
//     own-sign stream words bit-identical to regenerating them from the
//     bank.
//
// ScNetwork::validate_plans() composes these over every executed stage.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "core/diagnostics.hpp"
#include "sim/op_graph.hpp"
#include "sim/stream_bank.hpp"
#include "sim/stream_plan.hpp"

namespace acoustic::sim {

/// Reports when @p g's live-tap rectangle (g.layout.taps) differs from
/// the bounding box of the taps its conv output positions read inside the
/// input, scanned position by position. Findings anchor at @p path.
[[nodiscard]] core::Report check_live_taps(const ConvGeometry& g,
                                           std::string_view path);

/// Re-derives @p table from its node's folded @p weights (sim::
/// node_weights, as the datapath quantizes them) and @p bank (the weight
/// bank it draws from) and reports every field that disagrees. Stream
/// words are regenerated for up to @p max_entries sampled entries (every
/// window slot of the entry's own sign phase). Findings anchor at @p path.
[[nodiscard]] core::Report check_product_table(
    const ProductTable& table, const StreamBank& bank,
    std::span<const float> weights, std::string_view path,
    std::size_t max_entries = 8);

}  // namespace acoustic::sim
