// Packed stream tables for the SC functional simulator's planned path.
//
// Profiling the bit-level executor shows nearly all forward wall time in
// stream generation: a naive conv regenerates the stream segment of every
// weight for every output position, although the segment a weight draws
// at a given (sign phase, pooling-window slot) is invariant across all
// H x W output positions; activation segments are likewise regenerated for
// every overlapping receptive field that touches a pixel.
//
// Two tables materialize those segments once with the word-parallel
// StreamBank kernel and serve them as packed 64-bit words, so the planned
// row body degenerates to AND/OR over words it never regenerates:
//
//   LayerStreamPlan — a per-image activation plan, lane-major (one lane
//     per input activation, every slot of both sign phases).
//   ProductTable — a weighted node's products classified once per
//     geometry and shared by every executor clone through the
//     WeightPlanStore.
//     It holds only the products some output position can use: entries at
//     the kernel taps inside the node's live-tap rectangle (a tap outside
//     it reads padding at every position), grouped by (sign phase, output
//     channel) in tap-major order with an offset per (group, tap), each
//     storing the slots of its own sign phase only, transposed per slot.
//
// Both are pure functions of (bank, schedule, levels), so serving a table
// word is bit-identical to regenerating it — the golden equivalence suite
// (tests/sim/sc_golden_test.cpp) pins that down.
//
// Memory is bounded by one footprint rule per table kind against
// ScConfig::plan_budget_bytes: a node whose weight table (weight_table_bytes)
// is over it builds none and runs the scalar oracle, and an activation plan
// (plan_table_bytes) over it is left unbuilt while the row body regenerates
// its words in place (plan misses). Both routes produce identical bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "sim/sc_config.hpp"
#include "sim/stream_bank.hpp"

namespace acoustic::sim {

/// The segment timetable one weighted layer runs on: two sign phases
/// (split-unipolar + / -) of @ref phase bits, each divided into
/// @ref positions pooling-window slots of @ref seg bits (computation
/// skipping, paper II-C). positions == 1 degenerates to one full-phase
/// segment per sign.
struct SegmentSchedule {
  std::size_t phase = 0;      ///< bits per sign phase
  std::size_t positions = 1;  ///< pooling-window slots per phase
  std::size_t seg = 0;        ///< bits per slot (phase / positions, floored)

  [[nodiscard]] std::size_t seg_words() const noexcept {
    return (seg + 63) / 64;
  }
  /// Bits counted per phase per pooled output: the slice is floored, so
  /// phase - counted() bits per phase are never counted (as in hardware).
  [[nodiscard]] std::size_t counted() const noexcept { return seg * positions; }
  /// Slots per lane across both sign phases.
  [[nodiscard]] std::size_t slots() const noexcept { return 2 * positions; }
  /// Packed words a planned lane occupies.
  [[nodiscard]] std::size_t words_per_lane() const noexcept {
    return slots() * seg_words();
  }
  /// Stream-bank bit offset of slot @p k in the given sign phase — the
  /// same mapping the scalar oracle uses: the negative phase replays the
  /// slot layout one full phase later.
  [[nodiscard]] std::size_t offset(bool positive, std::size_t k) const noexcept {
    return (positive ? 0 : phase) + k * seg;
  }
  /// Dense index of (positive, k) into a lane's slot table.
  [[nodiscard]] std::size_t slot_index(bool positive,
                                       std::size_t k) const noexcept {
    return (positive ? 0 : positions) + k;
  }

  bool operator==(const SegmentSchedule&) const = default;
};

/// The footprint rule of an activation plan: @p lanes lanes of
/// sched.slots() slots (both sign phases) of sched.seg_words() words. The
/// executor leaves the plan unbuilt when this exceeds
/// ScConfig::plan_budget_bytes, and `acoustic check` notes the same nodes
/// with the same figure. Weight tables follow weight_table_bytes.
[[nodiscard]] inline std::size_t plan_table_bytes(
    const SegmentSchedule& sched, std::size_t lanes) noexcept {
  return lanes * sched.words_per_lane() * sizeof(std::uint64_t);
}

/// True when a table of @p bytes exceeds @p budget_bytes (0 = unlimited).
[[nodiscard]] inline bool over_plan_budget(std::size_t bytes,
                                           std::size_t budget_bytes) noexcept {
  return budget_bytes != 0 && bytes > budget_bytes;
}

/// Per-image activation plan: precomputed stream segments for a dense
/// lane id space (the input activation index), on one segment schedule.
/// Thread-safety: build() runs on the calling thread and must complete
/// before concurrent lane_words() calls; after that the plan is read-only
/// and safe to share across row workers.
class LayerStreamPlan {
 public:
  /// @param bank   the SNG bank the lanes draw from; must outlive the plan.
  /// @param sched  the layer's segment timetable.
  /// @param lanes  size of the dense lane id space.
  /// @param budget_bytes table budget; a plan over it (plan_table_bytes)
  ///        disables itself and its users regenerate. 0 = unlimited.
  LayerStreamPlan(const StreamBank& bank, const SegmentSchedule& sched,
                  std::size_t lanes, std::size_t budget_bytes);

  /// Generates all slots of every lane with levels[lane] != 0 (a zero
  /// level is operand-gated — dead — and never read, so its words are
  /// left as they are). Returns the comparator bits the SNG kernel ran:
  /// the full 2*phase window per generated lane, 0 when the plan is
  /// disabled.
  std::uint64_t build(std::span<const std::uint32_t> levels);

  /// True when the table fits the budget and build() will populate it.
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// The schedule and lane count the plan was made for.
  [[nodiscard]] const SegmentSchedule& sched() const noexcept { return sched_; }
  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }

  /// First packed word of @p lane's slot table — the hot-loop entry point:
  /// callers hoist this base pointer and index slots as
  /// `lane_words(lane)[slot_index * seg_words() + w]`.
  /// Precondition: enabled() and the last build() gave @p lane a nonzero
  /// level.
  [[nodiscard]] const std::uint64_t* lane_words(std::size_t lane) const noexcept {
    return words_.data() + lane * sched_.words_per_lane();
  }

 private:
  const StreamBank* bank_;
  SegmentSchedule sched_;
  std::size_t lanes_;
  bool enabled_;
  std::vector<std::uint64_t> words_;
  /// build()'s lane buffer, retained so a rebuilt plan allocates nothing
  /// after its first build.
  std::vector<std::uint64_t> build_buf_;
};

/// A rectangle of kernel taps [y0, y0 + h) x [x0, x0 + w). A weighted
/// node's live-tap rectangle (WeightLayout::taps, from sim::live_taps) is
/// the smallest one holding every tap some output position reads: a tap
/// outside it reads zero padding at every position, so each of its
/// products is operand-gated everywhere. Empty (h or w zero) when every
/// tap only ever reads padding.
struct TapRect {
  std::size_t y0 = 0;
  std::size_t x0 = 0;
  std::size_t h = 1;
  std::size_t w = 1;

  [[nodiscard]] std::size_t count() const noexcept { return h * w; }

  /// True when tap (@p ky, @p kx) lies inside.
  [[nodiscard]] bool contains(std::size_t ky, std::size_t kx) const noexcept {
    // Unsigned wrap also catches a tap before the origin.
    return ky - y0 < h && kx - x0 < w;
  }

  bool operator==(const TapRect&) const = default;
};

/// Receptive-field -> weight mapping of one weighted node: the grouped-conv
/// arithmetic. A dense node is the 1x1, groups == 1 case over its input
/// viewed as 1x1xN (rf == in_c == N, weight o*N + i).
///
/// Two slot spaces index a receptive field. The full field (rf slots,
/// (ky, kx, ic) order) is what the scalar oracle gathers and what weight()
/// maps. The live field (live_rf() slots, the same order restricted to the
/// live-tap rectangle) is what the planned row body gathers and what
/// ProductTable entries index.
struct WeightLayout {
  static constexpr std::size_t kNoWeight = static_cast<std::size_t>(-1);
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  std::size_t oc_count = 0;      ///< output channels (dense: neurons)
  std::size_t rf = 0;            ///< slots per receptive field: k*k*in_c
  std::size_t in_c = 0;          ///< input channels
  std::size_t cpg = 0;           ///< input channels per group
  std::size_t oc_per_group = 0;  ///< output channels per group
  std::size_t w_per_oc = 0;      ///< weights per output channel (k*k*cpg)
  std::size_t kernel = 1;        ///< kernel side
  TapRect taps{};                ///< live-tap rectangle

  /// Weight index of (output channel, receptive-field slot), or kNoWeight
  /// when the slot's input channel lies outside oc's group (grouped conv:
  /// that product does not exist — neither computed nor operand-gated).
  /// Degenerates to oc * rf + slot exactly when groups == 1.
  [[nodiscard]] std::size_t weight(std::size_t oc,
                                   std::size_t slot) const noexcept {
    const std::size_t ic = slot % in_c;
    const std::size_t rel = ic - (oc / oc_per_group) * cpg;
    if (rel >= cpg) {  // unsigned wrap also catches ic < group base
      return kNoWeight;
    }
    return oc * w_per_oc + (slot / in_c) * cpg + rel;
  }

  /// Slots of the live field.
  [[nodiscard]] std::size_t live_rf() const noexcept {
    return taps.count() * in_c;
  }

  /// Weights at live taps: the most entries a ProductTable can hold.
  [[nodiscard]] std::size_t live_weights() const noexcept {
    return oc_count * taps.count() * cpg;
  }

  /// True when kernel tap @p tap (ky * kernel + kx) lies in the rectangle.
  [[nodiscard]] bool tap_live(std::size_t tap) const noexcept {
    return taps.contains(tap / kernel, tap % kernel);
  }

  /// Live-field slot of full-field slot @p slot, or kNoSlot at a dead tap.
  [[nodiscard]] std::size_t live_slot(std::size_t slot) const noexcept {
    const std::size_t tap = slot / in_c;
    if (!tap_live(tap)) {
      return kNoSlot;
    }
    return ((tap / kernel - taps.y0) * taps.w + tap % kernel - taps.x0) *
               in_c +
           slot % in_c;
  }

  bool operator==(const WeightLayout&) const = default;
};

/// The footprint rule of a weight ProductTable: one lane per weight at a
/// live tap (WeightLayout::live_weights), each holding the
/// sched.positions slots of its own sign phase. A function of the geometry
/// alone, so the executor's budget decision, `acoustic check`'s
/// plan-budget note and the tests all compute it the same way. It counts
/// the stream words only: a table also keeps a 4-byte slot index per
/// entry, tap offsets and bitmaps. On ResNet-18 at side 16, stream 128,
/// the words are 65% of what the tables hold (20.3 of 31.2 MB).
[[nodiscard]] inline std::size_t weight_table_bytes(
    const SegmentSchedule& sched, const WeightLayout& layout) noexcept {
  return layout.live_weights() * sched.positions * sched.seg_words() *
         sizeof(std::uint64_t);
}

/// A weighted node's products, classified once per weight set. Sign
/// scheduling is position-invariant: whether weight (oc, slot) joins the
/// + or the - phase depends only on its sign, and a zero-quantized weight
/// is operand-gated at every position; so is any weight at a tap outside
/// the live rectangle. So the usable weights are grouped by (sign phase,
/// output channel) — group = phase * oc_count + oc, entries group-major
/// and, within a group, tap-major in live-field slot order — with each
/// entry's live-field slot, its stream words transposed per slot for
/// sequential loads, and a slot bitmap per group so live-product counts
/// come from popcounts instead of per-entry branches. Every other signed
/// weight (zero level, dead tap) is counted in its group's gated total,
/// so operand-gating stats stay exact. A pure function of its geometry
/// (schedule, layout), the node's folded weights and the weight bank.
struct ProductTable {
  SegmentSchedule sched;
  WeightLayout layout;
  /// Signed weights per group without an entry: zero level or dead tap.
  std::vector<std::uint32_t> gated;
  /// Entry offsets of the (group, live tap) cells, group-major with taps
  /// in rectangle raster order — exclusive prefix sums of the cell sizes.
  /// With T = layout.taps.count(), cell (g, t) holds entries
  /// [tap_off[g*T + t], tap_off[g*T + t + 1]), group g spans
  /// [tap_off[g*T], tap_off[(g+1)*T]), and the last offset is total(). A
  /// position that reads taps [lo, hi) walks [taps_of(g)[lo],
  /// taps_of(g)[hi]) — the whole group when it reads the whole rectangle.
  std::vector<std::uint32_t> tap_off;
  std::vector<std::uint32_t> slot_of;   ///< entry -> live-field slot
  std::vector<std::uint64_t> group_bm;  ///< [group][word] live-slot bitmap
  /// Stream words of each entry's own sign phase, [k][entry][seg_words]:
  /// window slot k of a positive-group entry holds its segment at
  /// sched.offset(true, k), of a negative-group entry at
  /// sched.offset(false, k).
  std::vector<std::uint64_t> words;

  /// Entries across all groups.
  [[nodiscard]] std::size_t total() const noexcept { return tap_off.back(); }
  /// Bitmap words per group.
  [[nodiscard]] std::size_t bm_words() const noexcept {
    return (layout.live_rf() + 63) / 64;
  }

  /// Group @p group's tap offsets: layout.taps.count() + 1 of them, the
  /// last being the group's end.
  [[nodiscard]] const std::uint32_t* taps_of(std::size_t group) const noexcept {
    return tap_off.data() + group * layout.taps.count();
  }

  /// True when the table was built on this geometry.
  [[nodiscard]] bool keyed_on(const SegmentSchedule& s,
                              const WeightLayout& l) const noexcept {
    return sched == s && layout == l;
  }
};

/// Builds the ProductTable of @p weights (a node's folded weights,
/// sim::node_weights) on (sched, layout) from @p bank on the calling
/// thread. The caller decides whether the table fits: the build always
/// generates every entry's words.
[[nodiscard]] std::shared_ptr<const ProductTable> build_product_table(
    const StreamBank& bank, const SegmentSchedule& sched,
    const WeightLayout& layout, std::span<const float> weights);

/// Thread-safe store of per-stage ProductTables, shared by every clone of
/// an ScNetwork. Weight streams depend only on the weights — identical for
/// every image — so the store builds each stage's table once no matter how
/// many evaluator workers run: clones after the first get the table for
/// free, and the build's kernel bits stay out of per-run stats. The store
/// owns the weight SNG bank the tables draw from.
///
/// The cache key is the geometry (schedule, layout): every executor that
/// shares a store runs one const snapshot, whose weights cannot change.
/// An input size that changes the schedule (a fused pool that stops
/// tiling) or the live taps triggers a rebuild; the superseded table stays
/// alive for readers still holding it (shared_ptr swap).
class WeightPlanStore {
 public:
  /// @param cfg    bank parameters (width, weight seed, phase, wiring).
  /// @param stages number of lowered nodes (one table slot each).
  WeightPlanStore(const ScConfig& cfg, std::size_t stages);

  /// The table for @p stage on (sched, layout), built on the calling
  /// thread from the node's folded @p weights when the stage holds none
  /// or one on another geometry.
  [[nodiscard]] std::shared_ptr<const ProductTable> get(
      std::size_t stage, const SegmentSchedule& sched,
      const WeightLayout& layout, std::span<const float> weights);

  /// The weight bank every table of this store draws from.
  [[nodiscard]] const StreamBank& bank() const noexcept { return bank_; }

 private:
  struct Entry {
    std::mutex mu;
    std::shared_ptr<const ProductTable> table;
  };

  StreamBank bank_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace acoustic::sim
