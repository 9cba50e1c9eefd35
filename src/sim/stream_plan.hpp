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
//     per input activation, every slot of the schedule).
//   ProductTable — a weighted node's products classified once per weight
//     set and shared by every executor clone through the WeightPlanStore:
//     live weights grouped by (sign phase, output channel) with their
//     stream words transposed per slot.
//
// Both are pure functions of (bank, schedule, levels), so serving a table
// word is bit-identical to regenerating it — the golden equivalence suite
// (tests/sim/sc_golden_test.cpp) pins that down.
//
// Memory is bounded by one footprint rule (plan_table_bytes): a table over
// ScConfig::plan_budget_bytes is left unbuilt and the row body regenerates
// its words from the bank on the fly (counted as plan misses), into the
// same slot layout. Both paths produce identical bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "sim/sc_config.hpp"
#include "sim/stream_bank.hpp"

namespace acoustic::runtime {
class ThreadPool;
}

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

/// The footprint rule every packed table obeys: @p lanes lanes of
/// sched.slots() slots of sched.seg_words() words. The executor leaves a
/// table unbuilt when this exceeds ScConfig::plan_budget_bytes (weight
/// tables count every weight as a lane, live or not, so the decision is a
/// function of the geometry alone), and `acoustic check` notes the same
/// nodes with the same figure.
[[nodiscard]] inline std::size_t plan_table_bytes(
    const SegmentSchedule& sched, std::size_t lanes) noexcept {
  return lanes * sched.words_per_lane() * sizeof(std::uint64_t);
}

/// True when a table of @p bytes exceeds @p budget_bytes (0 = unlimited).
[[nodiscard]] inline bool over_plan_budget(std::size_t bytes,
                                           std::size_t budget_bytes) noexcept {
  return budget_bytes != 0 && bytes > budget_bytes;
}

/// Counters a plan reports into ScNetwork's per-run stats. All additive.
struct StreamPlanCounters {
  std::uint64_t bits_generated = 0;  ///< comparator bits the SNG kernel ran
  std::uint64_t bits_reused = 0;     ///< segment bits served from a table
  std::uint64_t plan_hits = 0;       ///< segment fetches served from a table
  std::uint64_t plan_misses = 0;     ///< fetches regenerated on the fly
};

/// Per-image activation plan: precomputed stream segments for a dense
/// lane id space (the input activation index). Thread-safety: build() must
/// complete before concurrent segment()/lane_words() calls; after that the
/// plan is read-only and safe to share across row workers.
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
  /// level is operand-gated — dead — and never read). No-op when the
  /// plan is disabled. @p pool, when non-null, shards the build across
  /// lanes (disjoint writes, deterministic content).
  void build(std::span<const std::uint32_t> levels,
             StreamPlanCounters& counters,
             runtime::ThreadPool* pool = nullptr);

  /// True when the table fits the budget and build() will populate it.
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// True when @p lane was built with a nonzero level.
  [[nodiscard]] bool planned(std::size_t lane) const noexcept {
    return enabled_ && built_[lane] != 0;
  }

  /// Planned-entry accessor. Precondition: planned(lane).
  [[nodiscard]] const std::uint64_t* segment(std::size_t lane, bool positive,
                                             std::size_t k) const noexcept {
    return lane_words(lane) + sched_.slot_index(positive, k) * sched_.seg_words();
  }

  /// First packed word of @p lane's slot table — the hot-loop entry point:
  /// callers hoist this base pointer and index slots as
  /// `lane_words(lane)[slot_index * seg_words() + w]`.
  /// Precondition: planned(lane).
  [[nodiscard]] const std::uint64_t* lane_words(std::size_t lane) const noexcept {
    return words_.data() + lane * sched_.words_per_lane();
  }

 private:
  const StreamBank* bank_;
  SegmentSchedule sched_;
  std::size_t lanes_;
  bool enabled_;
  std::vector<std::uint64_t> words_;
  std::vector<char> built_;
  /// Serial build()'s lane buffer, retained so a rebuilt plan allocates
  /// nothing after its first build.
  std::vector<std::uint64_t> build_buf_;
};

/// Receptive-field -> weight mapping of one weighted node: the grouped-conv
/// arithmetic. A dense node is the 1x1, groups == 1 case over its input
/// viewed as 1x1xN (rf == in_c == N, weight o*N + i).
struct WeightLayout {
  static constexpr std::size_t kNoWeight = static_cast<std::size_t>(-1);

  std::size_t oc_count = 0;      ///< output channels (dense: neurons)
  std::size_t rf = 0;            ///< slots per receptive field: k*k*in_c
  std::size_t in_c = 0;          ///< input channels
  std::size_t cpg = 0;           ///< input channels per group
  std::size_t oc_per_group = 0;  ///< output channels per group
  std::size_t w_per_oc = 0;      ///< weights per output channel (k*k*cpg)

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

  bool operator==(const WeightLayout&) const = default;
};

/// A weighted node's products, classified once per weight set. Sign
/// scheduling is position-invariant: whether weight (oc, slot) joins the
/// + or the - phase depends only on its sign, and a zero-quantized weight
/// is operand-gated at every position. So the live weights are grouped by
/// (sign phase, output channel) — group = phase * oc_count + oc, entries
/// in oc-major slot order — with each entry's receptive-field slot, its
/// stream words transposed per slot for sequential loads, and a slot
/// bitmap per group so live-product counts come from popcounts instead of
/// per-entry branches. A pure function of its key (schedule, layout,
/// float weights) and the weight bank.
struct ProductTable {
  SegmentSchedule sched;
  WeightLayout layout;
  /// The float weights (BN-folded for a conv with an absorbed BatchNorm)
  /// the table was built from — the cache key, compared bitwise.
  std::vector<float> weights;
  std::vector<std::uint32_t> group_count;  ///< entries per group
  std::vector<std::uint32_t> gated;        ///< zero-level weights per group
  std::vector<std::uint32_t> group_off;    ///< exclusive prefix sums
  std::vector<std::uint32_t> slot_of;      ///< entry -> receptive-field slot
  std::vector<std::uint64_t> group_bm;     ///< [group][word] slot bitmap
  /// Stream words, [slot_index][entry][seg_words]. Empty when the table is
  /// over its byte budget (planned == false): the row body then
  /// regenerates each entry's words from the bank with level_of.
  std::vector<std::uint64_t> words;
  std::vector<std::uint32_t> level_of;  ///< entry -> level (unplanned only)
  std::size_t total = 0;                ///< entries across all groups
  std::size_t bm_words = 0;             ///< bitmap words per group
  bool planned = false;

  /// True when the table was built for exactly this key.
  [[nodiscard]] bool keyed_on(const SegmentSchedule& s, const WeightLayout& l,
                              std::span<const float> w) const noexcept;
};

/// Builds the ProductTable for (sched, layout, weights) from @p bank; the
/// stream words are generated only when plan_table_bytes(sched,
/// weights.size()) fits @p budget_bytes. @p pool, when non-null, shards the
/// word generation across entries (disjoint writes, deterministic content).
[[nodiscard]] std::shared_ptr<const ProductTable> build_product_table(
    const StreamBank& bank, const SegmentSchedule& sched,
    const WeightLayout& layout, std::span<const float> weights,
    std::size_t budget_bytes, runtime::ThreadPool* pool);

/// Thread-safe store of per-stage ProductTables, shared by every clone of
/// an ScNetwork. Weight streams depend only on the weights — identical for
/// every image — so the store builds each stage's table once no matter how
/// many evaluator workers run: clones after the first get the table for
/// free, and the build's kernel bits stay out of per-run stats. The store
/// owns the weight SNG bank the tables draw from.
///
/// The cache key is (schedule, layout, float weights): retraining that
/// changes any weight bit, or an input size that changes the schedule (a
/// fused pool that stops tiling), triggers a rebuild; the superseded table
/// stays alive for readers still holding it (shared_ptr swap).
class WeightPlanStore {
 public:
  /// @param cfg    bank parameters (width, weight seed, phase, wiring).
  /// @param stages number of lowered nodes (one table slot each).
  WeightPlanStore(const ScConfig& cfg, std::size_t stages);

  /// The table for @p stage under the given key, building it if absent or
  /// stale. @p pool, when non-null, shards the build (held only while this
  /// call runs).
  [[nodiscard]] std::shared_ptr<const ProductTable> get(
      std::size_t stage, const SegmentSchedule& sched,
      const WeightLayout& layout, std::span<const float> weights,
      std::size_t budget_bytes, runtime::ThreadPool* pool);

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
