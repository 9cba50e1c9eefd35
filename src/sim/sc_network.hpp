// Bit-level functional simulation of a whole network on the ACOUSTIC
// datapath (the paper's "custom SC functional simulator", section IV-A).
//
// The network is lowered once into an op graph (sim/op_graph.hpp) and the
// executor walks the lowered nodes: weighted nodes (conv, dense, and the
// skip-path projection conv) run the stochastic datapath below, residual
// save/add nodes run counter-preload semantics in the binary domain,
// max-pool nodes dispatch on ScConfig::max_pool (exact binary max or the
// stochastic max FSM, a bit-serial circuit the simulator steps a word at a
// time), and a BatchNorm folded into a conv node
// multiplies into the quantized weight levels with its shift applied
// post-counter. Skip-connection topologies therefore execute through the
// ordinary walk — no executor special-casing per network.
//
// Execution model per weighted layer, mirroring the architecture:
//   1. The layer's binary input activations feed the activation SNG bank
//      (shared LFSR, per-lane scrambling), weights feed the weight bank.
//   2. Every output's receptive field is OR-accumulated in two phases
//      (split-unipolar: positive-weight products count up, negative-weight
//      products count down in the activation counter).
//   3. Counters convert back to binary; ReLU and any non-fused pooling run
//      in the binary domain; the result becomes the next layer's input —
//      streams are regenerated per layer, which removes inter-layer
//      correlation exactly as the paper describes (II-C).
//
// Conv and dense share one datapath, as in the architecture: a dense node
// executes as a 1x1 conv over its input viewed as 1x1xN, through the same
// two implementations — the scalar oracle and the planned row body.
//
// With PoolingMode::kSkipping an AvgPool2D that directly follows a conv is
// fused: each output in a p x p pooling window is computed over a
// stream/p^2 time slice and the window's counter accumulates across slices
// (stream concatenation). The simulator counts product-bit operations so
// the 4x-9x computation reduction is measurable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/diagnostics.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "nn/pool.hpp"
#include "obs/span.hpp"
#include "runtime/scratch_arena.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/op_graph.hpp"
#include "sim/sc_config.hpp"
#include "sim/stream_bank.hpp"
#include "sim/stream_plan.hpp"

namespace acoustic::sim {

/// Statistics an executor accumulates across forward() calls. ScNetwork
/// counts every field; the float and bipolar backends count samples and
/// layers_run only. Every field is a sum except scratch_bytes, a max, so
/// merging per-thread stats is order-insensitive.
struct RunStats {
  /// forward() calls (samples executed).
  std::uint64_t samples = 0;
  /// Weighted layers executed.
  std::uint64_t layers_run = 0;
  /// AND-gate product bits evaluated (the unit computation skipping saves).
  std::uint64_t product_bits = 0;
  /// Product candidates skipped by operand gating: a zero (or padding)
  /// activation or a zero-quantized weight in the phase the product was
  /// scheduled for (paper II-C's "skip computation on zero operands").
  std::uint64_t skipped_operands = 0;
  /// Comparator bits the SNG kernel actually produced for this run
  /// (scalar-path fills, per-image activation-plan builds, fallback
  /// fills). Shared weight-table builds are amortized across images and
  /// clones and deliberately excluded, keeping stats a pure function of
  /// the sample set.
  std::uint64_t stream_bits_generated = 0;
  /// Segment bits served from a packed stream plan instead of being
  /// regenerated — the fast path's reuse headroom.
  std::uint64_t stream_bits_reused = 0;
  /// Segment fetches served from a plan / generated on the fly because
  /// the plan exceeded its byte budget.
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  /// High-water mark of the per-forward scratch arena in bytes — the
  /// steady-state working set one executor needs beyond the plan tables.
  /// A pure function of (network, config, input shape): identical for
  /// every clone, so merge() takes the max, not the sum, and the figure
  /// stays invariant across thread counts and repeated runs.
  std::uint64_t scratch_bytes = 0;

  void merge(const RunStats& other) noexcept {
    samples += other.samples;
    layers_run += other.layers_run;
    product_bits += other.product_bits;
    skipped_operands += other.skipped_operands;
    stream_bits_generated += other.stream_bits_generated;
    stream_bits_reused += other.stream_bits_reused;
    plan_hits += other.plan_hits;
    plan_misses += other.plan_misses;
    scratch_bytes = std::max(scratch_bytes, other.scratch_bytes);
  }

  bool operator==(const RunStats&) const = default;
};

class ScNetwork {
 public:
  /// @param net trained network; must outlive this object. Weighted layers
  ///            are located with their surrounding ReLU / pooling layers
  ///            and executed stochastically; weights are read live, so
  ///            retraining between forward() calls is allowed.
  /// @param shared weight-table store to share with sibling clones (see
  ///            shared_plans()); nullptr creates a fresh one.
  ScNetwork(nn::Network& net, ScConfig cfg,
            std::shared_ptr<WeightPlanStore> shared = nullptr);

  /// The weight-table store this executor draws from. Pass it to the
  /// ScNetwork of a clone so each stage's ProductTable — the weights'
  /// sign/channel classification plus their transposed stream words — is
  /// built once across all workers instead of once per clone (the store is
  /// thread-safe; table content is a pure function of config, schedule and
  /// weights, so sharing cannot change bits).
  [[nodiscard]] const std::shared_ptr<WeightPlanStore>& shared_plans()
      const noexcept {
    return wgt_plans_;
  }

  /// Bit-level inference. Input values must lie in [0, 1].
  [[nodiscard]] nn::Tensor forward(const nn::Tensor& input) {
    nn::Tensor out;
    forward_into(input, out);
    return out;
  }

  /// Allocation-free inference: writes the logits into @p out, reusing its
  /// capacity. All per-forward scratch comes from an internal arena sized
  /// by the first call (the warm-up); once the arena and the ping-pong
  /// activation buffers have grown to the network's high-water mark, a
  /// steady-state planned forward performs no heap allocation at all
  /// (asserted by tests/sim/alloc_test.cpp). Bit-identical to forward().
  void forward_into(const nn::Tensor& input, nn::Tensor& out);

  /// Cumulative statistics since construction (or reset_stats() /
  /// take_stats()). forward() accumulates into per-run locals and folds
  /// them in once per call, so stats_ is never touched on the hot path.
  [[nodiscard]] const RunStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = RunStats{}; }

  /// Returns the accumulated statistics and resets them — the per-run
  /// read-out the batch evaluator uses to merge clone stats race-free.
  [[nodiscard]] RunStats take_stats() noexcept {
    return std::exchange(stats_, RunStats{});
  }

  [[nodiscard]] const ScConfig& config() const noexcept { return cfg_; }

  /// Plan-invariant verification (rule "plan-invariant"): re-derives the
  /// invariants of every table the stages last executed — segment-schedule
  /// slot coverage and word-offset bounds, the weight table's schedule and
  /// layout (live-tap rectangle included) matching the executed ones, that
  /// rectangle re-derived by brute force over every output position, and
  /// ProductTable consistency with the live node: its raw-weight + BN-scale
  /// key and the weights' sign/oc classification (live-tap-only slot
  /// lists, tap offsets, bitmap popcounts, extents, sampled own-sign
  /// stream words bit-identical to regeneration; sim/plan_check). Run at
  /// least one forward() first so the tables exist; stages that have not
  /// executed yet are skipped. Findings anchor at "<layer name>/...".
  [[nodiscard]] core::Report validate_plans();

  /// Enables per-stage profiling: every forward() records one
  /// category-"layer" span per stage (name = weighted layer, kind =
  /// conv/conv+pool/dense, counters = product_bits / skipped_operands
  /// deltas) on timeline lane @p track. Pass nullptr to disable. The
  /// profiler must outlive this object; it may be shared across clones
  /// running on different threads (obs::Profiler::record is
  /// thread-safe).
  void set_profiler(obs::Profiler* profiler, std::uint32_t track = 0) noexcept {
    profiler_ = profiler;
    track_ = track;
  }

 private:
  /// Per-stage reusable executor state of a weighted node. Nothing here
  /// is per-clone weight data: the weight table is shared with every clone
  /// through the WeightPlanStore, the clone only holds a reference to it.
  struct StageScratch {
    /// The activation stream plan is a per-image table, but its allocation
    /// depends only on (lanes, schedule) — fixed across images of one
    /// evaluation — so the plan object is kept and rebuilt in place
    /// (build() overwrites every lane). sched is the schedule the stage
    /// last executed, input the volume it was fed (validate_plans
    /// re-derives the node's geometry from it).
    std::unique_ptr<LayerStreamPlan> act_plan;
    std::size_t lanes = 0;
    SegmentSchedule sched;
    nn::Shape input;
    /// The stage's ProductTable from the shared store, re-fetched only
    /// when its key — (schedule, layout with its live taps, raw weights,
    /// folded-BN scale; see node_key), compared bitwise — no longer
    /// matches the live node. That compare keeps the "weights are read
    /// live" contract: retraining between forwards (of the conv, or of a
    /// folded BatchNorm's gamma or variance) is picked up on the next
    /// forward. The BN fold itself runs only on such a miss, into a
    /// transient buffer, so a steady-state forward neither folds nor
    /// copies a weight.
    std::shared_ptr<const ProductTable> table;
  };

  /// Runs a weighted node — conv, dense (as a 1x1 conv) or a skip-path
  /// projection conv — on the executor the config selects, at the node's
  /// one ConvGeometry (sim/op_graph.hpp).
  void run_conv(const LoweredOp& op, std::size_t op_idx,
                const nn::Tensor& input, nn::Tensor& out, RunStats& run);
  void run_conv_scalar(const LoweredOp& op, const ConvGeometry& g,
                       const nn::Tensor& input, nn::Tensor& out,
                       RunStats& run);
  void run_conv_planned(const LoweredOp& op, std::size_t op_idx,
                        const ConvGeometry& g, const nn::Tensor& input,
                        nn::Tensor& out, RunStats& run);
  /// Runs the node's projection conv stochastically over the saved skip
  /// tensor (saved = proj(saved)); the main-path activation is untouched.
  void run_skip_project(const LoweredOp& op, std::size_t op_idx,
                        RunStats& run);
  /// Stochastic max pooling (MaxPoolMode::kStochastic): each window runs a
  /// tournament of the kernel table's max_stream FSM over streams
  /// regenerated from the activation bank. The modelled circuit is
  /// bit-serial; max_stream reproduces it word at a time with one portable
  /// body at every level, and the windows run serially, so the result is
  /// invariant across thread counts, exec modes and SIMD levels by
  /// construction.
  void run_max_pool_sc(const LoweredOp& op, const nn::Tensor& input,
                       nn::Tensor& out, RunStats& run);

  /// The pool that shards this layer's rows/neurons, or nullptr for
  /// serial execution — when the config asks for it, or when auto mode
  /// (intra_threads == 0) gates a layer whose estimated word-level work
  /// @p work_words falls below kIntraWorkThreshold (4M): forking
  /// workers costs more than small layers save (the recorded LeNet-small
  /// regression). When the forward already runs on a work-stealing pool
  /// worker (a batch-evaluator image task) this returns THAT pool — the
  /// row subtasks become nested jobs idle workers can steal — and the
  /// private pool_ below is only created for direct forward() callers.
  [[nodiscard]] runtime::ThreadPool* intra_pool(std::size_t work_words);

  /// Shared activation SNG bank for the planned path. A bank's content is
  /// a pure function of the config, so one bank serves every stage (the
  /// weight bank lives in the shared WeightPlanStore; the scalar oracle
  /// keeps constructing per-layer banks with identical content).
  [[nodiscard]] StreamBank& activation_bank();

  nn::Network* net_;
  ScConfig cfg_;
  std::vector<LoweredOp> ops_;
  RunStats stats_;
  /// Per-forward bump allocator: reset at the top of forward_into(), grown
  /// to its high-water mark by the warm-up calls, allocation-free after.
  runtime::ScratchArena arena_;
  /// Ping-pong activation buffers the stages alternate between; resize()
  /// reuses their capacity once the largest stage output has been seen.
  nn::Tensor buf_a_;
  nn::Tensor buf_b_;
  /// Skip-projection output staging (swapped into SkipState::saved), kept
  /// out of the main-path ping-pong so a projection cannot clobber the
  /// live activation.
  nn::Tensor skip_buf_;
  std::vector<StageScratch> stage_scratch_;
  /// Fallback intra-image pool for forwards NOT running inside an
  /// enclosing work-stealing pool (direct forward() calls, latency
  /// benches); see intra_pool().
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::unique_ptr<StreamBank> act_bank_;
  std::shared_ptr<WeightPlanStore> wgt_plans_;
  obs::Profiler* profiler_ = nullptr;
  std::uint32_t track_ = 0;
};

}  // namespace acoustic::sim
