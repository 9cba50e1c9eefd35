// Bit-level functional simulation of a whole network on the ACOUSTIC
// datapath (the paper's "custom SC functional simulator", section IV-A).
//
// The network is lowered once into an op graph and run by the graph walk
// every executor shares (sim/op_graph.hpp). This executor supplies the two
// node bodies: weighted nodes (conv, dense, and the skip-path projection
// conv) run the stochastic datapath below, and max-pool nodes dispatch on
// ScConfig::max_pool (exact binary max or the stochastic max FSM, a
// bit-serial circuit the simulator steps a word at a time). The walk runs
// the residual save/add nodes (counter-preload semantics in the binary
// domain) and the post-ops, and a BatchNorm folded into a conv node
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

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/diagnostics.hpp"
#include "nn/network.hpp"
#include "sim/op_graph.hpp"
#include "sim/sc_config.hpp"
#include "sim/stream_bank.hpp"
#include "sim/stream_plan.hpp"

namespace acoustic::sim {

/// Auto sharding's per-node work floor (ScConfig::intra_threads == 0): the
/// estimated word-level AND/OR operations (output positions x window
/// slots x live field x output channels x segment words) a weighted node
/// must reach before its units fork onto the workers its forward's
/// outermost job leaves idle. Measured on resnet18-latency (stream 128,
/// side 16) with every node forced to shard on a 4-worker pool: nodes of
/// 32,768 and 65,536 word-ops got slower (the 64->128 projection 0.073 ->
/// 0.107 ms), every node from 131,072 up got faster (the 256->512
/// projection 0.129 -> 0.107 ms).
inline constexpr std::size_t kShardMinWords = 98'304;

/// The split-unipolar executor: the graph walk (GraphExecutor) with the
/// scalar oracle or the planned body for weighted nodes and the exact max
/// or the stochastic max FSM for max-pool nodes. Input values must lie in
/// [0, 1]. The planned body takes all per-forward scratch from the walk's
/// arena, so once it and the activation buffers have grown to the
/// network's high-water mark, a steady-state planned forward_into() whose
/// weight tables all fit the plan budget performs no heap allocation at
/// all (asserted by tests/sim/alloc_test.cpp). Any forward_into() is
/// bit-identical to forward().
class ScNetwork final : public GraphExecutor {
 public:
  /// Runs a snapshot of the trained @p net (GraphExecutor's): edits to
  /// @p net after construction reach neither this executor nor its clones.
  ScNetwork(nn::Network& net, ScConfig cfg);

  /// "sc" under PoolingMode::kSkipping, "sc-mux" under kMux.
  [[nodiscard]] std::string name() const override {
    return cfg_.pooling == PoolingMode::kSkipping ? "sc" : "sc-mux";
  }
  /// A twin on the same snapshot and weight-table store: each stage's
  /// ProductTable is built once across all workers (the store is
  /// thread-safe, and a table is a pure function of config, geometry and
  /// weights, so sharing cannot change bits).
  [[nodiscard]] std::unique_ptr<InferenceBackend> clone() const override {
    return std::unique_ptr<ScNetwork>(new ScNetwork(*this));
  }

  /// Plan-invariant verification (rule "plan-invariant"): re-derives the
  /// invariants of every table the stages last executed — the live-tap
  /// rectangle by brute force over every output position, and
  /// ProductTable consistency with the node's folded weights (node_weights):
  /// their sign/oc classification (live-tap-only slot lists, tap offsets,
  /// bitmap popcounts, extents, sampled own-sign stream words
  /// bit-identical to regeneration; sim/plan_check). The table's schedule
  /// and layout are the executed ones by construction (a forward
  /// re-fetches a table keyed on any other). Run at least one forward()
  /// first so the tables exist; stages that have not run the planned body
  /// are skipped. Findings anchor at "<LoweredOp::name>/...".
  [[nodiscard]] core::Report validate_plans();

 private:
  /// clone()'s twin of @p proto: its snapshot, config, activation bank and
  /// weight-table store; fresh stage scratch and stats.
  ScNetwork(const ScNetwork& proto);

  /// Per-stage reusable executor state of a weighted node. Nothing here
  /// is per-clone weight data: the weight table is shared with every clone
  /// through the WeightPlanStore, the clone only holds a reference to it.
  struct StageScratch {
    /// The activation stream plan is a per-image table, but its allocation
    /// depends only on (lanes, schedule) — fixed across images of one
    /// evaluation — so the plan object is kept and rebuilt in place, and
    /// replaced only when the stage runs on another lane count or
    /// schedule. input is the volume the stage was last fed
    /// (validate_plans re-derives the node's live taps from it).
    std::unique_ptr<LayerStreamPlan> act_plan;
    nn::Shape input;
    /// The stage's ProductTable from the shared store, keyed on the
    /// geometry (schedule, layout with its live taps) alone: the snapshot's
    /// weights cannot change. The stage re-fetches it only when the
    /// schedule or the layout differs from the table's, and only a fetch
    /// folds the node's weights (node_weights, into a transient buffer),
    /// so a steady-state forward neither folds nor compares a weight.
    std::shared_ptr<const ProductTable> table;
  };

  /// Runs a weighted node — conv, dense (as a 1x1 conv) or a skip-path
  /// projection conv — at the node's one ConvGeometry (sim/op_graph.hpp).
  /// The one route choice: the planned body when ExecMode::kPlanned and
  /// the node's weight table fits the plan budget, else the scalar oracle.
  void run_weighted(const LoweredOp& op, std::size_t node,
                    const nn::Tensor& input, nn::Tensor& out,
                    RunStats& run) override;
  void run_conv_scalar(const LoweredOp& op, const ConvGeometry& g,
                       const nn::Tensor& input, nn::Tensor& out,
                       RunStats& run);
  void run_conv_planned(const LoweredOp& op, std::size_t node,
                        const ConvGeometry& g, const nn::Tensor& input,
                        nn::Tensor& out, RunStats& run);
  /// Max pooling: the exact max, or under MaxPoolMode::kStochastic a
  /// tournament of the kernel table's max_stream FSM over each window's
  /// streams regenerated from the activation bank. The modelled circuit
  /// is bit-serial; max_stream reproduces it word at a time with one
  /// portable body at every level, and the windows run serially, so the
  /// result is invariant across thread counts, exec modes and SIMD levels
  /// by construction.
  void run_max_pool(const LoweredOp& op, const nn::Tensor& input,
                    nn::Tensor& out, RunStats& run) override;

  ScConfig cfg_;
  /// The activation SNG bank, built once here: its content is a pure
  /// function of the config, so the planned body, the scalar oracle and
  /// the stochastic max of every stage read this one bank (the weight bank
  /// lives in the shared WeightPlanStore).
  StreamBank act_bank_;
  std::vector<StageScratch> stage_scratch_;
  std::shared_ptr<WeightPlanStore> wgt_plans_;
};

}  // namespace acoustic::sim
