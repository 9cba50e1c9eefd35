// Op-graph lowering for the bit-level executors (DESIGN.md section 15).
//
// Both ScNetwork and BipolarNetwork execute a network as a sequence of
// lowered ops. lower_graph walks the layer list once and switches on each
// layer's nn::OpKind (no default case, so -Wswitch flags a kind the
// lowering forgets); a case consumes one or more layers and appends at
// most one LoweredOp node:
//
//   - kConv2D opens a weighted node. Under LowerOptions::fold_batch_norm a
//     BatchNorm directly following the conv is absorbed into the node (its
//     scale folds into the conv's weight levels at plan-build time, its
//     shift is applied post-counter in the binary domain). Under
//     fuse_avg_pool an AvgPool2D directly following is recorded as the
//     node's computation-skipping fused pool (paper II-C).
//   - kDense opens a weighted node.
//   - kSkipSave / kSkipAdd / kSkipProject become explicit nodes carrying
//     their shared SkipState, so residual topologies (identity blocks and
//     projection downsamples) execute through the ordinary walk without
//     executor special-casing. kSkipProject is a weighted node: its
//     projection conv runs on the saved skip tensor.
//   - kMaxPool2D becomes its own node; the executor picks exact binary max
//     or the stochastic max FSM per its MaxPoolMode policy.
//   - Everything else (ReLU, OrSaturation, an unfused AvgPool2D, an
//     unfolded BatchNorm) attaches to the previous node's binary-domain
//     post-op list.
//
// This module is also the one owner of what a weighted node computes:
// sc_lower_options (the lowering the SC datapath runs), the fused pool's
// window timetable, ConvGeometry with its live-tap rectangle (live_taps),
// node_key and node_weights. The executor and `acoustic check` both read
// them, so the analyzer sees exactly the nodes, slots, live taps and
// BN-folded weights the executor runs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "nn/op.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "sim/sc_config.hpp"
#include "sim/stream_plan.hpp"

namespace acoustic::sim {

/// One executable node of the lowered graph.
struct LoweredOp {
  nn::OpKind kind = nn::OpKind::kConv2D;  ///< executor dispatch key
  nn::Layer* layer = nullptr;  ///< defining layer (names, binary fallback)
  nn::Conv2D* conv = nullptr;  ///< kConv2D, or kSkipProject's projection
  nn::Dense* dense = nullptr;  ///< kDense
  nn::BatchNorm* bn = nullptr;  ///< folded into the conv's weight levels
  nn::AvgPool2D* fused_pool = nullptr;  ///< skipping-fused average pool
  nn::MaxPool2D* max_pool = nullptr;    ///< kMaxPool2D
  nn::SkipState* skip = nullptr;  ///< kSkipSave / kSkipAdd / kSkipProject
  std::vector<nn::Layer*> post_ops;  ///< run in the binary domain

  /// Weighted nodes run the stochastic datapath and own per-stage plans.
  [[nodiscard]] bool weighted() const noexcept {
    return conv != nullptr || dense != nullptr;
  }
  /// The fused pool's window, 1 without one.
  [[nodiscard]] int pool_window() const noexcept {
    return fused_pool != nullptr ? fused_pool->window() : 1;
  }
};

struct LowerOptions {
  /// Record an AvgPool2D directly following a conv as the node's fused
  /// pool (computation skipping). Whether the window actually tiles the
  /// conv output is a runtime property of the input shape; the executor
  /// falls back to binary-domain pooling when it does not.
  bool fuse_avg_pool = false;
  /// Absorb a BatchNorm directly following a conv into the conv node.
  bool fold_batch_norm = false;
};

/// The lowering the SC datapath runs under @p cfg: average pools fuse under
/// computation skipping, and BatchNorm always folds (the scalar oracle
/// quantizes the same folded weights, so planned == scalar stays exact).
[[nodiscard]] LowerOptions sc_lower_options(const ScConfig& cfg) noexcept;

/// Lowers @p net into the executable op graph. Throws
/// std::invalid_argument (prefixed with @p who) if a binary-domain layer
/// appears before any node exists to attach it to.
[[nodiscard]] std::vector<LoweredOp> lower_graph(nn::Network& net,
                                                 const LowerOptions& opt,
                                                 const char* who);

/// How a fused pooling window runs over a conv output (paper II-C): the
/// window's pool^2 positions each count a phase / pool^2 bit slice
/// (floored; seg == 0 when the phase is too short). A window that does not
/// tile the output (e.g. AlexNet's 55x55 -> pool 2) falls back to pool 1:
/// the conv runs unfused over the full phase and the executor pools in the
/// binary domain afterwards, where AvgPool2D floor-crops the ragged border
/// exactly like the descriptor arithmetic does.
struct WindowSchedule {
  int pool = 1;       ///< window the stream slicing runs (1 = none)
  bool fused = true;  ///< false when the requested window did not tile
  SegmentSchedule sched;
};

/// The timetable of fused window @p pool (1 = none) over a
/// @p conv_h x @p conv_w conv output, at @p phase bits per sign phase.
[[nodiscard]] WindowSchedule window_schedule(std::size_t phase, int pool,
                                             int conv_h, int conv_w) noexcept;

/// The live-tap rectangle of a conv with @p spec over an @p in volume:
/// per axis, the first to the last tap whose input row (column) lies
/// inside the input for at least one output row (column). Every tap
/// outside it reads zero padding at every position. conv_geometry records
/// it in the node's WeightLayout: it bounds the entries of the node's
/// ProductTable. Precondition: the kernel fits (at least one output
/// position per axis).
[[nodiscard]] TapRect live_taps(const nn::ConvSpec& spec,
                                nn::Shape in) noexcept;

/// The taps single output positions read, reduced to the maximal sets: a
/// position reads the rectangle of its in-bounds rows times its in-bounds
/// columns, and one whose rectangle lies inside another's ORs no line the
/// other lacks. One rectangle (live_taps) when some position reads every
/// live tap; on a map smaller than the kernel, several smaller ones (a
/// 3x3 pad-1 conv on a 2x2 map: four 2x2 corners). `acoustic check` takes
/// its OR fan-in over these, the most products any one position can OR.
[[nodiscard]] std::vector<TapRect> position_taps(const nn::ConvSpec& spec,
                                                 nn::Shape in);

/// Geometry of one weighted node as the conv it executes: output shapes,
/// the pooling window's segment timetable, the receptive-field extent and
/// the grouped weight layout with its live-tap rectangle. Shared by the
/// scalar and planned executors and by `acoustic check`, so none of them
/// can drift.
struct ConvGeometry {
  nn::ConvSpec spec;  ///< the conv executed (a dense node's 1x1 view)
  nn::Shape in;       ///< the input as that conv sees it
  nn::Shape conv_out;
  nn::Shape out_shape;
  WindowSchedule window;
  /// Receptive-field slots (kernel^2 * in_channels, the full gather extent
  /// regardless of grouping: cross-group slots map to no weight), their
  /// weights per output channel, and the live-tap rectangle.
  WeightLayout layout;

  /// Flat input index of channel @p ic at pixel (@p iy, @p ix): the HWC
  /// tensor layout, which for a dense node's 1x1xN view is just @p ic.
  [[nodiscard]] std::size_t index(int iy, int ix, int ic) const noexcept {
    return (static_cast<std::size_t>(iy) * static_cast<std::size_t>(in.w) +
            static_cast<std::size_t>(ix)) *
               static_cast<std::size_t>(in.c) +
           static_cast<std::size_t>(ic);
  }
};

/// The geometry of weighted node @p op fed an @p input volume, at @p phase
/// bits per sign phase. The node's layers validate through their own
/// output_shape: a std::invalid_argument naming the layer and both counts
/// when @p input lacks the conv's input channels (dense: features), the
/// kernel does not fit, or a folded BatchNorm's channels differ from the
/// conv's output channels.
[[nodiscard]] ConvGeometry conv_geometry(const LoweredOp& op,
                                         nn::Shape input, std::size_t phase);

/// The ProductTable key of weighted node @p op: its raw conv or dense
/// weights and, with an absorbed BatchNorm, the per-output-channel scale
/// written into @p scale (which must hold the conv's output channels).
/// Cheap enough to take every forward: it copies no weight.
[[nodiscard]] WeightKey node_key(const LoweredOp& op, std::span<float> scale);

/// The float weights weighted node @p op's stochastic datapath quantizes:
/// folded_weights of node_key — the live dense or conv weights, or, with
/// an absorbed BatchNorm, the folded copy w * scale(oc) staged in
/// @p scratch (its shift is applied post-counter instead). The folded
/// floats feed quantization AND sign classification, so a negative scale
/// flips the product's phase exactly as the algebra demands. Call
/// conv_geometry first: it validates the fold.
[[nodiscard]] std::span<const float> node_weights(const LoweredOp& op,
                                                  std::vector<float>& scratch);

}  // namespace acoustic::sim
