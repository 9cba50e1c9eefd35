// Op-graph lowering and the one graph walk of every executor (DESIGN.md
// section 15).
//
// ScNetwork, BipolarNetwork and the float backend execute a network as a
// sequence of lowered ops. lower_graph walks the layer list once and
// switches on each layer's nn::OpKind (no default case, so -Wswitch flags
// a kind the lowering forgets); a case consumes one or more layers and
// appends at most one LoweredOp node:
//
//   - kConv2D opens a weighted node. Under LowerOptions::fold_batch_norm a
//     BatchNorm directly following the conv is absorbed into the node (its
//     scale folds into the conv's weight levels at plan-build time, its
//     shift is applied post-counter in the binary domain). Under
//     fuse_avg_pool an AvgPool2D directly following is recorded as the
//     node's computation-skipping fused pool (paper II-C).
//   - kDense opens a weighted node whose conv is the layer's 1x1 view
//     (nn::Dense::conv), run over its input viewed as 1x1xN.
//   - kSkipSave / kSkipAdd / kSkipProject become explicit nodes carrying
//     the index of their skip connection, so residual topologies (identity
//     blocks and projection downsamples) execute through the ordinary walk
//     without executor special-casing. kSkipProject is a weighted node: its
//     projection conv runs on the connection's skip tensor.
//   - kMaxPool2D becomes its own node; the executor picks exact binary max
//     or the stochastic max FSM per its MaxPoolMode policy.
//   - Everything else (ReLU, OrSaturation, an unfused AvgPool2D, an
//     unfolded BatchNorm) attaches to the previous node's binary-domain
//     post-op list.
//
// GraphExecutor, the InferenceBackend of every datapath, runs that node
// list: one walk owns the activation buffers, one skip tensor per
// connection, the post-ops, the per-node spans and the stats, and asks its
// executor for two bodies only, the weighted node and the max pool. Node i
// is therefore the same node on every backend. The walk reads the network
// through const nodes and nn::Layer::infer only, so executors share it.
//
// This module is also the one owner of what a weighted node computes:
// sc_lower_options (the lowering the SC datapath runs), the fused pool's
// window timetable, ConvGeometry with its live-tap rectangle (live_taps)
// and node_weights. The executor and `acoustic check` both read them, so
// the analyzer sees exactly the nodes, slots, live taps and BN-folded
// weights the executor runs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "nn/op.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "obs/span.hpp"
#include "runtime/scratch_arena.hpp"
#include "sim/sc_config.hpp"
#include "sim/stream_plan.hpp"

namespace acoustic::sim {

/// One executable node of the lowered graph.
struct LoweredOp {
  nn::OpKind kind = nn::OpKind::kConv2D;  ///< the walk's dispatch key
  const nn::Layer* layer = nullptr;  ///< defining layer (skip save/add)
  /// The defining layer's name, taken once at lowering: the node's span,
  /// `acoustic check` finding paths and validate_plans anchors read it.
  std::string name;
  /// The weights every weighted node runs as a conv: kConv2D's layer,
  /// kSkipProject's projection, or kDense's 1x1 view (nn::Dense::conv).
  const nn::Conv2D* conv = nullptr;
  const nn::BatchNorm* bn = nullptr;  ///< folded into the weight levels
  const nn::AvgPool2D* fused_pool = nullptr;  ///< skipping-fused avg pool
  const nn::MaxPool2D* max_pool = nullptr;    ///< kMaxPool2D
  std::size_t skip = 0;  ///< skip nodes: their connection, in save order
  std::vector<const nn::Layer*> post_ops;  ///< run in the binary domain

  /// Weighted nodes run the stochastic datapath and own per-stage plans.
  [[nodiscard]] bool weighted() const noexcept { return conv != nullptr; }
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
/// appears before any node exists to attach it to, or a skip layer before
/// its connection's save.
[[nodiscard]] std::vector<LoweredOp> lower_graph(const nn::Network& net,
                                                 const LowerOptions& opt,
                                                 const char* who);

/// Statistics an executor accumulates across forward() calls. The walk
/// counts samples, layers_run and scratch_bytes on every executor; the SC
/// bodies add the datapath counters, the float and bipolar bodies none.
/// Every field is a sum except scratch_bytes, a max, so merging
/// per-thread stats is order-insensitive.
struct RunStats {
  /// forward() calls (samples executed).
  std::uint64_t samples = 0;
  /// Weighted nodes executed (conv, dense, skip projection).
  std::uint64_t layers_run = 0;
  /// AND-gate product bits evaluated (the unit computation skipping saves).
  std::uint64_t product_bits = 0;
  /// Product candidates skipped by operand gating: a zero (or padding)
  /// activation or a zero-quantized weight in the phase the product was
  /// scheduled for (paper II-C's "skip computation on zero operands").
  std::uint64_t skipped_operands = 0;
  /// Comparator bits the SNG kernel actually produced for this run
  /// (scalar-oracle fills, per-image activation-plan builds, in-place
  /// activation fills, stochastic-max fills). Shared weight-table builds
  /// are amortized across images and clones and deliberately excluded,
  /// keeping stats a pure function of the sample set.
  std::uint64_t stream_bits_generated = 0;
  /// Segment bits served from a packed stream plan instead of being
  /// regenerated — the fast path's reuse headroom.
  std::uint64_t stream_bits_reused = 0;
  /// Segment fetches served from a packed table / generated from a bank:
  /// every fetch of the scalar oracle (ExecMode::kScalar, or a node whose
  /// weight table is over the plan budget) and of an over-budget activation
  /// plan is a miss, so hits + misses is the fetch count on every route.
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  /// High-water mark of the per-forward scratch arena in bytes — the
  /// steady-state working set one executor needs beyond the plan tables.
  /// A pure function of (network, config, input shape) and, once a node
  /// shards, of the worker count of the pool it shards on: each worker
  /// gets its own row-unit scratch state, so the figure grows with the
  /// evaluator's thread count then and is invariant across thread counts
  /// otherwise. Under auto sharding whether a node shards depends on the
  /// pool size and the task count of the forward's outermost job too (a
  /// 2-image run on 4 workers shards, a 4-image run does not), never on
  /// timing. Identical for every clone of one run and across repeated
  /// runs, so merge() takes the max, not the sum.
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

/// The span kind of node @p op: "conv", "conv+pool" (a conv with a fused
/// average pool), "dense", "skip-save", "skip-project", "skip-add" or
/// "max-pool".
[[nodiscard]] const char* node_kind(const LoweredOp& op) noexcept;

/// One functional execution path for a fixed trained network;
/// GraphExecutor implements it for every built-in datapath.
class InferenceBackend {
 public:
  virtual ~InferenceBackend() = default;

  InferenceBackend() = default;
  InferenceBackend(const InferenceBackend&) = delete;
  InferenceBackend& operator=(const InferenceBackend&) = delete;

  /// Stable identifier ("float", "sc", "sc-mux", "bipolar").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Independent twin: same weights and configuration, fresh scratch,
  /// zeroed stats. Safe to run concurrently with this backend.
  [[nodiscard]] virtual std::unique_ptr<InferenceBackend> clone() const = 0;

  /// Runs one sample. Not thread-safe per instance — use clone() for
  /// concurrency.
  [[nodiscard]] virtual nn::Tensor forward(const nn::Tensor& input) = 0;

  /// Runs one sample into a caller-owned output tensor, reusing its
  /// capacity (allocation-free on the SC executor once warm); the default
  /// simply wraps forward(). Same bits as forward() in every backend.
  virtual void forward_into(const nn::Tensor& input, nn::Tensor& out) {
    out = forward(input);
  }

  /// Stats accumulated since construction / the last take_stats().
  [[nodiscard]] virtual RunStats stats() const = 0;

  /// Returns the accumulated stats and resets them.
  [[nodiscard]] virtual RunStats take_stats() = 0;

  /// Enables per-layer profiling spans on timeline lane @p track (worker
  /// index under the batch evaluator). The profiler must outlive the
  /// backend and may be shared across clones — it is thread-safe. A
  /// clone() does NOT inherit the profiler (the evaluator re-attaches
  /// per worker with the worker's own track). Default: no-op, so
  /// third-party backends keep working unprofiled.
  virtual void set_profiler(obs::Profiler* profiler, std::uint32_t track) {
    (void)profiler;
    (void)track;
  }
};

/// The one walk over a lowered graph that every executor runs, and the
/// InferenceBackend of every built-in datapath. It owns what all backends
/// share: the ping-pong activation buffers (the external input is
/// read-only), one skip tensor per skip connection (save and add run
/// their layer's infer on it; a projection runs the weighted body on it
/// into a staging buffer), the binary-domain post-ops, the node spans, the
/// per-forward scratch arena and the stats. An executor derives from it
/// and supplies name(), clone() and two bodies: run_weighted and
/// run_max_pool (exact binary max unless overridden). Dispatch is one
/// virtual call per node; nothing on the per-node path allocates once the
/// buffers and the arena have grown to the network's high-water mark.
class GraphExecutor : public InferenceBackend {
 public:
  /// Runs one sample.
  [[nodiscard]] nn::Tensor forward(const nn::Tensor& input) override {
    nn::Tensor out;
    forward_into(input, out);
    return out;
  }

  /// Runs one sample into @p out, reusing its capacity: the walk writes
  /// every node into its member buffers and copies the last into @p out.
  /// Per-run stats accumulate in locals and merge into stats() once.
  void forward_into(const nn::Tensor& input, nn::Tensor& out) override;

  /// Cumulative statistics since construction (or take_stats()).
  [[nodiscard]] RunStats stats() const override { return stats_; }
  /// Returns the accumulated statistics and resets them — the per-run
  /// read-out the batch evaluator uses to merge clone stats race-free.
  [[nodiscard]] RunStats take_stats() override {
    return std::exchange(stats_, RunStats{});
  }

  /// Enables per-node profiling: every forward records one category-
  /// "layer" span per node (name = LoweredOp::name, kind = node_kind,
  /// seq = node index, counters = the node's product_bits,
  /// skipped_operands, stream_bits_generated and stream_bits_reused
  /// deltas) on timeline lane @p track. The span covers the node's
  /// post-ops too, so the nodes sum to the forward's wall time. Pass
  /// nullptr to disable. The profiler must outlive this object; it may be
  /// shared across clones on different threads (obs::Profiler::record is
  /// thread-safe).
  void set_profiler(obs::Profiler* profiler,
                    std::uint32_t track = 0) noexcept override {
    profiler_ = profiler;
    track_ = track;
  }

  /// The snapshot this executor and its clones read.
  [[nodiscard]] const nn::Network& network() const noexcept { return *net_; }

 protected:
  /// Takes a snapshot of @p net (nn::Network::clone, a deep copy) and
  /// lowers it under @p opt (see lower_graph; @p who prefixes its errors).
  /// Later edits to @p net reach neither this executor nor its clones.
  GraphExecutor(nn::Network& net, const LowerOptions& opt, const char* who);

  /// clone()'s twin of @p proto: the same snapshot and nodes, fresh
  /// buffers, zeroed stats and no profiler.
  GraphExecutor(const GraphExecutor& proto);

  /// The lowered nodes, in execution order.
  [[nodiscard]] const std::vector<LoweredOp>& ops() const noexcept {
    return ops_;
  }

  /// Runs weighted node @p op (index @p node) on @p input into @p out,
  /// adding its datapath counters to @p run.
  virtual void run_weighted(const LoweredOp& op, std::size_t node,
                            const nn::Tensor& input, nn::Tensor& out,
                            RunStats& run) = 0;
  /// Runs max-pool node @p op on @p input into @p out. Default: the
  /// layer's exact binary max.
  virtual void run_max_pool(const LoweredOp& op, const nn::Tensor& input,
                            nn::Tensor& out, RunStats& run);

  /// The snapshot, shared with every clone: nothing else can reach it and
  /// nothing writes it.
  const std::shared_ptr<const nn::Network> net_;
  /// Per-forward bump allocator for the bodies: reset at the top of every
  /// forward, grown to its high-water mark by the warm-up calls (reported
  /// as RunStats::scratch_bytes), allocation-free after.
  runtime::ScratchArena arena_;

 private:
  std::vector<LoweredOp> ops_;
  RunStats stats_;
  /// Ping-pong activation buffers the nodes alternate between.
  nn::Tensor buf_a_;
  nn::Tensor buf_b_;
  /// The skip tensor of each connection (LoweredOp::skip).
  std::vector<nn::Tensor> skips_;
  /// Skip-projection output, swapped into the connection's skip tensor,
  /// kept out of the ping-pong so a projection cannot clobber the live
  /// activation.
  nn::Tensor skip_buf_;
  obs::Profiler* profiler_ = nullptr;
  std::uint32_t track_ = 0;
};

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

/// The float weights weighted node @p op's stochastic datapath quantizes:
/// the conv's weights, or, with an absorbed BatchNorm, the folded copy
/// w * scale(oc) staged in @p scratch (its shift is applied post-counter
/// instead). The one definition of the BN fold: the table builder's
/// caller, the table validator, the scalar oracle and `acoustic check`
/// all take it. The folded floats feed quantization AND sign
/// classification, so a negative scale flips the product's phase exactly
/// as the algebra demands. Call conv_geometry first: it validates the
/// fold.
[[nodiscard]] std::span<const float> node_weights(const LoweredOp& op,
                                                  std::vector<float>& scratch);

}  // namespace acoustic::sim
