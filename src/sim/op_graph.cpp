#include "sim/op_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace acoustic::sim {

std::vector<LoweredOp> lower_graph(const nn::Network& net,
                                   const LowerOptions& opt, const char* who) {
  std::vector<LoweredOp> ops;
  std::size_t i = 0;
  // Consumes and returns the next layer when @p enabled and it is a
  // @p kind; nullptr otherwise.
  const auto absorb = [&net, &i](bool enabled,
                                 nn::OpKind kind) -> const nn::Layer* {
    if (!enabled || i == net.layer_count() || net.layer(i).kind() != kind) {
      return nullptr;
    }
    return &net.layer(i++);
  };
  // Skip connections in save order: a projection or an add finds its open.
  std::vector<const void*> connections;
  const auto connection_of = [&](const nn::Layer& skip) {
    const void* id = static_cast<const nn::SkipLayer&>(skip).connection();
    const auto it = std::find(connections.begin(), connections.end(), id);
    if (it != connections.end()) {
      return static_cast<std::size_t>(it - connections.begin());
    }
    if (skip.kind() != nn::OpKind::kSkipSave) {
      throw std::invalid_argument(std::string(who) + ": " + skip.name() +
                                  " comes before its connection's skip-save");
    }
    connections.push_back(id);
    return connections.size() - 1;
  };
  while (i < net.layer_count()) {
    const nn::Layer& layer = net.layer(i++);
    LoweredOp op;
    op.kind = layer.kind();
    op.layer = &layer;
    op.name = layer.name();
    // No default: -Wswitch keeps the lowering total over nn::OpKind.
    switch (layer.kind()) {
      case nn::OpKind::kConv2D:
        op.conv = static_cast<const nn::Conv2D*>(&layer);
        op.bn = static_cast<const nn::BatchNorm*>(
            absorb(opt.fold_batch_norm, nn::OpKind::kBatchNorm));
        op.fused_pool = static_cast<const nn::AvgPool2D*>(
            absorb(opt.fuse_avg_pool, nn::OpKind::kAvgPool2D));
        break;
      case nn::OpKind::kDense:
        op.conv = &static_cast<const nn::Dense&>(layer).conv();
        break;
      case nn::OpKind::kMaxPool2D:
        op.max_pool = static_cast<const nn::MaxPool2D*>(&layer);
        break;
      case nn::OpKind::kSkipProject:
        op.conv = &static_cast<const nn::SkipProject&>(layer).conv();
        [[fallthrough]];
      case nn::OpKind::kSkipSave:
      case nn::OpKind::kSkipAdd:
        op.skip = connection_of(layer);
        break;
      // Binary-domain layers attach to the previous node; they run after
      // its stochastic body in plain float arithmetic.
      case nn::OpKind::kAvgPool2D:
      case nn::OpKind::kBatchNorm:
      case nn::OpKind::kReLU:
      case nn::OpKind::kOrSaturation:
        if (ops.empty()) {
          throw std::invalid_argument(
              std::string(who) + ": binary-domain layer " + layer.name() +
              " lowers by attaching to the preceding graph node; the "
              "network must start with a layer that opens one (conv, "
              "dense, max pool, or a skip save/projection)");
        }
        ops.back().post_ops.push_back(&layer);
        continue;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

const char* node_kind(const LoweredOp& op) noexcept {
  if (op.kind == nn::OpKind::kConv2D) {
    return op.fused_pool != nullptr ? "conv+pool" : "conv";
  }
  return nn::to_string(op.kind);
}

GraphExecutor::GraphExecutor(nn::Network& net, const LowerOptions& opt,
                             const char* who)
    : net_(std::make_shared<const nn::Network>(net.clone())),
      ops_(lower_graph(*net_, opt, who)) {
  for (const LoweredOp& op : ops_) {
    if (op.kind == nn::OpKind::kSkipSave) {
      skips_.resize(std::max(skips_.size(), op.skip + 1));
    }
  }
}

GraphExecutor::GraphExecutor(const GraphExecutor& proto)
    : InferenceBackend(),
      net_(proto.net_),
      ops_(proto.ops_),
      skips_(proto.skips_.size()) {}

void GraphExecutor::run_max_pool(const LoweredOp& op, const nn::Tensor& input,
                                 nn::Tensor& out, RunStats& run) {
  (void)run;
  op.max_pool->infer(input, out, nullptr);
}

void GraphExecutor::forward_into(const nn::Tensor& input, nn::Tensor& out) {
  // Per-run accounting: the bodies write into `run`, never into stats_, so
  // evaluator clones share nothing mutable.
  RunStats run;
  run.samples = 1;
  // One scratch epoch per forward: the first call grows the arena to the
  // network's high-water mark, every later call only bumps pointers.
  arena_.reset();
  // Nodes ping-pong between the two member buffers, each writing the one
  // the current activation is not in; the external input is read-only, so
  // the first node writes buf_a_.
  const nn::Tensor* cur = &input;
  nn::Tensor* cur_buf = nullptr;
  const auto flip = [&]() -> nn::Tensor& {
    return cur_buf == &buf_a_ ? buf_b_ : buf_a_;
  };
  const auto land = [&](nn::Tensor& dst) {
    cur_buf = &dst;
    cur = cur_buf;
  };
  // Binary-domain arithmetic, defined by the layer.
  const auto apply = [&](const nn::Layer& layer, nn::Tensor* skip) {
    nn::Tensor& dst = flip();
    layer.infer(*cur, dst, skip);
    land(dst);
  };
  for (std::size_t s = 0; s < ops_.size(); ++s) {
    const LoweredOp& op = ops_[s];
    obs::Span span(profiler_, op.name, "layer", track_,
                   static_cast<std::uint32_t>(s));
    span.kind(node_kind(op));
    const RunStats before = run;
    // No default: -Wswitch keeps the walk total over nn::OpKind.
    switch (op.kind) {
      case nn::OpKind::kConv2D:
      case nn::OpKind::kDense: {
        nn::Tensor& dst = flip();
        run_weighted(op, s, *cur, dst, run);
        land(dst);
        break;
      }
      case nn::OpKind::kSkipProject: {
        // Transforms the connection's skip tensor; the main path passes
        // through. Swap rather than copy: the skip tensor takes the
        // projected one, skip_buf_ keeps the old capacity for the next
        // block.
        nn::Tensor& skip = skips_[op.skip];
        run_weighted(op, s, skip, skip_buf_, run);
        std::swap(skip, skip_buf_);
        break;
      }
      case nn::OpKind::kMaxPool2D: {
        nn::Tensor& dst = flip();
        run_max_pool(op, *cur, dst, run);
        land(dst);
        break;
      }
      case nn::OpKind::kSkipSave:
      case nn::OpKind::kSkipAdd:  // counter preload
        apply(*op.layer, &skips_[op.skip]);
        break;
      // lower_graph attaches binary-domain layers to the preceding node's
      // post_ops; they never form a node of their own.
      case nn::OpKind::kAvgPool2D:
      case nn::OpKind::kBatchNorm:
      case nn::OpKind::kReLU:
      case nn::OpKind::kOrSaturation:
        break;
    }
    run.layers_run += op.weighted() ? 1 : 0;
    for (const nn::Layer* post : op.post_ops) {
      apply(*post, nullptr);
    }
    span.counter("product_bits", run.product_bits - before.product_bits);
    span.counter("skipped_operands",
                 run.skipped_operands - before.skipped_operands);
    span.counter("stream_bits_generated",
                 run.stream_bits_generated - before.stream_bits_generated);
    span.counter("stream_bits_reused",
                 run.stream_bits_reused - before.stream_bits_reused);
  }
  run.scratch_bytes = arena_.high_water_bytes();
  stats_.merge(run);
  out = *cur;
}

LowerOptions sc_lower_options(const ScConfig& cfg) noexcept {
  LowerOptions opt;
  opt.fuse_avg_pool = cfg.pooling == PoolingMode::kSkipping;
  opt.fold_batch_norm = true;
  return opt;
}

WindowSchedule window_schedule(std::size_t phase, int pool, int conv_h,
                               int conv_w) noexcept {
  WindowSchedule w;
  if (pool > 1) {
    w.fused = conv_h % pool == 0 && conv_w % pool == 0;
    w.pool = w.fused ? pool : 1;
  }
  const auto positions = static_cast<std::size_t>(w.pool) * w.pool;
  w.sched = SegmentSchedule{phase, positions, phase / positions};
  return w;
}

namespace {

/// Taps [lo, hi) of one kernel axis that output coordinate @p o reads
/// inside an input of @p extent: those whose input coordinate
/// o * stride + t - padding lies in [0, extent). Empty (lo >= hi) where
/// the output reads only padding along the axis.
std::pair<int, int> axis_taps(const nn::ConvSpec& spec, int extent, int o) {
  const int i0 = o * spec.stride - spec.padding;
  return {std::max(0, -i0), std::min(spec.kernel, extent - i0)};
}

/// Output coordinates of one axis of extent @p extent.
int axis_outputs(const nn::ConvSpec& spec, int extent) {
  return (extent + 2 * spec.padding - spec.kernel) / spec.stride + 1;
}

/// The per-axis tap ranges of @p extent that no other output's range
/// contains, in first-output order: the axis factor of position_taps.
std::vector<std::pair<int, int>> maximal_axis_taps(const nn::ConvSpec& spec,
                                                   int extent) {
  std::vector<std::pair<int, int>> ranges;
  const int outs = axis_outputs(spec, extent);
  for (int o = 0; o < outs; ++o) {
    const auto r = axis_taps(spec, extent, o);
    if (r.first < r.second &&
        std::find(ranges.begin(), ranges.end(), r) == ranges.end()) {
      ranges.push_back(r);
    }
  }
  std::vector<std::pair<int, int>> maximal;
  for (const auto& r : ranges) {
    const bool inside_another =
        std::any_of(ranges.begin(), ranges.end(), [&r](const auto& q) {
          return q != r && q.first <= r.first && r.second <= q.second;
        });
    if (!inside_another) {
      maximal.push_back(r);
    }
  }
  return maximal;
}

}  // namespace

TapRect live_taps(const nn::ConvSpec& spec, nn::Shape in) noexcept {
  // Per axis, the span from the first to the last tap any output reads.
  const auto axis = [&spec](int extent, std::size_t& lo, std::size_t& n) {
    int first = spec.kernel;
    int last = 0;
    const int outs = axis_outputs(spec, extent);
    for (int o = 0; o < outs; ++o) {
      const auto [t0, t1] = axis_taps(spec, extent, o);
      if (t0 < t1) {
        first = std::min(first, t0);
        last = std::max(last, t1);
      }
    }
    lo = first < last ? static_cast<std::size_t>(first) : 0;
    n = first < last ? static_cast<std::size_t>(last - first) : 0;
  };
  TapRect r;
  axis(in.h, r.y0, r.h);
  axis(in.w, r.x0, r.w);
  return r;
}

std::vector<TapRect> position_taps(const nn::ConvSpec& spec, nn::Shape in) {
  std::vector<TapRect> rects;
  for (const auto& [y0, y1] : maximal_axis_taps(spec, in.h)) {
    for (const auto& [x0, x1] : maximal_axis_taps(spec, in.w)) {
      rects.push_back(TapRect{static_cast<std::size_t>(y0),
                              static_cast<std::size_t>(x0),
                              static_cast<std::size_t>(y1 - y0),
                              static_cast<std::size_t>(x1 - x0)});
    }
  }
  return rects;
}

ConvGeometry conv_geometry(const LoweredOp& op, nn::Shape input,
                           std::size_t phase) {
  ConvGeometry g;
  g.spec = op.conv->spec();
  if (op.kind == nn::OpKind::kDense) {
    // Dense runs as its 1x1 conv over the input viewed as 1x1xN: the lane
    // is the flat input index. The layer checks the feature count.
    g.conv_out = op.layer->output_shape(input);
    g.in = nn::Shape{1, 1, g.spec.in_channels};
  } else {
    g.conv_out = op.conv->output_shape(input);
    g.in = input;
  }
  if (op.bn != nullptr) {
    (void)op.bn->output_shape(g.conv_out);
  }
  const nn::ConvSpec& spec = g.spec;
  g.window = window_schedule(phase, op.pool_window(), g.conv_out.h,
                             g.conv_out.w);
  const int pool = g.window.pool;
  g.out_shape =
      nn::Shape{g.conv_out.h / pool, g.conv_out.w / pool, g.conv_out.c};
  const auto kk = static_cast<std::size_t>(spec.kernel) * spec.kernel;
  g.layout.oc_count = static_cast<std::size_t>(spec.out_channels);
  g.layout.in_c = static_cast<std::size_t>(spec.in_channels);
  g.layout.rf = kk * g.layout.in_c;
  g.layout.cpg = static_cast<std::size_t>(spec.in_channels / spec.groups);
  g.layout.oc_per_group =
      static_cast<std::size_t>(spec.out_channels / spec.groups);
  g.layout.w_per_oc = kk * g.layout.cpg;
  g.layout.kernel = static_cast<std::size_t>(spec.kernel);
  g.layout.taps = live_taps(spec, g.in);
  return g;
}

std::span<const float> node_weights(const LoweredOp& op,
                                    std::vector<float>& scratch) {
  const std::span<const float> weights = op.conv->weights();
  if (op.bn == nullptr) {
    return weights;
  }
  const int oc_count = op.conv->spec().out_channels;
  const std::size_t per_oc =
      weights.size() / static_cast<std::size_t>(oc_count);
  scratch.resize(weights.size());
  for (int oc = 0; oc < oc_count; ++oc) {
    const float scale = op.bn->scale(oc);
    const std::size_t base = static_cast<std::size_t>(oc) * per_oc;
    for (std::size_t j = base; j < base + per_oc; ++j) {
      scratch[j] = weights[j] * scale;
    }
  }
  return scratch;
}

}  // namespace acoustic::sim
