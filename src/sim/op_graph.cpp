#include "sim/op_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace acoustic::sim {

std::vector<LoweredOp> lower_graph(nn::Network& net, const LowerOptions& opt,
                                   const char* who) {
  std::vector<LoweredOp> ops;
  std::size_t i = 0;
  // Consumes and returns the next layer when @p enabled and it is a
  // @p kind; nullptr otherwise.
  const auto absorb = [&net, &i](bool enabled,
                                 nn::OpKind kind) -> nn::Layer* {
    if (!enabled || i == net.layer_count() || net.layer(i).kind() != kind) {
      return nullptr;
    }
    return &net.layer(i++);
  };
  while (i < net.layer_count()) {
    nn::Layer& layer = net.layer(i++);
    LoweredOp op;
    op.kind = layer.kind();
    op.layer = &layer;
    // No default: -Wswitch keeps the lowering total over nn::OpKind.
    switch (layer.kind()) {
      case nn::OpKind::kConv2D:
        op.conv = static_cast<nn::Conv2D*>(&layer);
        op.bn = static_cast<nn::BatchNorm*>(
            absorb(opt.fold_batch_norm, nn::OpKind::kBatchNorm));
        op.fused_pool = static_cast<nn::AvgPool2D*>(
            absorb(opt.fuse_avg_pool, nn::OpKind::kAvgPool2D));
        break;
      case nn::OpKind::kDense:
        op.dense = static_cast<nn::Dense*>(&layer);
        break;
      case nn::OpKind::kMaxPool2D:
        op.max_pool = static_cast<nn::MaxPool2D*>(&layer);
        break;
      case nn::OpKind::kSkipSave:
        op.skip = static_cast<nn::SkipSave&>(layer).state().get();
        break;
      case nn::OpKind::kSkipAdd:
        op.skip = static_cast<nn::SkipAdd&>(layer).state().get();
        break;
      case nn::OpKind::kSkipProject: {
        auto& proj = static_cast<nn::SkipProject&>(layer);
        op.conv = &proj.conv();
        op.skip = proj.state().get();
        break;
      }
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
  if (op.dense != nullptr) {
    // Dense runs as its 1x1 conv (nn::Dense::conv) over the input viewed
    // as 1x1xN: the lane is the flat input index.
    g.conv_out = op.dense->output_shape(input);
    g.spec = op.dense->conv().spec();
    g.in = nn::Shape{1, 1, g.spec.in_channels};
  } else {
    g.conv_out = op.conv->output_shape(input);
    g.spec = op.conv->spec();
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

WeightKey node_key(const LoweredOp& op, std::span<float> scale) {
  if (op.dense != nullptr) {
    return WeightKey{op.dense->weights(), {}};
  }
  if (op.bn == nullptr) {
    return WeightKey{op.conv->weights(), {}};
  }
  const int oc_count = op.conv->spec().out_channels;
  for (int oc = 0; oc < oc_count; ++oc) {
    scale[static_cast<std::size_t>(oc)] = op.bn->scale(oc);
  }
  return WeightKey{op.conv->weights(),
                   scale.first(static_cast<std::size_t>(oc_count))};
}

std::span<const float> node_weights(const LoweredOp& op,
                                    std::vector<float>& scratch) {
  std::vector<float> scale(
      op.bn != nullptr ? static_cast<std::size_t>(op.conv->spec().out_channels)
                       : 0);
  return folded_weights(node_key(op, scale), scratch);
}

}  // namespace acoustic::sim
