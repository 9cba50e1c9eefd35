#include "sim/op_graph.hpp"

#include <stdexcept>
#include <string>

namespace acoustic::sim {

namespace {

void lower_conv(LowerCtx& ctx) {
  auto* conv = static_cast<nn::Conv2D*>(ctx.peek());
  LoweredOp op;
  op.kind = nn::OpKind::kConv2D;
  op.layer = conv;
  op.conv = conv;
  ++ctx.i;
  if (ctx.opt->fold_batch_norm) {
    nn::Layer* next = ctx.peek();
    if (next != nullptr && next->kind() == nn::OpKind::kBatchNorm) {
      op.bn = static_cast<nn::BatchNorm*>(next);
      ++ctx.i;
    }
  }
  if (ctx.opt->fuse_avg_pool) {
    nn::Layer* next = ctx.peek();
    if (next != nullptr && next->kind() == nn::OpKind::kAvgPool2D) {
      op.fused_pool = static_cast<nn::AvgPool2D*>(next);
      ++ctx.i;
    }
  }
  ctx.ops->push_back(std::move(op));
}

void lower_dense(LowerCtx& ctx) {
  auto* dense = static_cast<nn::Dense*>(ctx.peek());
  LoweredOp op;
  op.kind = nn::OpKind::kDense;
  op.layer = dense;
  op.dense = dense;
  ++ctx.i;
  ctx.ops->push_back(std::move(op));
}

void lower_max_pool(LowerCtx& ctx) {
  auto* pool = static_cast<nn::MaxPool2D*>(ctx.peek());
  LoweredOp op;
  op.kind = nn::OpKind::kMaxPool2D;
  op.layer = pool;
  op.max_pool = pool;
  ++ctx.i;
  ctx.ops->push_back(std::move(op));
}

void lower_skip_save(LowerCtx& ctx) {
  auto* save = static_cast<nn::SkipSave*>(ctx.peek());
  LoweredOp op;
  op.kind = nn::OpKind::kSkipSave;
  op.layer = save;
  op.skip = save->state().get();
  ++ctx.i;
  ctx.ops->push_back(std::move(op));
}

void lower_skip_add(LowerCtx& ctx) {
  auto* add = static_cast<nn::SkipAdd*>(ctx.peek());
  LoweredOp op;
  op.kind = nn::OpKind::kSkipAdd;
  op.layer = add;
  op.skip = add->state().get();
  ++ctx.i;
  ctx.ops->push_back(std::move(op));
}

void lower_skip_project(LowerCtx& ctx) {
  auto* proj = static_cast<nn::SkipProject*>(ctx.peek());
  LoweredOp op;
  op.kind = nn::OpKind::kSkipProject;
  op.layer = proj;
  op.conv = &proj->conv();
  op.skip = proj->state().get();
  ++ctx.i;
  ctx.ops->push_back(std::move(op));
}

/// Binary-domain layers attach to the previous node; they run after its
/// stochastic body in plain float arithmetic.
void lower_binary(LowerCtx& ctx) {
  if (ctx.ops->empty()) {
    throw std::invalid_argument(
        std::string(ctx.who) + ": binary-domain layer " + ctx.peek()->name() +
        " lowers by attaching to the preceding graph node; the network must "
        "start with a layer that opens one (conv, dense, max pool, or a skip "
        "save/projection)");
  }
  ctx.ops->back().post_ops.push_back(ctx.peek());
  ++ctx.i;
}

}  // namespace

LowerHook lowering_hook(nn::OpKind kind) noexcept {
  switch (kind) {
    case nn::OpKind::kConv2D:
      return &lower_conv;
    case nn::OpKind::kDense:
      return &lower_dense;
    case nn::OpKind::kMaxPool2D:
      return &lower_max_pool;
    case nn::OpKind::kSkipSave:
      return &lower_skip_save;
    case nn::OpKind::kSkipAdd:
      return &lower_skip_add;
    case nn::OpKind::kSkipProject:
      return &lower_skip_project;
    case nn::OpKind::kAvgPool2D:
    case nn::OpKind::kBatchNorm:
    case nn::OpKind::kReLU:
    case nn::OpKind::kOrSaturation:
      return &lower_binary;
  }
  return &lower_binary;  // unreachable: the switch is total
}

std::vector<LoweredOp> lower_graph(nn::Network& net, const LowerOptions& opt,
                                   const char* who) {
  std::vector<LoweredOp> ops;
  LowerCtx ctx{&net, &opt, who, &ops};
  while (ctx.i < net.layer_count()) {
    lowering_hook(net.layer(ctx.i).kind())(ctx);
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

ConvGeometry conv_geometry(const LoweredOp& op, nn::Shape input,
                           std::size_t phase) {
  ConvGeometry g;
  if (op.dense != nullptr) {
    // Dense runs as a 1x1 conv over its input viewed as 1x1xN: the lane is
    // the flat input index and weight o*N + i is (output channel o, slot i).
    const nn::DenseSpec& ds = op.dense->spec();
    g.conv_out = op.dense->output_shape(input);
    g.spec = nn::ConvSpec{.in_channels = ds.in_features,
                          .out_channels = ds.out_features,
                          .kernel = 1,
                          .mode = ds.mode};
    g.in = nn::Shape{1, 1, ds.in_features};
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
  return g;
}

std::span<const float> node_weights(const LoweredOp& op,
                                    std::vector<float>& scratch) {
  if (op.dense != nullptr) {
    return op.dense->weights();
  }
  const std::span<const float> w = op.conv->weights();
  if (op.bn == nullptr) {
    return w;
  }
  const int oc_count = op.conv->spec().out_channels;
  const std::size_t per_oc = w.size() / static_cast<std::size_t>(oc_count);
  scratch.resize(w.size());
  for (int oc = 0; oc < oc_count; ++oc) {
    const float s = op.bn->scale(oc);
    const std::size_t base = static_cast<std::size_t>(oc) * per_oc;
    for (std::size_t j = base; j < base + per_oc; ++j) {
      scratch[j] = w[j] * s;
    }
  }
  return scratch;
}

}  // namespace acoustic::sim
