#include "nn/zoo_build.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"

namespace acoustic::nn {

namespace {

/// Conv spec for @p l at the live input shape @p cur: kernel and stride
/// clamp to the (possibly reduced) activation so the output stays
/// non-empty; channel and group structure follow the descriptor.
ConvSpec conv_spec(const LayerDesc& l, const Shape& cur, AccumMode mode) {
  ConvSpec spec;
  spec.in_channels = cur.c;
  spec.out_channels = l.out_c;
  spec.kernel = std::min({l.kernel, cur.h + 2 * l.padding,
                          cur.w + 2 * l.padding});
  spec.stride = std::min(l.stride, std::max(1, cur.h));
  spec.padding = l.padding;
  spec.groups = l.groups;
  spec.mode = mode;
  return spec;
}

}  // namespace

Shape zoo_input_shape(const NetworkDesc& desc, const ZooBuildOptions& opt) {
  if (desc.layers.empty()) {
    throw std::invalid_argument("zoo_build: empty descriptor");
  }
  if (opt.side < 0) {
    throw std::invalid_argument("zoo_build: negative input side " +
                                std::to_string(opt.side));
  }
  const LayerDesc& first = desc.layers.front();
  const int side = opt.side > 0 ? opt.side : first.in_h;
  if (first.kind == OpKind::kDense) {
    return Shape{1, 1, first.in_c};
  }
  return Shape{side, side, first.in_c};
}

Network build_from_descriptor(const NetworkDesc& desc,
                              const ZooBuildOptions& opt) {
  Network net;
  Shape cur = zoo_input_shape(desc, opt);
  std::shared_ptr<SkipState> open_skip;  // block currently being emitted

  const std::vector<LayerDesc>& layers = desc.layers;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerDesc& l = layers[i];
    const std::uint32_t seed = opt.seed + 37u * static_cast<std::uint32_t>(i);
    const bool last = i + 1 == layers.size();

    if (l.kind == OpKind::kConv2D && l.residual_proj) {
      // Downsample block: snapshot the input, project it on the skip
      // path, then fall through to the next descriptor entries for the
      // main path.
      if (open_skip != nullptr) {
        throw std::invalid_argument("zoo_build: nested residual blocks");
      }
      open_skip = std::make_shared<SkipState>();
      net.add<SkipSave>(open_skip);
      auto& proj =
          net.add<SkipProject>(open_skip, conv_spec(l, cur, opt.mode));
      proj.conv().initialize(seed);
      continue;  // main-path shape unchanged
    }

    if (l.kind == OpKind::kConv2D) {
      // Identity residual block: the conv before a residual closer opens
      // the block (a basic block is two convs).
      if (open_skip == nullptr && !l.residual && i + 1 < layers.size() &&
          layers[i + 1].kind == OpKind::kConv2D && layers[i + 1].residual) {
        open_skip = std::make_shared<SkipState>();
        net.add<SkipSave>(open_skip);
      }
      auto& conv = net.add<Conv2D>(conv_spec(l, cur, opt.mode));
      conv.initialize(seed);
      cur = conv.output_shape(cur);
      if (l.batch_norm) {
        auto& bn = net.add<BatchNorm>(BatchNormSpec{.channels = cur.c});
        bn.initialize(seed * 131u + 7u);
      }
      if (l.residual) {
        if (open_skip == nullptr) {
          throw std::invalid_argument(
              "zoo_build: residual closer without an open block (" +
              l.label + ")");
        }
        // Block closes before activation and pooling.
        net.add<SkipAdd>(open_skip);
        open_skip.reset();
      }
      // A fused pool directly follows its conv, where the computation-
      // skipping fusion consumes it (conv -> pool -> relu); any other
      // pool runs after the ReLU (ResNet ordering: add, relu, pool).
      const bool fused = l.fused_pool() > 1;
      if (!fused) {
        net.add<ReLU>();
      }
      const int pool = std::min({l.pool, cur.h, cur.w});
      if (pool > 1) {
        net.add<AvgPool2D>(pool);
        cur = Shape{cur.h / pool, cur.w / pool, cur.c};
      }
      if (fused) {
        net.add<ReLU>();
      }
      continue;
    }

    if (l.kind == OpKind::kDense) {
      // The first dense adapts its fan-in to the actual flattened volume
      // (side reduction shrinks it); later denses chain feature counts.
      DenseSpec spec;
      spec.in_features = cur.h * cur.w * cur.c;
      spec.out_features = l.out_c;
      spec.mode = opt.mode;
      auto& fc = net.add<Dense>(spec);
      fc.initialize(seed);
      cur = Shape{1, 1, l.out_c};
      if (!last) {
        net.add<ReLU>();
      }
      continue;
    }

    throw std::invalid_argument(
        "zoo_build: descriptor op '" + std::string(to_string(l.kind)) +
        "' has no layer lowering");
  }
  if (open_skip != nullptr) {
    throw std::invalid_argument("zoo_build: unclosed residual block");
  }
  return net;
}

}  // namespace acoustic::nn
