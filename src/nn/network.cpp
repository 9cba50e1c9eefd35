#include "nn/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"

namespace acoustic::nn {

Tensor Network::forward(const Tensor& input) {
  Tensor x = input;
  for (auto& layer : layers_) {
    x = layer->forward(x);
  }
  return x;
}

Tensor Network::forward_with_hook(
    const Tensor& input,
    const std::function<void(Tensor&, std::size_t)>& hook) {
  Tensor x = input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    x = layers_[i]->forward(x);
    hook(x, i);
  }
  return x;
}

Tensor Network::backward(const Tensor& grad_logits) {
  Tensor g = grad_logits;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<ParamView> Network::parameters() {
  std::vector<ParamView> out;
  for (auto& layer : layers_) {
    for (ParamView& p : layer->parameters()) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<std::span<float>> Network::state() {
  std::vector<std::span<float>> out;
  for (ParamView& p : parameters()) {
    out.push_back(p.values);
  }
  for (auto& layer : layers_) {
    if (layer->kind() == Layer::Kind::kBatchNorm) {
      auto& bn = static_cast<BatchNorm&>(*layer);
      out.push_back(bn.mean());
      out.push_back(bn.variance());
    }
  }
  return out;
}

void Network::zero_gradients() {
  for (auto& layer : layers_) {
    layer->zero_gradients();
  }
}

std::size_t Network::parameter_count() {
  std::size_t total = 0;
  for (ParamView& p : parameters()) {
    total += p.values.size();
  }
  return total;
}

Network Network::clone() {
  Network copy;
  // Skip pairs in the clone must share a *new* state object, mirroring the
  // original pairing.
  std::unordered_map<const void*, std::shared_ptr<SkipState>> skip_states;
  const auto cloned_state = [&](const Layer& skip) {
    auto& mapped =
        skip_states[static_cast<const SkipLayer&>(skip).connection()];
    if (mapped == nullptr) {
      mapped = std::make_shared<SkipState>();
    }
    return mapped;
  };
  for (auto& layer : layers_) {
    switch (layer->kind()) {
      case Layer::Kind::kConv2D:
        copy.add<Conv2D>(static_cast<const Conv2D&>(*layer).spec());
        break;
      case Layer::Kind::kDense:
        copy.add<Dense>(static_cast<const Dense&>(*layer).spec());
        break;
      case Layer::Kind::kAvgPool2D:
        copy.add<AvgPool2D>(static_cast<const AvgPool2D&>(*layer).window());
        break;
      case Layer::Kind::kMaxPool2D:
        copy.add<MaxPool2D>(static_cast<const MaxPool2D&>(*layer).window());
        break;
      case Layer::Kind::kReLU:
        copy.add<ReLU>();
        break;
      case Layer::Kind::kOrSaturation:
        copy.add<OrSaturation>();
        break;
      case Layer::Kind::kSkipSave:
        copy.add<SkipSave>(cloned_state(*layer));
        break;
      case Layer::Kind::kSkipAdd:
        copy.add<SkipAdd>(cloned_state(*layer));
        break;
      case Layer::Kind::kSkipProject:
        copy.add<SkipProject>(
            cloned_state(*layer),
            static_cast<const SkipProject&>(*layer).conv().spec());
        break;
      case Layer::Kind::kBatchNorm:
        copy.add<BatchNorm>(static_cast<const BatchNorm&>(*layer).spec());
        break;
    }
  }
  const std::vector<std::span<float>> src = state();
  const std::vector<std::span<float>> dst = copy.state();
  if (src.size() != dst.size()) {
    throw std::logic_error("Network::clone: state array mismatch");
  }
  for (std::size_t a = 0; a < src.size(); ++a) {
    std::copy(src[a].begin(), src[a].end(), dst[a].begin());
  }
  return copy;
}

}  // namespace acoustic::nn
