// Sequential network container.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "nn/layer.hpp"

namespace acoustic::nn {

/// A simple feed-forward stack of layers. Owns the layers; exposes typed
/// access so benches can reconfigure accumulation modes or extract weights
/// for the SC functional simulator.
class Network {
 public:
  Network() = default;

  /// Appends a layer, returning a reference to the constructed layer.
  template <typename L, typename... Args>
  L& add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  /// Runs all layers in order.
  [[nodiscard]] Tensor forward(const Tensor& input);

  /// Runs all layers, invoking @p hook on the activation tensor after each
  /// layer (hook may mutate it — used for quantized evaluation, where
  /// activations are snapped to the 8-bit grid between layers exactly as
  /// the accelerator's counters would).
  [[nodiscard]] Tensor forward_with_hook(
      const Tensor& input,
      const std::function<void(Tensor&, std::size_t)>& hook);

  /// Back-propagates from dLoss/dLogits; returns dLoss/dInput.
  Tensor backward(const Tensor& grad_logits);

  /// All trainable parameter views across layers.
  [[nodiscard]] std::vector<ParamView> parameters();

  /// Every float array a forward reads, in a fixed order: the values of
  /// parameters(), then each BatchNorm's running mean and variance in layer
  /// order (buffers, not parameters). What clone() copies and
  /// nn::save_parameters writes.
  [[nodiscard]] std::vector<std::span<float>> state();

  void zero_gradients();

  [[nodiscard]] std::size_t layer_count() const noexcept {
    return layers_.size();
  }
  [[nodiscard]] Layer& layer(std::size_t i) noexcept { return *layers_[i]; }
  [[nodiscard]] const Layer& layer(std::size_t i) const noexcept {
    return *layers_[i];
  }

  /// Total number of trainable scalars.
  [[nodiscard]] std::size_t parameter_count();

  /// Deep copy: rebuilds every layer with identical configuration (via
  /// Layer::kind() dispatch), copies every state() array, and re-pairs
  /// skip connections on fresh SkipState objects. The clone shares no
  /// mutable state with this network: the snapshot every
  /// sim::GraphExecutor takes.
  [[nodiscard]] Network clone();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace acoustic::nn
