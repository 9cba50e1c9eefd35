// Layer interface for the CNN substrate.
//
// Layers own their parameters and parameter gradients. infer() runs a
// layer for inference: const, it caches nothing, so one network serves any
// number of concurrent executors. forward() is the same arithmetic plus
// the caches backward() reads. The weighted layers (conv, dense) support
// three accumulation modes:
//
//   kSum      — conventional dot-product accumulation (the fixed-point /
//               float baseline arithmetic).
//   kOrApprox — ACOUSTIC training mode (paper section II-D, Eq. (1)): the
//               positive and negative partial sums are passed through
//               1 - e^{-s} separately, modelling split-unipolar OR
//               accumulation at ~10x the speed of the exact model.
//   kOrExact  — exact OR semantics: 1 - prod_i(1 - a_i * w_i) per sign
//               phase. Used to measure the approximation error and the
//               training-speed gap the paper reports.
#pragma once

#include <span>
#include <string>

#include "nn/op.hpp"
#include "nn/tensor.hpp"

namespace acoustic::nn {

/// How a weighted layer accumulates products. See file comment.
enum class AccumMode { kSum, kOrApprox, kOrExact };

/// A mutable view of one parameter array and its gradient, exposed to the
/// optimizer. `gradients` stays empty until the layer's first
/// zero_gradients() or backward() sizes it (a network that only infers,
/// such as a Network::clone, never does); from then on both spans have
/// equal length and outlive the optimizer step.
struct ParamView {
  std::span<float> values;
  std::span<float> gradients;
};

/// Base class for all layers. Forward must be called before backward;
/// backward accumulates parameter gradients (zeroed by zero_gradients()).
class Layer {
 public:
  /// Concrete layer type, for executors that dispatch on layer structure
  /// (graph lowering in the SC simulators, network cloning) without RTTI.
  /// An alias of the unified op taxonomy (nn/op.hpp) the zoo descriptors
  /// and the analyzers share.
  using Kind = OpKind;

  virtual ~Layer() = default;

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the layer output for @p input, caching activations needed by
  /// backward(). Same bits as infer().
  virtual Tensor forward(const Tensor& input) = 0;

  /// Writes the output for @p input into @p out (another tensor), reusing
  /// its capacity. A skip layer (nn/residual.hpp) also uses @p skip, its
  /// connection's tensor, which the caller owns; other layers ignore it.
  virtual void infer(const Tensor& input, Tensor& out, Tensor* skip) const = 0;

  /// Propagates @p grad_output (dLoss/dOutput) to dLoss/dInput, adding
  /// parameter gradients along the way.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Parameter/gradient views for the optimizer; empty for stateless layers.
  virtual std::vector<ParamView> parameters() { return {}; }

  /// Zeroes all parameter gradients.
  virtual void zero_gradients() {}

  /// This layer's concrete type.
  [[nodiscard]] virtual Kind kind() const noexcept = 0;

  /// Output shape for a given input shape (pure). Throws
  /// std::invalid_argument naming the layer when it cannot accept @p input
  /// (conv / batch norm: channel count, dense: feature count, conv: a
  /// kernel that does not fit).
  [[nodiscard]] virtual Shape output_shape(Shape input) const = 0;

  /// Human-readable layer name for reports.
  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  /// infer() into a fresh tensor: what forward() returns.
  [[nodiscard]] Tensor inferred(const Tensor& input, Tensor* skip) const {
    Tensor out;
    infer(input, out, skip);
    return out;
  }
};

}  // namespace acoustic::nn
