// Residual (skip) connections.
//
// ACOUSTIC supports residual connections (paper III-C: "Convolutions ...
// residual connections are all supported"): the skip activation is loaded
// into the output counters before the block's final conv accumulates on
// top (the CNTLD instruction of Table I), so the addition costs nothing.
//
// In this library a skip is a pair of layers sharing one SkipState:
//   auto state = std::make_shared<SkipState>();
//   net.add<SkipSave>(state);   // start of block: records its input
//   ... block layers ...
//   net.add<SkipAdd>(state);    // end of block: adds the recorded tensor
// forward()/backward() keep the recorded tensor and its gradient in the
// SkipState. infer() instead works on a skip tensor the caller owns (the
// graph walk of sim/op_graph.hpp keeps one per connection()), so
// concurrent executors of one network share nothing mutable. The save and
// add arithmetic is defined here once, for both.
#pragma once

#include <memory>

#include "nn/conv.hpp"
#include "nn/layer.hpp"

namespace acoustic::nn {

/// Training state of one skip connection.
struct SkipState {
  Tensor saved;      ///< activation recorded by SkipSave
  Tensor skip_grad;  ///< gradient flowing back through the skip path
  bool grad_valid = false;
};

/// What the three skip layers share: the connection's state, and the
/// identity on shapes.
class SkipLayer : public Layer {
 public:
  [[nodiscard]] Shape output_shape(Shape input) const override {
    return input;
  }

  /// Identity of this layer's skip connection (its SkipState).
  [[nodiscard]] const void* connection() const noexcept {
    return state_.get();
  }

 protected:
  /// Throws std::invalid_argument naming @p who for a null @p state.
  SkipLayer(std::shared_ptr<SkipState> state, const char* who);

  std::shared_ptr<SkipState> state_;
};

/// Identity layer that records its input for a later SkipAdd.
class SkipSave final : public SkipLayer {
 public:
  explicit SkipSave(std::shared_ptr<SkipState> state)
      : SkipLayer(std::move(state), "SkipSave") {}

  Tensor forward(const Tensor& input) override;
  /// Records @p input into @p skip; the main path passes through.
  void infer(const Tensor& input, Tensor& out, Tensor* skip) const override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] Kind kind() const noexcept override {
    return Kind::kSkipSave;
  }
  [[nodiscard]] std::string name() const override { return "skip-save"; }
};

/// Projection conv on the skip path: transforms the tensor the paired
/// SkipSave recorded (skip = proj(skip)) while passing its own input
/// through unchanged. ResNet downsample blocks use a 1x1 stride-2 conv
/// here so the skip tensor matches the block output shape at SkipAdd.
/// Sits between the SkipSave and the block's main-path layers, so forward
/// and backward order fall out of the ordinary linear walk.
class SkipProject final : public SkipLayer {
 public:
  SkipProject(std::shared_ptr<SkipState> state, const ConvSpec& spec)
      : SkipLayer(std::move(state), "SkipProject"), proj_(spec) {}

  Tensor forward(const Tensor& input) override;
  void infer(const Tensor& input, Tensor& out, Tensor* skip) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamView> parameters() override { return proj_.parameters(); }
  void zero_gradients() override { proj_.zero_gradients(); }
  [[nodiscard]] Kind kind() const noexcept override {
    return Kind::kSkipProject;
  }
  [[nodiscard]] std::string name() const override {
    return "skip-project(" + proj_.name() + ")";
  }

  [[nodiscard]] Conv2D& conv() noexcept { return proj_; }
  [[nodiscard]] const Conv2D& conv() const noexcept { return proj_; }

 private:
  Conv2D proj_;
};

/// Adds the tensor recorded by the paired SkipSave to its input
/// (counter-preload semantics: out = block(x) + x).
class SkipAdd final : public SkipLayer {
 public:
  explicit SkipAdd(std::shared_ptr<SkipState> state)
      : SkipLayer(std::move(state), "SkipAdd") {}

  Tensor forward(const Tensor& input) override;
  /// out = @p input + @p skip; throws std::invalid_argument when their
  /// shapes differ.
  void infer(const Tensor& input, Tensor& out, Tensor* skip) const override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] Kind kind() const noexcept override {
    return Kind::kSkipAdd;
  }
  [[nodiscard]] std::string name() const override { return "skip-add"; }
};

}  // namespace acoustic::nn
