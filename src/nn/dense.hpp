// Fully-connected layer with selectable accumulation semantics.
//
// ACOUSTIC executes FC layers by spreading one kernel across 6 fabric rows
// (512 inputs of individual weights, paper section III-B); arithmetically
// that is the same split-unipolar OR-accumulating MAC as a convolution, so
// a Dense layer is a 1x1 Conv2D over its input viewed as 1x1xN: weight
// (o, i) is the conv's (output channel o, input channel i). conv() is the
// one definition of that view. This layer computes through it, and the
// bipolar and SC executors run a dense node as that conv. Input tensors of
// any shape are treated as flat vectors.
#pragma once

#include <vector>

#include "nn/conv.hpp"
#include "nn/layer.hpp"

namespace acoustic::nn {

struct DenseSpec {
  int in_features = 1;
  int out_features = 1;
  bool bias = false;  ///< kSum mode only
  AccumMode mode = AccumMode::kSum;
};

class Dense final : public Layer {
 public:
  explicit Dense(const DenseSpec& spec);

  Tensor forward(const Tensor& input) override;
  void infer(const Tensor& input, Tensor& out, Tensor* skip) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamView> parameters() override { return conv_.parameters(); }
  void zero_gradients() override { conv_.zero_gradients(); }
  [[nodiscard]] Kind kind() const noexcept override { return Kind::kDense; }
  [[nodiscard]] Shape output_shape(Shape input) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const DenseSpec& spec() const noexcept { return spec_; }
  /// The 1x1 conv this layer computes as: in_features input channels,
  /// out_features output channels, this layer's bias and mode.
  [[nodiscard]] Conv2D& conv() noexcept { return conv_; }
  [[nodiscard]] const Conv2D& conv() const noexcept { return conv_; }
  [[nodiscard]] std::span<float> weights() noexcept { return conv_.weights(); }
  [[nodiscard]] std::span<const float> weights() const noexcept {
    return conv_.weights();
  }
  void set_mode(AccumMode mode) noexcept {
    spec_.mode = mode;
    conv_.set_mode(mode);
  }
  /// The conv's Kaiming-uniform initialization: fan-in 1 * 1 * N.
  void initialize(std::uint32_t seed) { conv_.initialize(seed); }

  /// Flat index of weight (out_feature o, in_feature i).
  [[nodiscard]] std::size_t weight_index(int o, int i) const noexcept {
    return static_cast<std::size_t>(o) * spec_.in_features +
           static_cast<std::size_t>(i);
  }

 private:
  /// @p input as the conv's 1x1xN input (rejects a wrong feature count).
  [[nodiscard]] Tensor flatten(const Tensor& input) const;

  DenseSpec spec_;
  Conv2D conv_;
  Shape input_shape_;  // forward's input: the shape backward returns
};

}  // namespace acoustic::nn
