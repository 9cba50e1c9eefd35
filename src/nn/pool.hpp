// Pooling layers.
//
// ACOUSTIC prefers average pooling: in SC it is a MUX (scaled addition) or,
// with computation skipping, plain stream concatenation, whereas max pooling
// needs an FSM that is ~2x more expensive (paper section II-C). Both are
// provided so the "accuracy difference < 0.3%" observation can be
// reproduced. Window and stride are equal (non-overlapping pooling), which
// is what the skipping scheme requires.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace acoustic::nn {

/// Non-overlapping average pooling over @p window x @p window tiles.
class AvgPool2D final : public Layer {
 public:
  explicit AvgPool2D(int window);

  Tensor forward(const Tensor& input) override;
  void infer(const Tensor& input, Tensor& out, Tensor* skip) const override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] Kind kind() const noexcept override {
    return Kind::kAvgPool2D;
  }
  [[nodiscard]] Shape output_shape(Shape input) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] int window() const noexcept { return window_; }

 private:
  int window_;
  Shape input_shape_;
};

/// Non-overlapping max pooling over @p window x @p window tiles.
class MaxPool2D final : public Layer {
 public:
  explicit MaxPool2D(int window);

  Tensor forward(const Tensor& input) override;
  void infer(const Tensor& input, Tensor& out, Tensor* skip) const override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] Kind kind() const noexcept override {
    return Kind::kMaxPool2D;
  }
  [[nodiscard]] Shape output_shape(Shape input) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] int window() const noexcept { return window_; }

 private:
  int window_;
  Shape input_shape_;
  std::vector<std::size_t> argmax_;  // winning input index per output
};

}  // namespace acoustic::nn
