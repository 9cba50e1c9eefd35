// Activation layers.
//
// ReLU is the only activation ACOUSTIC implements in hardware: in the
// binary domain after the activation counters it is a bitwise AND of the
// inverted sign with the magnitude (paper section II-A), which keeps every
// layer input non-negative — the property that lets activations use a
// single unipolar stream.
//
// OrSaturation is the standalone form of the paper's Eq. (1) training
// activation, 1 - e^{-s}, for use after a kSum layer when modelling OR
// accumulation as a separate activation function (the formulation the paper
// describes: "adding an activation function after normal network layer").
// Note the Conv2D/Dense kOrApprox mode is the sign-aware version of the
// same idea and is what the trainer uses by default.
#pragma once

#include "nn/layer.hpp"

namespace acoustic::nn {

/// Elementwise max(x, 0).
class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  void infer(const Tensor& input, Tensor& out, Tensor* skip) const override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] Kind kind() const noexcept override { return Kind::kReLU; }
  [[nodiscard]] Shape output_shape(Shape input) const override {
    return input;
  }
  [[nodiscard]] std::string name() const override { return "relu"; }

 private:
  Tensor input_;
};

/// Elementwise sign-preserving OR saturation: f(s) = sign(s)(1 - e^{-|s|}).
class OrSaturation final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  void infer(const Tensor& input, Tensor& out, Tensor* skip) const override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] Kind kind() const noexcept override {
    return Kind::kOrSaturation;
  }
  [[nodiscard]] Shape output_shape(Shape input) const override {
    return input;
  }
  [[nodiscard]] std::string name() const override { return "or-saturation"; }

 private:
  Tensor input_;
};

}  // namespace acoustic::nn
