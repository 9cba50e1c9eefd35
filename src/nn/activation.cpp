#include "nn/activation.hpp"

#include <cmath>

namespace acoustic::nn {

Tensor ReLU::forward(const Tensor& input) {
  input_ = input;
  return inferred(input, nullptr);
}

void ReLU::infer(const Tensor& input, Tensor& out, Tensor*) const {
  out.resize(input.shape());
  for (std::size_t i = 0; i < input.size(); ++i) {
    out[i] = input[i] > 0.0f ? input[i] : 0.0f;
  }
}

Tensor ReLU::backward(const Tensor& grad_output) {
  Tensor grad_input(input_.shape());
  for (std::size_t i = 0; i < input_.size(); ++i) {
    grad_input[i] = input_[i] > 0.0f ? grad_output[i] : 0.0f;
  }
  return grad_input;
}

Tensor OrSaturation::forward(const Tensor& input) {
  input_ = input;
  return inferred(input, nullptr);
}

void OrSaturation::infer(const Tensor& input, Tensor& out, Tensor*) const {
  out.resize(input.shape());
  for (std::size_t i = 0; i < input.size(); ++i) {
    const float s = input[i];
    const float mag = 1.0f - std::exp(-std::fabs(s));
    out[i] = s >= 0.0f ? mag : -mag;
  }
}

Tensor OrSaturation::backward(const Tensor& grad_output) {
  Tensor grad_input(input_.shape());
  for (std::size_t i = 0; i < input_.size(); ++i) {
    // d/ds sign(s)(1-e^{-|s|}) = e^{-|s|} for all s != 0 (and 1 at 0).
    grad_input[i] = grad_output[i] * std::exp(-std::fabs(input_[i]));
  }
  return grad_input;
}

}  // namespace acoustic::nn
