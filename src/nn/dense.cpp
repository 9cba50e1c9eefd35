#include "nn/dense.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace acoustic::nn {

namespace {
const DenseSpec& validate(const DenseSpec& spec) {
  if (spec.in_features <= 0 || spec.out_features <= 0) {
    throw std::invalid_argument("Dense: invalid spec");
  }
  return spec;
}
}  // namespace

Dense::Dense(const DenseSpec& spec)
    : spec_(validate(spec)),
      conv_(ConvSpec{.in_channels = spec.in_features,
                     .out_channels = spec.out_features,
                     .kernel = 1,
                     .bias = spec.bias,
                     .mode = spec.mode}) {}

Shape Dense::output_shape(Shape input) const {
  if (input.size() != static_cast<std::size_t>(spec_.in_features)) {
    throw std::invalid_argument(
        name() + ": expects " + std::to_string(spec_.in_features) +
        " input features but receives " + std::to_string(input.size()) +
        " (" + std::to_string(input.h) + "x" + std::to_string(input.w) +
        "x" + std::to_string(input.c) + ")");
  }
  return Shape{1, 1, spec_.out_features};
}

std::string Dense::name() const {
  return "dense(" + std::to_string(spec_.in_features) + "->" +
         std::to_string(spec_.out_features) + ")";
}

Tensor Dense::flatten(const Tensor& input) const {
  (void)output_shape(input.shape());  // rejects a mismatched input
  Tensor flat = Tensor::vector(spec_.in_features);
  std::ranges::copy(input.data(), flat.data().begin());
  return flat;
}

Tensor Dense::forward(const Tensor& input) {
  input_shape_ = input.shape();
  return conv_.forward(flatten(input));
}

void Dense::infer(const Tensor& input, Tensor& out, Tensor*) const {
  conv_.infer(flatten(input), out, nullptr);
}

Tensor Dense::backward(const Tensor& grad_output) {
  Tensor grad_input(input_shape_);
  std::ranges::copy(conv_.backward(grad_output).data(),
                    grad_input.data().begin());
  return grad_input;
}

}  // namespace acoustic::nn
