#include "nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "sc/rng.hpp"

namespace acoustic::nn {

BatchNorm::BatchNorm(const BatchNormSpec& spec)
    : spec_(spec),
      gamma_(static_cast<std::size_t>(spec.channels), 1.0f),
      beta_(static_cast<std::size_t>(spec.channels), 0.0f),
      mean_(gamma_.size(), 0.0f),
      var_(gamma_.size(), 1.0f) {
  if (spec.channels <= 0 || spec.epsilon <= 0.0f) {
    throw std::invalid_argument("BatchNorm: invalid spec");
  }
}

float BatchNorm::scale(int c) const noexcept {
  return gamma_[c] / std::sqrt(var_[c] + spec_.epsilon);
}

float BatchNorm::shift(int c) const noexcept {
  return beta_[c] - mean_[c] * scale(c);
}

std::string BatchNorm::name() const {
  return "batch-norm(" + std::to_string(spec_.channels) + ")";
}

void BatchNorm::initialize(std::uint32_t seed) {
  sc::XorShift32 rng(seed);
  for (std::size_t c = 0; c < gamma_.size(); ++c) {
    gamma_[c] = 0.8f + 0.4f * static_cast<float>(rng.next_double());
    beta_[c] = 0.1f * (static_cast<float>(rng.next_double()) * 2.0f - 1.0f);
    mean_[c] = 0.2f * static_cast<float>(rng.next_double());
    var_[c] = 0.8f + 0.4f * static_cast<float>(rng.next_double());
  }
}

std::vector<ParamView> BatchNorm::parameters() {
  return {ParamView{gamma_, gamma_grads_}, ParamView{beta_, beta_grads_}};
}

void BatchNorm::zero_gradients() {
  gamma_grads_.assign(gamma_.size(), 0.0f);
  beta_grads_.assign(beta_.size(), 0.0f);
}

Shape BatchNorm::output_shape(Shape input) const {
  if (input.c != spec_.channels) {
    throw std::invalid_argument(
        name() + ": expects " + std::to_string(spec_.channels) +
        " channels but receives " + std::to_string(input.c));
  }
  return input;
}

Tensor BatchNorm::forward(const Tensor& input) {
  input_ = input;
  return inferred(input, nullptr);
}

void BatchNorm::infer(const Tensor& input, Tensor& out, Tensor*) const {
  const Shape s = output_shape(input.shape());
  out.resize(s);
  for (int c = 0; c < s.c; ++c) {
    const float a = scale(c);
    const float b = shift(c);
    for (int y = 0; y < s.h; ++y) {
      for (int xx = 0; xx < s.w; ++xx) {
        out.at(y, xx, c) = a * input.at(y, xx, c) + b;
      }
    }
  }
}

Tensor BatchNorm::backward(const Tensor& grad_output) {
  // Inference-form BN: mean/var are constants, so dx = g * scale and the
  // parameter gradients are dgamma = sum g * xhat, dbeta = sum g.
  const Shape s = grad_output.shape();
  Tensor grad_input(s);
  gamma_grads_.resize(gamma_.size());  // zero-filled on first use
  beta_grads_.resize(beta_.size());
  for (int c = 0; c < s.c; ++c) {
    const float sigma_inv = 1.0f / std::sqrt(var_[c] + spec_.epsilon);
    const float a = gamma_[c] * sigma_inv;
    for (int y = 0; y < s.h; ++y) {
      for (int x = 0; x < s.w; ++x) {
        const float g = grad_output.at(y, x, c);
        const float xhat = (input_.at(y, x, c) - mean_[c]) * sigma_inv;
        gamma_grads_[c] += g * xhat;
        beta_grads_[c] += g;
        grad_input.at(y, x, c) = g * a;
      }
    }
  }
  return grad_input;
}

}  // namespace acoustic::nn
