// Per-channel batch normalization (inference form).
//
// y = gamma * (x - mean) / sqrt(var + eps) + beta, with mean/var as fixed
// buffers (the running statistics a framework would have collected) and
// gamma/beta trainable. This is the affine the end-to-end SC design
// literature folds away: following a conv, the scale multiplies into the
// conv's quantized weight levels at plan-build time and the shift is a
// binary-domain (counter) addition, so BN costs nothing in the stream
// pipeline. The fold helpers below expose exactly those two per-channel
// constants.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace acoustic::nn {

/// Configuration of a BatchNorm layer.
struct BatchNormSpec {
  int channels = 1;
  float epsilon = 1e-5f;
};

class BatchNorm final : public Layer {
 public:
  explicit BatchNorm(const BatchNormSpec& spec);

  Tensor forward(const Tensor& input) override;
  void infer(const Tensor& input, Tensor& out, Tensor* skip) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamView> parameters() override;
  void zero_gradients() override;
  [[nodiscard]] Kind kind() const noexcept override {
    return Kind::kBatchNorm;
  }
  [[nodiscard]] Shape output_shape(Shape input) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const BatchNormSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::span<float> gamma() noexcept { return gamma_; }
  [[nodiscard]] std::span<float> beta() noexcept { return beta_; }
  [[nodiscard]] std::span<float> mean() noexcept { return mean_; }
  [[nodiscard]] std::span<float> variance() noexcept { return var_; }

  /// Multiplicative fold constant for channel @p c:
  /// gamma / sqrt(var + eps) — the factor conv weights absorb.
  [[nodiscard]] float scale(int c) const noexcept;

  /// Additive fold constant for channel @p c:
  /// beta - mean * scale(c) — applied post-counter in the binary domain.
  [[nodiscard]] float shift(int c) const noexcept;

  /// Deterministic non-trivial statistics (gamma near 1, beta near 0,
  /// small positive means, variances near 1) so tests and the zoo builder
  /// exercise a real fold rather than the identity.
  void initialize(std::uint32_t seed);

 private:
  BatchNormSpec spec_;
  std::vector<float> gamma_;
  std::vector<float> beta_;
  // Empty until the first zero_gradients() or backward() (see Conv2D).
  std::vector<float> gamma_grads_;
  std::vector<float> beta_grads_;
  std::vector<float> mean_;
  std::vector<float> var_;
  Tensor input_;  ///< cached by forward() for backward()
};

}  // namespace acoustic::nn
