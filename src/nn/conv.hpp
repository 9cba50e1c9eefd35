// 2-D convolution with selectable accumulation semantics.
//
// Weight layout: [out_c][kh][kw][in_c / groups] (output-channel major),
// matching the ACOUSTIC mapping where each fabric row computes one output
// channel (kernel) and the three sub-rows cover the kernel rows. Grouped
// convolution (AlexNet's two-GPU split, depthwise as the in_c == groups
// limit) restricts each output channel to its group's input-channel
// slice; groups == 1 is the dense case.
//
// In kOrApprox / kOrExact modes this layer models the split-unipolar
// OR-accumulating MAC of the accelerator: products with positive weights
// accumulate in the positive phase and products with negative weights in
// the negative phase, each phase saturating independently (the counter then
// takes the difference). Inputs are expected in [0, 1] (post-ReLU
// activations), weights in [-1, 1]; kSum mode has no such restriction.
// forward() and backward() walk each output's receptive field once, with
// the mode's arithmetic chosen per call; nn::Dense computes as a 1x1
// Conv2D, so this is the one float MAC of every weighted layer.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace acoustic::nn {

/// Configuration of a Conv2D layer.
struct ConvSpec {
  int in_channels = 1;
  int out_channels = 1;
  int kernel = 3;      ///< square kernel side
  int stride = 1;
  int padding = 0;     ///< symmetric zero padding
  int groups = 1;      ///< grouped conv; must divide in_ and out_channels
  bool bias = false;   ///< kSum mode only; SC modes have no bias path
  AccumMode mode = AccumMode::kSum;
};

class Conv2D final : public Layer {
 public:
  explicit Conv2D(const ConvSpec& spec);

  Tensor forward(const Tensor& input) override;
  void infer(const Tensor& input, Tensor& out, Tensor* skip) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamView> parameters() override;
  void zero_gradients() override;
  [[nodiscard]] Kind kind() const noexcept override { return Kind::kConv2D; }
  [[nodiscard]] Shape output_shape(Shape input) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const ConvSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::span<float> weights() noexcept { return weights_; }
  [[nodiscard]] std::span<const float> weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] std::span<float> bias() noexcept { return bias_; }

  /// Switches accumulation mode (e.g. train with kOrApprox, evaluate the
  /// float reference with kSum). Weights are shared across modes.
  void set_mode(AccumMode mode) noexcept { spec_.mode = mode; }

  /// Kaiming-uniform initialization clipped to [-1, 1], seeded
  /// deterministically.
  void initialize(std::uint32_t seed);

  /// Flat weight index for (out_ch, ky, kx, in_ch). @p ic is the *global*
  /// input channel and must lie inside @p oc's group slice
  /// [group_base(oc), group_base(oc) + channels_per_group()).
  [[nodiscard]] std::size_t weight_index(int oc, int ky, int kx,
                                         int ic) const noexcept;

  /// Input channels each output channel reads (in_channels / groups).
  [[nodiscard]] int channels_per_group() const noexcept {
    return spec_.in_channels / spec_.groups;
  }

  /// First input channel of @p oc's group slice.
  [[nodiscard]] int group_base(int oc) const noexcept {
    return (oc / (spec_.out_channels / spec_.groups)) * channels_per_group();
  }

 private:
  /// infer()'s body; forward() also records each output's two sign-phase
  /// accumulators in @p pos and @p neg (the OR modes only).
  void compute(const Tensor& input, Tensor& out, Tensor* pos,
               Tensor* neg) const;

  ConvSpec spec_;
  std::vector<float> weights_;
  std::vector<float> bias_;
  // Empty until the first zero_gradients() or backward() sizes them, so a
  // copy that only infers (Network::clone) carries no gradient storage.
  std::vector<float> weight_grads_;
  std::vector<float> bias_grads_;

  // Caches from forward() for backward().
  Tensor input_;
  Tensor sum_pos_;   // s_p (OrApprox) or prod_pos = prod(1-term) (OrExact)
  Tensor sum_neg_;   // s_n (OrApprox) or prod_neg (OrExact)
};

}  // namespace acoustic::nn
