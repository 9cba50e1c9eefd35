// SGD optimizer with momentum and weight clipping.
//
// SC representations carry magnitudes <= 1, so weights are clipped to
// [-1, 1] after every step (ACOUSTIC trains networks whose weights are
// directly encodable as split-unipolar streams).
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace acoustic::train {

struct SgdConfig {
  float learning_rate = 0.05f;
  float momentum = 0.9f;
  float weight_clip = 1.0f;  ///< absolute clip bound; 0 disables clipping
};

class Sgd {
 public:
  explicit Sgd(SgdConfig config) : config_(config) {}

  /// One update step over @p params (velocity buffers are keyed by position,
  /// so pass the same parameter list every step). Throws
  /// std::invalid_argument for a parameter whose gradient span is not as
  /// long as its values (a layer that has run no zero_gradients() or
  /// backward() yet).
  void step(std::vector<nn::ParamView>& params);

  [[nodiscard]] const SgdConfig& config() const noexcept { return config_; }
  void set_learning_rate(float lr) noexcept { config_.learning_rate = lr; }

 private:
  SgdConfig config_;
  std::vector<std::vector<float>> velocity_;
};

}  // namespace acoustic::train
