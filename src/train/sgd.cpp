#include "train/sgd.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace acoustic::train {

void Sgd::step(std::vector<nn::ParamView>& params) {
  if (velocity_.empty()) {
    velocity_.resize(params.size());
    for (std::size_t p = 0; p < params.size(); ++p) {
      velocity_[p].assign(params[p].values.size(), 0.0f);
    }
  }
  if (velocity_.size() != params.size()) {
    throw std::invalid_argument("Sgd::step: parameter list changed size");
  }
  for (std::size_t p = 0; p < params.size(); ++p) {
    auto values = params[p].values;
    auto grads = params[p].gradients;
    if (grads.size() != values.size()) {
      throw std::invalid_argument(
          "Sgd::step: parameter " + std::to_string(p) +
          " has no gradients (run zero_gradients() or backward() first)");
    }
    auto& vel = velocity_[p];
    for (std::size_t i = 0; i < values.size(); ++i) {
      vel[i] = config_.momentum * vel[i] - config_.learning_rate * grads[i];
      values[i] += vel[i];
      if (config_.weight_clip > 0.0f) {
        values[i] =
            std::clamp(values[i], -config_.weight_clip, config_.weight_clip);
      }
    }
  }
}

}  // namespace acoustic::train
