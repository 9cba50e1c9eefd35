#include "train/stream_tune.hpp"

#include <memory>

#include "sim/backend.hpp"

namespace acoustic::train {

TrainStats fit_stream_aware(nn::Network& net, const Dataset& data,
                            const TrainConfig& config,
                            const sim::ScConfig& sc_cfg) {
  // An SGD step is the only writer of the weights between forwards, so
  // one snapshot serves every image until the next step.
  std::unique_ptr<sim::InferenceBackend> executor;
  std::size_t snapshot_steps = 0;
  return fit(net, data, config, [&](const nn::Tensor& image,
                                    std::size_t steps) {
    if (executor == nullptr || steps != snapshot_steps) {
      executor = sim::make_sc_backend(net, sc_cfg);
      snapshot_steps = steps;
    }
    // Bit-exact forward: this is what the hardware would produce.
    nn::Tensor sc_logits = executor->forward(image);
    // Straight-through: populate the float path's caches, which the loop
    // then pushes the stochastic-forward loss gradient through.
    (void)net.forward(image);
    return sc_logits;
  });
}

}  // namespace acoustic::train
