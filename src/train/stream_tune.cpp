#include "train/stream_tune.hpp"

#include "sim/sc_network.hpp"

namespace acoustic::train {

TrainStats fit_stream_aware(nn::Network& net, const Dataset& data,
                            const TrainConfig& config,
                            const sim::ScConfig& sc_cfg) {
  sim::ScNetwork executor(net, sc_cfg);
  return fit(net, data, config, [&](const nn::Tensor& image) {
    // Bit-exact forward: this is what the hardware would produce.
    nn::Tensor sc_logits = executor.forward(image);
    // Straight-through: populate the float path's caches, which the loop
    // then pushes the stochastic-forward loss gradient through.
    (void)net.forward(image);
    return sc_logits;
  });
}

}  // namespace acoustic::train
