#include "train/trainer.hpp"

#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "nn/quantize.hpp"
#include "sc/rng.hpp"
#include "train/loss.hpp"

namespace acoustic::train {

TrainStats fit(nn::Network& net, const Dataset& data,
               const TrainConfig& config) {
  return fit(net, data, config,
             [&net](const nn::Tensor& image, std::size_t /*steps*/) {
               return net.forward(image);
             });
}

TrainStats fit(nn::Network& net, const Dataset& data,
               const TrainConfig& config, const LogitsFn& logits_of) {
  if (data.size() == 0 && config.epochs > 0) {
    throw std::invalid_argument("fit: the training set is empty");
  }
  TrainStats stats;
  Sgd sgd(SgdConfig{config.learning_rate, config.momentum,
                    config.weight_clip});
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  sc::XorShift32 rng(config.shuffle_seed);
  std::size_t steps = 0;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    // Fisher-Yates shuffle with the deterministic session RNG.
    for (std::size_t i = order.size(); i > 1; --i) {
      const std::size_t j = rng.next() % i;
      std::swap(order[i - 1], order[j]);
    }
    double loss_sum = 0.0;
    std::size_t correct = 0;
    int in_batch = 0;
    net.zero_gradients();
    for (std::size_t idx : order) {
      const Sample& sample = data.samples[idx];
      const nn::Tensor logits = logits_of(sample.image, steps);
      if (static_cast<int>(logits.argmax()) == sample.label) {
        ++correct;
      }
      const LossResult loss = softmax_cross_entropy(logits, sample.label);
      loss_sum += loss.loss;
      (void)net.backward(loss.grad);
      if (++in_batch == config.batch_size) {
        auto params = net.parameters();
        sgd.step(params);
        ++steps;
        net.zero_gradients();
        in_batch = 0;
      }
    }
    if (in_batch > 0) {
      auto params = net.parameters();
      sgd.step(params);
      ++steps;
      net.zero_gradients();
    }
    stats.epoch_loss.push_back(
        static_cast<float>(loss_sum / static_cast<double>(data.size())));
    stats.epoch_accuracy.push_back(static_cast<float>(correct) /
                                   static_cast<float>(data.size()));
    sgd.set_learning_rate(sgd.config().learning_rate * config.lr_decay);
    if (config.verbose) {
      std::printf("epoch %2d  loss %.4f  acc %.2f%%\n", epoch + 1,
                  stats.epoch_loss.back(),
                  100.0f * stats.epoch_accuracy.back());
    }
  }
  return stats;
}

float evaluate(nn::Network& net, const Dataset& data) {
  if (data.size() == 0) {
    return 0.0f;
  }
  std::size_t correct = 0;
  for (const Sample& sample : data.samples) {
    const nn::Tensor logits = net.forward(sample.image);
    if (static_cast<int>(logits.argmax()) == sample.label) {
      ++correct;
    }
  }
  return static_cast<float>(correct) / static_cast<float>(data.size());
}

float evaluate_quantized(nn::Network& net, const Dataset& data, int bits) {
  if (data.size() == 0) {
    return 0.0f;
  }
  // Snapshot and quantize all weights.
  auto params = net.parameters();
  std::vector<std::vector<float>> saved;
  saved.reserve(params.size());
  for (nn::ParamView& p : params) {
    saved.emplace_back(p.values.begin(), p.values.end());
    (void)nn::fake_quantize(p.values, bits);
  }
  std::size_t correct = 0;
  for (const Sample& sample : data.samples) {
    const nn::Tensor logits = net.forward_with_hook(
        sample.image, [bits](nn::Tensor& t, std::size_t) {
          (void)nn::fake_quantize(t.data(), bits);
        });
    if (static_cast<int>(logits.argmax()) == sample.label) {
      ++correct;
    }
  }
  // Restore float weights.
  for (std::size_t p = 0; p < params.size(); ++p) {
    std::copy(saved[p].begin(), saved[p].end(), params[p].values.begin());
  }
  return static_cast<float>(correct) / static_cast<float>(data.size());
}

}  // namespace acoustic::train
