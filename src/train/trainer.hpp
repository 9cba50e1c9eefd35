// Training loop and evaluation helpers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "nn/network.hpp"
#include "train/dataset.hpp"
#include "train/sgd.hpp"

namespace acoustic::train {

struct TrainConfig {
  int epochs = 10;
  int batch_size = 8;             ///< gradients accumulate over a batch
  float learning_rate = 0.05f;
  float momentum = 0.9f;
  float weight_clip = 1.0f;
  float lr_decay = 1.0f;          ///< multiplied into lr after each epoch
  std::uint32_t shuffle_seed = 1;
  bool verbose = false;
};

struct TrainStats {
  std::vector<float> epoch_loss;      ///< mean per-sample loss per epoch
  std::vector<float> epoch_accuracy;  ///< training accuracy per epoch
};

/// Trains @p net on @p data with softmax cross-entropy. Throws
/// std::invalid_argument when @p data is empty and config.epochs > 0.
TrainStats fit(nn::Network& net, const Dataset& data,
               const TrainConfig& config);

/// The logits the loss of one training image sees, given the SGD steps
/// fit has taken so far (the weights change only when that count does).
/// It must leave the network's backward caches filled for that image: its
/// last forward of the network is the float forward of that image.
using LogitsFn =
    std::function<nn::Tensor(const nn::Tensor& image, std::size_t steps)>;

/// fit's loop (shuffle, batches, SGD steps, learning-rate decay) with the
/// loss taken on @p logits_of instead of the network's own forward; the
/// gradient still flows back through the network's float path.
TrainStats fit(nn::Network& net, const Dataset& data,
               const TrainConfig& config, const LogitsFn& logits_of);

/// Top-1 accuracy of @p net on @p data.
[[nodiscard]] float evaluate(nn::Network& net, const Dataset& data);

/// Top-1 accuracy with @p bits-bit fixed-point weights and activations:
/// weights are snapped to the signed grid for the duration of the call
/// (then restored) and every layer output is snapped to the same grid —
/// the Table II "8-bit Fixed Pt" baseline.
[[nodiscard]] float evaluate_quantized(nn::Network& net, const Dataset& data,
                                       int bits);

}  // namespace acoustic::train
