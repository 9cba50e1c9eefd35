// Stream-based (hardware-in-the-loop) training.
//
// The paper's section II-D speedup claim is measured against "stochastic
// stream-based CNN training": running the forward pass through the actual
// bit-level simulator so the loss sees every stochastic artifact
// (quantization, stream noise, OR saturation, skipping pooling). That is
// the gold standard for accuracy at short streams and brutally slow —
// which is exactly why Eq. (1) exists.
//
// This module implements it as straight-through-estimator fine-tuning:
//   forward:  logits = ScNetwork(net).forward(x)      (bit-exact)
//   backward: gradients through the float kOrApprox path, evaluated at the
//             same input (the STE surrogate for the non-differentiable
//             bitstream computation)
// Weights change only at SGD steps, so the executor is a fresh snapshot of
// the network after each step.
#pragma once

#include "sim/sc_config.hpp"
#include "train/trainer.hpp"

namespace acoustic::train {

/// Fine-tunes @p net with bit-level stochastic forward passes under
/// @p sc_cfg. The network's weighted layers should be in kOrApprox mode
/// (the backward surrogate). Orders of magnitude slower per epoch than
/// fit(); use few epochs on a pre-trained model.
TrainStats fit_stream_aware(nn::Network& net, const Dataset& data,
                            const TrainConfig& config,
                            const sim::ScConfig& sc_cfg);

}  // namespace acoustic::train
