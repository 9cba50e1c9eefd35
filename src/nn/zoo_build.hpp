// Builds runnable nn::Networks from the model-zoo shape descriptors.
//
// The zoo descriptors (nn/model_zoo.hpp) carry everything the builder
// needs: conv geometry, grouped-conv counts, pooling windows, residual
// block structure (residual / residual_proj) and batch-norm placement.
// This translates a descriptor into the layer vocabulary the functional
// simulators execute — Conv2D, Dense, AvgPool2D, BatchNorm, ReLU and the
// SkipSave / SkipProject / SkipAdd triple — so `acoustic eval` can run
// every zoo model end to end through the SC graph executor.
//
// Networks can be built at a reduced input side (ImageNet-sized models at
// 224x224 are far too large for the bit-level simulator): kernel and
// pooling windows clamp to the shrinking activation, and the first dense
// layer adapts its fan-in to the actual flattened volume. Weights are
// Kaiming-initialized from deterministic seeds — the zoo models are not
// trained, which is irrelevant for the executor's bit-determinism
// contract (planned == scalar, invariant across thread counts).
#pragma once

#include <cstdint>

#include "nn/model_zoo.hpp"
#include "nn/network.hpp"

namespace acoustic::nn {

struct ZooBuildOptions {
  /// Input side (square). 0 = the descriptor's native input size.
  int side = 0;
  /// Accumulation mode of every weighted layer.
  AccumMode mode = AccumMode::kOrExact;
  /// Base seed for the deterministic per-layer initialization.
  std::uint32_t seed = 2020;
};

/// Input shape the built network expects (side resolution applied).
/// Throws std::invalid_argument for an empty descriptor or a negative side.
[[nodiscard]] Shape zoo_input_shape(const NetworkDesc& desc,
                                    const ZooBuildOptions& opt = {});

/// Builds @p desc as a runnable network. Throws std::invalid_argument on
/// a negative side and on descriptors the layer vocabulary cannot express
/// (e.g. a residual closer with no block to close).
[[nodiscard]] Network build_from_descriptor(const NetworkDesc& desc,
                                            const ZooBuildOptions& opt = {});

}  // namespace acoustic::nn
