// Workload descriptors for the networks in the paper's evaluation
// (Tables II-IV): LeNet-5, the small CIFAR-10/SVHN CNNs, AlexNet, VGG-16
// and ResNet-18.
//
// These are *shape* descriptors — layer dimensions, MAC counts, weight and
// activation footprints — which is everything the performance and energy
// simulators need (the paper's performance simulator likewise "models
// execution time and data movement without simulating the actual
// computation"). The trainable small networks used for the accuracy
// experiments are built separately in train/models.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/op.hpp"

namespace acoustic::nn {

/// One weighted layer plus its (optional) fused pooling stage. The kind
/// is the unified op taxonomy (nn/op.hpp) — descriptors only use the
/// weighted kinds (kConv2D / kDense); structural ops (pooling, skip
/// save/add, batch-norm) are encoded as layer attributes below, mirroring
/// how the accelerator fuses them into the weighted stages.
struct LayerDesc {
  OpKind kind = OpKind::kConv2D;
  std::string label;

  // Input activation volume.
  int in_h = 1;
  int in_w = 1;
  int in_c = 1;

  // Convolution geometry (kind == kConv).
  int kernel = 1;
  int stride = 1;
  int padding = 0;
  int out_c = 1;   ///< output channels (conv) or output features (dense)
  int groups = 1;  ///< grouped convolution (AlexNet conv2/4/5 use 2)

  /// Layer output receives a residual (skip) addition. On ACOUSTIC the
  /// skip activations preload the output counters (CNTLD, Table I), so
  /// the add is free in the MAC fabric (III-C). The skip source is the
  /// input of the block opener: the conv immediately preceding this
  /// layer's main path (a basic block is two convs), transformed by a
  /// residual_proj conv when one directly precedes the block.
  bool residual = false;

  /// This conv is the projection (downsample) on a skip path: it
  /// transforms the saved skip tensor of the block opened by the next
  /// conv in the list, not the main activation path.
  bool residual_proj = false;

  /// Batch normalization follows this conv. At SC plan-build time the
  /// scale folds into the quantized weight levels and the shift is
  /// applied in the binary (counter) domain, so BN costs nothing in the
  /// stream pipeline.
  bool batch_norm = false;

  // Average-pooling window applied to this layer's output (0/1 = none).
  // Non-overlapping window == stride, which is what computation skipping
  // supports.
  int pool = 0;

  /// The pooling window computation skipping fuses into this conv's
  /// stream, 1 for none. A pool fuses only where it directly follows its
  /// conv: a residual closer pools after the skip add and the ReLU, and a
  /// skip projection has no pool. build_from_descriptor places a layer's
  /// pool by it, and `acoustic check` runs its stream rules on it.
  [[nodiscard]] int fused_pool() const noexcept;

  /// Output spatial dims before pooling.
  [[nodiscard]] int out_h() const noexcept;
  [[nodiscard]] int out_w() const noexcept;

  /// Output spatial dims after pooling.
  [[nodiscard]] int pooled_h() const noexcept;
  [[nodiscard]] int pooled_w() const noexcept;

  /// Input channels each output channel actually reads (in_c / groups).
  [[nodiscard]] int channels_per_group() const noexcept;

  /// Multiply-accumulates to compute the layer once (no pooling skip).
  [[nodiscard]] std::uint64_t macs() const noexcept;

  /// Trainable weight count.
  [[nodiscard]] std::uint64_t weight_count() const noexcept;

  /// Input / output (post-pool) activation element counts.
  [[nodiscard]] std::uint64_t input_elems() const noexcept;
  [[nodiscard]] std::uint64_t output_elems() const noexcept;
};

/// A whole network workload.
struct NetworkDesc {
  std::string name;
  std::vector<LayerDesc> layers;

  [[nodiscard]] std::uint64_t total_macs() const noexcept;
  [[nodiscard]] std::uint64_t conv_macs() const noexcept;
  [[nodiscard]] std::uint64_t fc_macs() const noexcept;
  [[nodiscard]] std::uint64_t total_weights() const noexcept;
  [[nodiscard]] std::uint64_t max_layer_activation_elems() const noexcept;

  /// Copy containing only the convolutional (and pooling) layers — used for
  /// the Table IV conv-only comparison.
  [[nodiscard]] NetworkDesc conv_only() const;
};

/// LeNet-5 on 28x28x1 (MNIST): 2 conv + 3 FC, avg-pool 2x2.
[[nodiscard]] NetworkDesc lenet5();

/// Small CIFAR-10 CNN (SC-DCNN-style): 3 conv 5x5 + 1 FC, avg-pool 2x2.
[[nodiscard]] NetworkDesc cifar10_cnn();

/// Small SVHN CNN: same topology as the CIFAR-10 CNN (32x32x3 input).
[[nodiscard]] NetworkDesc svhn_cnn();

/// AlexNet on 227x227x3 (ImageNet).
[[nodiscard]] NetworkDesc alexnet();

/// VGG-16 on 224x224x3 (ImageNet).
[[nodiscard]] NetworkDesc vgg16();

/// ResNet-18 on 224x224x3 (ImageNet); residual adds are folded into the
/// conv descriptors (they are free on ACOUSTIC's counters).
[[nodiscard]] NetworkDesc resnet18();

/// All Table III workloads in paper order.
[[nodiscard]] std::vector<NetworkDesc> table3_workloads();

}  // namespace acoustic::nn
