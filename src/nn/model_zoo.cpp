#include "nn/model_zoo.hpp"

#include <algorithm>

namespace acoustic::nn {

int LayerDesc::fused_pool() const noexcept {
  return kind == OpKind::kConv2D && !residual && !residual_proj && pool > 1
             ? pool
             : 1;
}

int LayerDesc::out_h() const noexcept {
  if (kind == OpKind::kDense) {
    return 1;
  }
  return (in_h + 2 * padding - kernel) / stride + 1;
}

int LayerDesc::out_w() const noexcept {
  if (kind == OpKind::kDense) {
    return 1;
  }
  return (in_w + 2 * padding - kernel) / stride + 1;
}

int LayerDesc::pooled_h() const noexcept {
  return pool > 1 ? out_h() / pool : out_h();
}

int LayerDesc::pooled_w() const noexcept {
  return pool > 1 ? out_w() / pool : out_w();
}

int LayerDesc::channels_per_group() const noexcept {
  return groups > 1 ? in_c / groups : in_c;
}

std::uint64_t LayerDesc::macs() const noexcept {
  if (kind == OpKind::kDense) {
    return static_cast<std::uint64_t>(in_c) * out_c;
  }
  return static_cast<std::uint64_t>(out_h()) * out_w() * out_c * kernel *
         kernel * channels_per_group();
}

std::uint64_t LayerDesc::weight_count() const noexcept {
  if (kind == OpKind::kDense) {
    return static_cast<std::uint64_t>(in_c) * out_c;
  }
  return static_cast<std::uint64_t>(out_c) * kernel * kernel *
         channels_per_group();
}

std::uint64_t LayerDesc::input_elems() const noexcept {
  return static_cast<std::uint64_t>(in_h) * in_w * in_c;
}

std::uint64_t LayerDesc::output_elems() const noexcept {
  return static_cast<std::uint64_t>(pooled_h()) * pooled_w() * out_c;
}

std::uint64_t NetworkDesc::total_macs() const noexcept {
  std::uint64_t total = 0;
  for (const LayerDesc& l : layers) {
    total += l.macs();
  }
  return total;
}

std::uint64_t NetworkDesc::conv_macs() const noexcept {
  std::uint64_t total = 0;
  for (const LayerDesc& l : layers) {
    if (l.kind == OpKind::kConv2D) {
      total += l.macs();
    }
  }
  return total;
}

std::uint64_t NetworkDesc::fc_macs() const noexcept {
  return total_macs() - conv_macs();
}

std::uint64_t NetworkDesc::total_weights() const noexcept {
  std::uint64_t total = 0;
  for (const LayerDesc& l : layers) {
    total += l.weight_count();
  }
  return total;
}

std::uint64_t NetworkDesc::max_layer_activation_elems() const noexcept {
  std::uint64_t m = 0;
  for (const LayerDesc& l : layers) {
    m = std::max(m, std::max(l.input_elems(), l.output_elems()));
  }
  return m;
}

NetworkDesc NetworkDesc::conv_only() const {
  NetworkDesc out;
  out.name = name + "-conv";
  for (const LayerDesc& l : layers) {
    if (l.kind == OpKind::kConv2D) {
      out.layers.push_back(l);
    }
  }
  return out;
}

namespace {

LayerDesc conv(std::string label, int in_h, int in_w, int in_c, int kernel,
               int out_c, int stride = 1, int padding = 0, int pool = 0) {
  LayerDesc l;
  l.kind = OpKind::kConv2D;
  l.label = std::move(label);
  l.in_h = in_h;
  l.in_w = in_w;
  l.in_c = in_c;
  l.kernel = kernel;
  l.out_c = out_c;
  l.stride = stride;
  l.padding = padding;
  l.pool = pool;
  return l;
}

LayerDesc dense(std::string label, int in_features, int out_features) {
  LayerDesc l;
  l.kind = OpKind::kDense;
  l.label = std::move(label);
  l.in_c = in_features;
  l.out_c = out_features;
  return l;
}

}  // namespace

NetworkDesc lenet5() {
  NetworkDesc net;
  net.name = "LeNet-5";
  net.layers = {
      conv("conv1", 28, 28, 1, 5, 6, 1, 2, 2),    // 28x28x6 -> pool 14x14
      conv("conv2", 14, 14, 6, 5, 16, 1, 0, 2),   // 10x10x16 -> pool 5x5
      dense("fc3", 5 * 5 * 16, 120),
      dense("fc4", 120, 84),
      dense("fc5", 84, 10),
  };
  return net;
}

NetworkDesc cifar10_cnn() {
  NetworkDesc net;
  net.name = "CIFAR-10 CNN";
  net.layers = {
      conv("conv1", 32, 32, 3, 5, 32, 1, 2, 2),   // 32x32x32 -> 16x16
      conv("conv2", 16, 16, 32, 5, 32, 1, 2, 2),  // 16x16x32 -> 8x8
      conv("conv3", 8, 8, 32, 5, 64, 1, 2, 2),    // 8x8x64   -> 4x4
      dense("fc4", 4 * 4 * 64, 10),
  };
  return net;
}

NetworkDesc svhn_cnn() {
  NetworkDesc net = cifar10_cnn();
  net.name = "SVHN CNN";
  return net;
}

NetworkDesc alexnet() {
  NetworkDesc net;
  net.name = "AlexNet";
  net.layers = {
      conv("conv1", 227, 227, 3, 11, 96, 4, 0, 2),   // 55x55x96 -> 27x27
      conv("conv2", 27, 27, 96, 5, 256, 1, 2, 2),    // 27x27x256 -> 13x13
      conv("conv3", 13, 13, 256, 3, 384, 1, 1, 0),
      conv("conv4", 13, 13, 384, 3, 384, 1, 1, 0),
      conv("conv5", 13, 13, 384, 3, 256, 1, 1, 2),   // 13x13x256 -> 6x6
      dense("fc6", 6 * 6 * 256, 4096),
      dense("fc7", 4096, 4096),
      dense("fc8", 4096, 1000),
  };
  // Original AlexNet splits conv2/4/5 across two GPUs (grouped conv),
  // giving the canonical ~724 M MAC count the paper's baselines use.
  net.layers[1].groups = 2;
  net.layers[3].groups = 2;
  net.layers[4].groups = 2;
  return net;
}

NetworkDesc vgg16() {
  NetworkDesc net;
  net.name = "VGG-16";
  net.layers = {
      conv("conv1_1", 224, 224, 3, 3, 64, 1, 1, 0),
      conv("conv1_2", 224, 224, 64, 3, 64, 1, 1, 2),     // -> 112
      conv("conv2_1", 112, 112, 64, 3, 128, 1, 1, 0),
      conv("conv2_2", 112, 112, 128, 3, 128, 1, 1, 2),   // -> 56
      conv("conv3_1", 56, 56, 128, 3, 256, 1, 1, 0),
      conv("conv3_2", 56, 56, 256, 3, 256, 1, 1, 0),
      conv("conv3_3", 56, 56, 256, 3, 256, 1, 1, 2),     // -> 28
      conv("conv4_1", 28, 28, 256, 3, 512, 1, 1, 0),
      conv("conv4_2", 28, 28, 512, 3, 512, 1, 1, 0),
      conv("conv4_3", 28, 28, 512, 3, 512, 1, 1, 2),     // -> 14
      conv("conv5_1", 14, 14, 512, 3, 512, 1, 1, 0),
      conv("conv5_2", 14, 14, 512, 3, 512, 1, 1, 0),
      conv("conv5_3", 14, 14, 512, 3, 512, 1, 1, 2),     // -> 7
      dense("fc6", 7 * 7 * 512, 4096),
      dense("fc7", 4096, 4096),
      dense("fc8", 4096, 1000),
  };
  return net;
}

NetworkDesc resnet18() {
  NetworkDesc net;
  net.name = "ResNet-18";
  net.layers = {
      conv("conv1", 224, 224, 3, 7, 64, 2, 3, 2),        // 112 -> pool 56
      // Stage 1: two basic blocks at 56x56x64.
      conv("conv2_1a", 56, 56, 64, 3, 64, 1, 1, 0),
      conv("conv2_1b", 56, 56, 64, 3, 64, 1, 1, 0),
      conv("conv2_2a", 56, 56, 64, 3, 64, 1, 1, 0),
      conv("conv2_2b", 56, 56, 64, 3, 64, 1, 1, 0),
      // Stage 2: downsample to 28x28x128. The 1x1 projection conv runs on
      // the skip path; it precedes the block's main-path convs so a linear
      // walk of the list emits the block in execution order.
      conv("conv3_ds", 56, 56, 64, 1, 128, 2, 0, 0),
      conv("conv3_1a", 56, 56, 64, 3, 128, 2, 1, 0),
      conv("conv3_1b", 28, 28, 128, 3, 128, 1, 1, 0),
      conv("conv3_2a", 28, 28, 128, 3, 128, 1, 1, 0),
      conv("conv3_2b", 28, 28, 128, 3, 128, 1, 1, 0),
      // Stage 3: downsample to 14x14x256.
      conv("conv4_ds", 28, 28, 128, 1, 256, 2, 0, 0),
      conv("conv4_1a", 28, 28, 128, 3, 256, 2, 1, 0),
      conv("conv4_1b", 14, 14, 256, 3, 256, 1, 1, 0),
      conv("conv4_2a", 14, 14, 256, 3, 256, 1, 1, 0),
      conv("conv4_2b", 14, 14, 256, 3, 256, 1, 1, 0),
      // Stage 4: downsample to 7x7x512.
      conv("conv5_ds", 14, 14, 256, 1, 512, 2, 0, 0),
      conv("conv5_1a", 14, 14, 256, 3, 512, 2, 1, 0),
      conv("conv5_1b", 7, 7, 512, 3, 512, 1, 1, 0),
      conv("conv5_2a", 7, 7, 512, 3, 512, 1, 1, 0),
      conv("conv5_2b", 7, 7, 512, 3, 512, 1, 1, 7),      // global avg pool
      dense("fc", 512, 1000),
  };
  // Every basic block's second conv receives the skip addition via
  // counter preload; the _ds convs are the skip-path projections and
  // every ResNet conv is followed by batch normalization.
  for (nn::LayerDesc& l : net.layers) {
    if (!l.label.empty() && l.label.back() == 'b') {
      l.residual = true;
    }
    if (l.label.size() > 3 &&
        l.label.compare(l.label.size() - 3, 3, "_ds") == 0) {
      l.residual_proj = true;
    }
    if (l.kind == OpKind::kConv2D && !l.residual_proj) {
      l.batch_norm = true;
    }
  }
  return net;
}

std::vector<NetworkDesc> table3_workloads() {
  return {alexnet(), vgg16(), resnet18(), cifar10_cnn()};
}

}  // namespace acoustic::nn
