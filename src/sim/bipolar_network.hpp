// Conventional bipolar-MUX stochastic execution — the baseline ACOUSTIC's
// optimizations are measured against (paper sections II-A/II-B).
//
// Prior SC accelerators [11, 12, 15] encode signed values in bipolar
// format (P(1) = (v+1)/2), multiply with XNOR gates and accumulate with
// MUX trees (scaled addition: the result is sum/n). This executor runs a
// whole network that way so the representation ablation can be measured
// end to end: for an n-wide receptive field the MUX recovers sum = n *
// (2*value - 1), multiplying the stream's statistical noise by n — which
// is exactly why bipolar-MUX needs far longer streams than ACOUSTIC's
// split-unipolar OR datapath for the same accuracy.
//
// Per-layer binary conversion and stream regeneration are kept identical
// to ScNetwork so the comparison isolates the representation+accumulation
// choice. The network is lowered through the same op-graph registry
// (sim/op_graph.hpp) with folding/fusion disabled: BatchNorm and average
// pooling run as binary post-ops, max pooling and residual skips execute
// as explicit graph nodes.
#pragma once

#include <cstdint>

#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "obs/span.hpp"
#include "sim/op_graph.hpp"
#include "sim/sc_config.hpp"

namespace acoustic::sim {

struct BipolarConfig {
  /// Stream length (single-phase: bipolar carries sign natively).
  std::size_t stream_length = 256;
  unsigned sng_width = 8;
  std::uint32_t activation_seed = 0x5eed;
  std::uint32_t weight_seed = 0xbeef;
  std::uint32_t select_seed = 0x5e1ec7;
};

/// Bit-level bipolar-MUX execution of a trained network. The network's
/// weighted layers should be in kSum mode conceptually (the MUX computes a
/// plain scaled sum) — weights are read live like ScNetwork does.
class BipolarNetwork {
 public:
  BipolarNetwork(nn::Network& net, BipolarConfig cfg);

  /// Bit-level inference; input values in [0, 1] (encoded bipolar).
  [[nodiscard]] nn::Tensor forward(const nn::Tensor& input);

  [[nodiscard]] const BipolarConfig& config() const noexcept { return cfg_; }

  /// Per-stage profiling spans (see ScNetwork::set_profiler; the bipolar
  /// datapath has no skip counters, so spans carry wall time only).
  void set_profiler(obs::Profiler* profiler, std::uint32_t track = 0) noexcept {
    profiler_ = profiler;
    track_ = track;
  }

 private:
  /// Runs a weighted node — conv, dense (as its 1x1 conv) or a skip-path
  /// projection — as XNOR products summed by a MUX tree.
  [[nodiscard]] nn::Tensor run_conv(const LoweredOp& op,
                                    const nn::Tensor& input);

  nn::Network* net_;
  BipolarConfig cfg_;
  std::vector<LoweredOp> ops_;
  obs::Profiler* profiler_ = nullptr;
  std::uint32_t track_ = 0;
};

}  // namespace acoustic::sim
