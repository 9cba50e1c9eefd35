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
// choice: both run the same graph walk (sim/op_graph.hpp), this one over
// the lowering with folding/fusion disabled, so BatchNorm and average
// pooling run as binary post-ops and max pooling (exact) and residual
// skips execute as explicit graph nodes. The executor supplies only its
// weighted-node body.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "nn/network.hpp"
#include "sim/op_graph.hpp"
#include "sim/stream_bank.hpp"

namespace acoustic::sim {

struct BipolarConfig {
  /// Stream length (single-phase: bipolar carries sign natively).
  std::size_t stream_length = 256;
  unsigned sng_width = 8;
  std::uint32_t activation_seed = 0x5eed;
  std::uint32_t weight_seed = 0xbeef;
  std::uint32_t select_seed = 0x5e1ec7;
};

/// Bit-level bipolar-MUX execution of a trained network through the
/// inherited forward(); input values in [0, 1] (encoded bipolar). The
/// network's weighted layers should be in kSum mode conceptually (the MUX
/// computes a plain scaled sum).
class BipolarNetwork final : public GraphExecutor {
 public:
  /// Runs a snapshot of @p net (GraphExecutor's), as ScNetwork does.
  BipolarNetwork(nn::Network& net, BipolarConfig cfg);

  [[nodiscard]] std::string name() const override { return "bipolar"; }
  [[nodiscard]] std::unique_ptr<InferenceBackend> clone() const override {
    return std::unique_ptr<BipolarNetwork>(new BipolarNetwork(*this));
  }

 private:
  /// clone()'s twin of @p proto: its snapshot, config and banks.
  BipolarNetwork(const BipolarNetwork& proto) = default;

  /// Runs a weighted node — conv, dense (as its 1x1 conv) or a skip-path
  /// projection — as XNOR products summed by a MUX tree. The datapath has
  /// no skip or stream counters, so @p run gains nothing.
  void run_weighted(const LoweredOp& op, std::size_t node,
                    const nn::Tensor& input, nn::Tensor& out,
                    RunStats& run) override;

  BipolarConfig cfg_;
  /// The activation and weight SNG banks, built once here: their content
  /// is a pure function of the config, so every node of every forward
  /// reads these two.
  StreamBank act_bank_;
  StreamBank wgt_bank_;
};

}  // namespace acoustic::sim
