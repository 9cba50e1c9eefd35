// Split-unipolar OR-accumulating MAC (paper Fig. 1) with full trace.
//
// The two-phase temporally-unrolled MAC: in the positive phase, weights
// with negative sign are gated off and the up/down counter counts up on
// every 1 of the OR-accumulated product stream; in the negative phase the
// mask inverts and the counter counts down. The result, divided by the
// phase length, approximates sum(a_i * w_i) with OR saturation per phase.
//
// This is the reference/trace implementation used by tests, the Fig. 1
// bench and the quickstart example; the network executor in sc_network.cpp
// runs the same arithmetic through fused word-parallel loops.
#pragma once

#include <span>
#include <vector>

#include "sc/bitstream.hpp"
#include "sim/sc_config.hpp"
#include "sim/stream_bank.hpp"

namespace acoustic::sim {

/// Everything the MAC did, bit by bit.
struct SplitMacTrace {
  /// Per input lane: activation stream for the positive / negative phase.
  std::vector<sc::BitStream> act_pos;
  std::vector<sc::BitStream> act_neg;
  /// Per input lane: weight-magnitude stream in the lane's active phase
  /// (positive weights are active in the + phase, negative in the - phase).
  std::vector<sc::BitStream> weight_mag;
  /// Per input lane: AND product stream in the lane's active phase.
  std::vector<sc::BitStream> product;
  /// OR-accumulated product stream per phase.
  sc::BitStream or_pos;
  sc::BitStream or_neg;
  /// Counter value after the + phase and after both phases.
  std::int64_t count_after_pos = 0;
  std::int64_t count_final = 0;
  /// count_final / phase_length — the recovered dot-product estimate.
  double result = 0.0;
  /// What ideal arithmetic would give: or_pos_expected - or_neg_expected.
  double expected = 0.0;
};

/// Runs one split-unipolar MAC over @p activations (in [0,1]) and
/// @p weights (in [-1,1]) with the given SC configuration. Activation and
/// weight banks use cfg.activation_seed / cfg.weight_seed and
/// cfg.decorrelate_lanes; lane i uses the bank lane i, so the result is
/// the one ScNetwork computes for a dense(n->1) node.
[[nodiscard]] SplitMacTrace split_unipolar_mac(
    std::span<const double> activations, std::span<const double> weights,
    const ScConfig& cfg);

}  // namespace acoustic::sim
