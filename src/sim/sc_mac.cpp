#include "sim/sc_mac.hpp"

#include <cmath>
#include <stdexcept>

#include "sc/counter.hpp"
#include "sc/gates.hpp"

namespace acoustic::sim {

SplitMacTrace split_unipolar_mac(std::span<const double> activations,
                                 std::span<const double> weights,
                                 const ScConfig& cfg) {
  if (activations.size() != weights.size()) {
    throw std::invalid_argument("split_unipolar_mac: lane-count mismatch");
  }
  const std::size_t n = activations.size();
  const std::size_t phase = cfg.phase_length();

  // Activation SNGs run across both phases; weight SNGs are loaded per
  // phase (sign-gated), so their streams occupy the phase they fire in.
  StreamBank act_bank(cfg.sng_width, cfg.activation_seed, 2 * phase,
                      cfg.decorrelate_lanes);
  StreamBank wgt_bank(cfg.sng_width, cfg.weight_seed, 2 * phase,
                      cfg.decorrelate_lanes);

  SplitMacTrace trace;
  trace.act_pos.reserve(n);
  trace.act_neg.reserve(n);
  trace.weight_mag.reserve(n);
  trace.product.reserve(n);
  trace.or_pos = sc::BitStream(phase);
  trace.or_neg = sc::BitStream(phase);

  double prod_pos = 1.0;
  double prod_neg = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto lane = static_cast<std::uint32_t>(i);
    const std::uint32_t act_level = act_bank.quantize(activations[i]);
    const std::uint32_t wgt_level = wgt_bank.quantize(std::fabs(weights[i]));
    sc::BitStream a_pos = act_bank.stream(act_level, lane, 0, phase);
    sc::BitStream a_neg = act_bank.stream(act_level, lane, phase, phase);
    const bool positive = weights[i] >= 0.0;
    const std::size_t wgt_offset = positive ? 0 : phase;
    sc::BitStream w_mag = wgt_bank.stream(wgt_level, lane, wgt_offset, phase);
    sc::BitStream prod =
        sc::and_multiply(positive ? a_pos : a_neg, w_mag);
    if (positive) {
      trace.or_pos |= prod;
      prod_pos *= 1.0 - activations[i] * weights[i];
    } else {
      trace.or_neg |= prod;
      prod_neg *= 1.0 - activations[i] * (-weights[i]);
    }
    trace.act_pos.push_back(std::move(a_pos));
    trace.act_neg.push_back(std::move(a_neg));
    trace.weight_mag.push_back(std::move(w_mag));
    trace.product.push_back(std::move(prod));
  }

  sc::UpDownCounter counter;
  counter.count(trace.or_pos, /*up=*/true);
  trace.count_after_pos = counter.value();
  counter.count(trace.or_neg, /*up=*/false);
  trace.count_final = counter.value();
  trace.result =
      static_cast<double>(trace.count_final) / static_cast<double>(phase);
  trace.expected = (1.0 - prod_pos) - (1.0 - prod_neg);
  return trace;
}

}  // namespace acoustic::sim
