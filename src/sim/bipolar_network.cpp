#include "sim/bipolar_network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sc/rng.hpp"

namespace acoustic::sim {

namespace {

/// Bipolar comparator level for v in [-1, 1]: P(1) = (v+1)/2.
std::uint32_t bipolar_level(const StreamBank& bank, double v) {
  return bank.quantize((std::clamp(v, -1.0, 1.0) + 1.0) / 2.0);
}

}  // namespace

BipolarNetwork::BipolarNetwork(nn::Network& net, BipolarConfig cfg)
    // No fusion/folding: the MUX baseline runs them binary.
    : GraphExecutor(net, LowerOptions{}, "BipolarNetwork"),
      cfg_(cfg),
      act_bank_(cfg_.sng_width, cfg_.activation_seed, cfg_.stream_length),
      wgt_bank_(cfg_.sng_width, cfg_.weight_seed, cfg_.stream_length) {
  if (cfg_.stream_length == 0) {
    throw std::invalid_argument("BipolarNetwork: stream_length must be > 0");
  }
}

void BipolarNetwork::run_weighted(const LoweredOp& op, std::size_t node,
                                  const nn::Tensor& input, nn::Tensor& out,
                                  RunStats& run) {
  (void)node;
  (void)run;
  // A dense node runs as its 1x1 conv over the input viewed as 1x1xN; this
  // lowering folds no BatchNorm, so node_weights are the live weights.
  const ConvGeometry geo =
      conv_geometry(op, input.shape(), cfg_.stream_length);
  const nn::ConvSpec& spec = geo.spec;
  const nn::Shape in = geo.in;
  const nn::Shape out_shape = geo.conv_out;
  const std::size_t len = cfg_.stream_length;

  // Static per-layer activation scaling (standard bipolar-SC practice):
  // values are normalized into [-1, 1] before encoding and the recovered
  // dot product is scaled back — exact up to quantization, since the MUX
  // sum is linear in its inputs.
  const double act_scale =
      input.abs_max() > 0.0f ? static_cast<double>(input.abs_max()) : 1.0;
  std::vector<std::uint32_t> act_levels(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    act_levels[i] = bipolar_level(act_bank_, input[i] / act_scale);
  }
  std::vector<float> scratch;
  const std::span<const float> weights = node_weights(op, scratch);
  std::vector<std::uint32_t> wgt_levels(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    wgt_levels[i] = bipolar_level(wgt_bank_, weights[i]);
  }

  // Grouped geometry: each output channel's MUX fan-in covers only its
  // group's input channels, and the weight tensor is packed per group.
  // groups == 1 degenerates to the classic dense receptive field.
  const std::size_t n_groups = static_cast<std::size_t>(spec.groups);
  const std::size_t cpg = geo.layout.cpg;
  const std::size_t oc_per_group = geo.layout.oc_per_group;
  const std::size_t w_per_oc = geo.layout.w_per_oc;
  out.resize(out_shape);

  // Gather RF membership once per output position (per group); the MUX
  // picks one live product per cycle (scaled addition), XNOR computes
  // bipolar products. rf_wgt holds the within-output-channel weight slot.
  // Dense nodes draw their selects from their own seed.
  std::vector<std::vector<std::size_t>> rf_act(n_groups);
  std::vector<std::vector<std::size_t>> rf_wgt(n_groups);
  sc::XorShift32 select(op.kind == nn::OpKind::kDense
                            ? cfg_.select_seed ^ 0x5A5A5A5Au
                            : cfg_.select_seed);

  for (int oy = 0; oy < out_shape.h; ++oy) {
    for (int ox = 0; ox < out_shape.w; ++ox) {
      for (std::size_t g = 0; g < n_groups; ++g) {
        rf_act[g].clear();
        rf_wgt[g].clear();
      }
      for (int ky = 0; ky < spec.kernel; ++ky) {
        const int iy = oy * spec.stride + ky - spec.padding;
        for (int kx = 0; kx < spec.kernel; ++kx) {
          const int ix = ox * spec.stride + kx - spec.padding;
          for (int ic = 0; ic < spec.in_channels; ++ic) {
            if (iy < 0 || iy >= in.h || ix < 0 || ix >= in.w) {
              // Zero padding: excluded from the MUX fan-in (kinder to the
              // baseline than feeding it half-probability zero streams).
              continue;
            }
            const std::size_t g = static_cast<std::size_t>(ic) / cpg;
            rf_act[g].push_back(geo.index(iy, ix, ic));
            rf_wgt[g].push_back(
                (static_cast<std::size_t>(ky) * spec.kernel + kx) * cpg +
                (static_cast<std::size_t>(ic) - g * cpg));
          }
        }
      }
      for (int oc = 0; oc < out_shape.c; ++oc) {
        const std::size_t g = static_cast<std::size_t>(oc) / oc_per_group;
        const std::size_t rf_size = rf_act[g].size();
        if (rf_size == 0) {
          out.at(oy, ox, oc) = 0.0f;
          continue;
        }
        std::int64_t ones = 0;
        for (std::size_t t = 0; t < len; ++t) {
          const std::size_t pick =
              static_cast<std::size_t>(select.next()) % rf_size;
          const std::size_t ai = rf_act[g][pick];
          const std::size_t wi =
              static_cast<std::size_t>(oc) * w_per_oc + rf_wgt[g][pick];
          const bool a_bit =
              act_bank_.scramble(act_bank_.state_at(t, ai), ai) <
              act_levels[ai];
          const bool w_bit =
              wgt_bank_.scramble(wgt_bank_.state_at(t, wi), wi) <
              wgt_levels[wi];
          ones += (a_bit == w_bit) ? 1 : 0;  // XNOR
        }
        // MUX output is (sum of products)/rf_size in bipolar encoding.
        const double value =
            2.0 * static_cast<double>(ones) / static_cast<double>(len) - 1.0;
        out.at(oy, ox, oc) = static_cast<float>(
            value * static_cast<double>(rf_size) * act_scale);
      }
    }
  }
}

}  // namespace acoustic::sim
