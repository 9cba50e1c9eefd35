#include "perf/mapping.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace acoustic::perf {

namespace {

LayerMapping map_conv(const nn::LayerDesc& l, const ArchConfig& a) {
  LayerMapping m;
  const std::uint64_t pool = l.pool > 1 ? static_cast<std::uint64_t>(l.pool) : 1;
  const std::uint64_t pool_sq = pool * pool;
  // Only this refusal follows the SC executor's timetable
  // (sim::window_schedule): a window that tiles the conv output splits
  // each sign phase of stream_length / 2 bits into pool^2 slots, and a
  // shorter phase leaves a slot without a bit, which the executor refuses
  // to run. The cycle charge below does not follow it: every pooled conv
  // runs stream_length / pool^2 cycles, also where the executor runs the
  // conv unfused over the whole phase, because the window does not tile
  // the output (AlexNet conv1, conv2, conv5) or the pool follows a
  // residual add and its ReLU (ResNet-18 conv5_2b; LayerDesc::fused_pool).
  if (pool > 1 && l.out_h() % l.pool == 0 && l.out_w() % l.pool == 0 &&
      a.stream_length / 2 < pool_sq) {
    const std::string window = std::to_string(pool) + "x" + std::to_string(pool);
    throw std::invalid_argument(
        "layer " + l.label + ": stream " + std::to_string(a.stream_length) +
        " is too short for its " + window + " pooling window (each sign "
        "phase needs at least " + std::to_string(pool_sq) + " bits)");
  }
  const int keff = std::min(l.kernel, 3);
  const std::uint64_t kchunk = ceil_div(static_cast<std::uint64_t>(l.kernel), 3);
  const int cpm = a.channels_per_mac(keff);

  const int depth = l.channels_per_group();
  const std::uint64_t rf =
      static_cast<std::uint64_t>(l.kernel) * l.kernel * depth;
  const std::uint64_t positions =
      static_cast<std::uint64_t>(l.out_h()) * static_cast<std::uint64_t>(l.out_w());

  if (rf <= static_cast<std::uint64_t>(a.mac_width)) {
    // Packed mode: the whole receptive field fits one 96:1 MAC, so the
    // configurable fabric assigns one MAC per output position. Arrays
    // share weights, so an array's M MACs must compute positions of the
    // same kernel; idle arrays take extra positions of other kernels.
    const std::uint64_t total_arrays =
        static_cast<std::uint64_t>(a.rows) * a.subrows * a.arrays;
    const std::uint64_t kernels_per_pass =
        std::min<std::uint64_t>(static_cast<std::uint64_t>(l.out_c),
                                total_arrays);
    const std::uint64_t arrays_per_kernel =
        std::max<std::uint64_t>(1, total_arrays / kernels_per_pass);
    const std::uint64_t pos_per_pass =
        arrays_per_kernel * static_cast<std::uint64_t>(a.macs_per_array);
    m.passes = ceil_div(positions, pos_per_pass) *
               ceil_div(static_cast<std::uint64_t>(l.out_c), kernels_per_pass);
  } else if (ceil_div(ceil_div(rf, static_cast<std::uint64_t>(a.mac_width)),
                      static_cast<std::uint64_t>(a.subrows)) <=
             static_cast<std::uint64_t>(a.arrays)) {
    // Sliced mode: the receptive field spans a few MACs, ganged across
    // sub-rows (kernel rows) and, if needed, across arrays. Remaining
    // arrays take more output positions.
    const std::uint64_t slices =
        ceil_div(rf, static_cast<std::uint64_t>(a.mac_width));
    const std::uint64_t array_groups =
        ceil_div(slices, static_cast<std::uint64_t>(a.subrows));
    const std::uint64_t pos_per_pass =
        (static_cast<std::uint64_t>(a.arrays) / array_groups) *
        static_cast<std::uint64_t>(a.macs_per_array);
    const std::uint64_t kern_passes =
        ceil_div(static_cast<std::uint64_t>(l.out_c),
                 static_cast<std::uint64_t>(a.rows));
    m.passes = ceil_div(positions, pos_per_pass) * kern_passes;
  } else {
    // Deep layers: sub-rows carry kernel rows, MACs multiplex kernel
    // columns x 96/kw channels, extra channels and >3x3 kernels take
    // further passes accumulated in the (non-reset) counters.
    const std::uint64_t ch_passes = ceil_div(
        static_cast<std::uint64_t>(depth), static_cast<std::uint64_t>(cpm));
    const std::uint64_t kern_passes =
        ceil_div(static_cast<std::uint64_t>(l.out_c),
                 static_cast<std::uint64_t>(a.rows));
    const std::uint64_t pos_passes = ceil_div(
        positions, static_cast<std::uint64_t>(a.positions_per_pass()));
    m.passes = ch_passes * kern_passes * pos_passes * kchunk * kchunk;
  }
  // Conv layers process batch samples sequentially (activations differ,
  // weights stay resident): whole-batch cost scales linearly.
  m.passes *= static_cast<std::uint64_t>(std::max(1, a.batch));
  m.cycles_per_pass = std::max<std::uint64_t>(1, a.stream_length / pool_sq);
  m.mac_cycles = m.passes * m.cycles_per_pass;

  // Operand-gated useful work: every MAC of the layer evaluated over the
  // (skipping-shortened) stream, scaled by the expected nonzero-activation
  // fraction (zero inputs gate the AND multipliers).
  m.product_bits = static_cast<std::uint64_t>(
      static_cast<double>(l.macs()) *
      static_cast<double>(std::max<std::uint64_t>(
          1, a.stream_length / pool_sq)) *
      static_cast<double>(std::max(1, a.batch)) * a.activation_density);
  const double lane_cycles = static_cast<double>(m.mac_cycles) *
                             static_cast<double>(a.total_mac_lanes());
  m.utilization =
      lane_cycles > 0.0 ? static_cast<double>(m.product_bits) / lane_cycles : 0.0;

  // SNG buffer loads per pass: weights for the kernels resident in a pass,
  // activations for the output positions' receptive-field slice (adjacent
  // positions share all but one kernel column of activations). Both are
  // capped by what the layer actually provides (unused lanes stay empty
  // and, being zero, are operand-gated).
  const std::uint64_t wgt_elems_per_pass =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(a.rows), l.out_c) *
      keff * keff * std::min(cpm, depth);
  const std::uint64_t act_elems_per_pass =
      std::min<std::uint64_t>(
          static_cast<std::uint64_t>(a.positions_per_pass()), positions) *
      std::min(cpm, depth) * keff;
  m.wgt_rng_cycles_per_pass =
      ceil_div(wgt_elems_per_pass, static_cast<std::uint64_t>(a.sng_load_lanes));
  m.act_rng_cycles_per_pass =
      ceil_div(act_elems_per_pass, static_cast<std::uint64_t>(a.sng_load_lanes));

  // Stream generation statistics (per-bit SNG energy): weight SNGs run for
  // every pass, activation SNGs likewise.
  m.wgt_stream_bits = wgt_elems_per_pass * m.passes * m.cycles_per_pass;
  m.act_stream_bits = act_elems_per_pass * m.passes * m.cycles_per_pass;
  m.counter_bits = positions * static_cast<std::uint64_t>(l.out_c) *
                   std::max<std::uint64_t>(1, a.stream_length / pool_sq) *
                   static_cast<std::uint64_t>(std::max(1, a.batch));

  m.cnt_store_bytes = l.output_elems() *
                      static_cast<std::uint64_t>(std::max(1, a.batch));
  m.act_sram_bytes = act_elems_per_pass * m.passes;
  return m;
}

LayerMapping map_dense(const nn::LayerDesc& l, const ArchConfig& a) {
  LayerMapping m;
  // FC: no weight reuse, so one MAC per array carries distinct weights
  // (III-B); a group of ceil(in/96) MACs covers one output.
  const std::uint64_t available_macs =
      static_cast<std::uint64_t>(a.rows) * a.subrows * a.arrays;
  const std::uint64_t macs_per_output =
      ceil_div(static_cast<std::uint64_t>(l.in_c),
               static_cast<std::uint64_t>(a.mac_width));
  const std::uint64_t outputs_per_pass = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(l.out_c),
      std::max<std::uint64_t>(1, available_macs / macs_per_output));
  const std::uint64_t in_passes =
      macs_per_output > available_macs
          ? ceil_div(macs_per_output, available_macs)
          : 1;
  // Batching: up to M samples share each weight load (the M MACs of an
  // array carry the same weights), so the whole batch needs
  // ceil(batch / M) sequential FC sweeps.
  const std::uint64_t batch = static_cast<std::uint64_t>(std::max(1, a.batch));
  const std::uint64_t samples_per_sweep = std::min<std::uint64_t>(
      batch, static_cast<std::uint64_t>(a.macs_per_array));
  const std::uint64_t fc_sweeps = ceil_div(batch, samples_per_sweep);
  m.passes = ceil_div(static_cast<std::uint64_t>(l.out_c), outputs_per_pass) *
             in_passes * fc_sweeps;
  m.cycles_per_pass = a.stream_length;
  m.mac_cycles = m.passes * m.cycles_per_pass;
  m.product_bits = static_cast<std::uint64_t>(
      static_cast<double>(l.macs()) * static_cast<double>(a.stream_length) *
      static_cast<double>(batch) * a.activation_density);
  const double lane_cycles = static_cast<double>(m.mac_cycles) *
                             static_cast<double>(a.total_mac_lanes());
  m.utilization =
      lane_cycles > 0.0 ? static_cast<double>(m.product_bits) / lane_cycles : 0.0;

  const std::uint64_t wgt_elems_per_pass =
      std::min<std::uint64_t>(outputs_per_pass * l.in_c,
                              available_macs * a.mac_width);
  const std::uint64_t act_elems_per_pass =
      std::min<std::uint64_t>(l.in_c, available_macs * a.mac_width);
  m.wgt_rng_cycles_per_pass =
      ceil_div(wgt_elems_per_pass, static_cast<std::uint64_t>(a.sng_load_lanes));
  m.act_rng_cycles_per_pass =
      ceil_div(act_elems_per_pass, static_cast<std::uint64_t>(a.sng_load_lanes));
  m.wgt_stream_bits = l.weight_count() * a.stream_length * fc_sweeps;
  m.act_stream_bits = act_elems_per_pass * m.passes * a.stream_length;
  m.counter_bits =
      static_cast<std::uint64_t>(l.out_c) * a.stream_length * batch;
  m.cnt_store_bytes = l.output_elems() * batch;
  m.act_sram_bytes = act_elems_per_pass * m.passes;
  return m;
}

}  // namespace

LayerMapping map_layer(const nn::LayerDesc& layer, const ArchConfig& arch,
                       bool first_layer, bool last_layer) {
  LayerMapping m = layer.kind == nn::OpKind::kConv2D ? map_conv(layer, arch)
                                                      : map_dense(layer, arch);
  // Weight traffic: every layer's weights come from DRAM once (streamed
  // continuously when they exceed the weight memory — same total bytes,
  // but the layer can no longer hide the transfer behind earlier compute).
  m.wgt_dram_bytes = arch.has_dram ? layer.weight_count() : 0;
  m.weights_resident = layer.weight_count() <= arch.wgt_mem_bytes;

  // Activation traffic: first input load, last output store, plus spills
  // whenever a layer's input+output set exceeds the activation memory.
  const std::uint64_t batch =
      static_cast<std::uint64_t>(std::max(1, arch.batch));
  std::uint64_t act_bytes = 0;
  if (arch.has_dram) {
    if (first_layer) {
      act_bytes += layer.input_elems();
    }
    if (last_layer) {
      act_bytes += layer.output_elems();
    }
    if ((layer.input_elems() + layer.output_elems()) * batch >
        arch.act_mem_bytes) {
      act_bytes += layer.input_elems() + layer.output_elems();
    }
  }
  m.act_dram_bytes = act_bytes * batch;
  return m;
}

std::vector<LayerMapping> map_network(const nn::NetworkDesc& net,
                                      const ArchConfig& arch) {
  std::vector<LayerMapping> out;
  out.reserve(net.layers.size());
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    out.push_back(map_layer(net.layers[i], arch, i == 0,
                            i + 1 == net.layers.size()));
  }
  return out;
}

}  // namespace acoustic::perf
