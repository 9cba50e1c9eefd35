#include "core/accelerator.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/report.hpp"

namespace acoustic::core {

Accelerator::Accelerator(perf::ArchConfig config)
    : config_(std::move(config)) {
  if (config_.batch < 1) {
    throw std::invalid_argument("batch must be >= 1, got " +
                                std::to_string(config_.batch));
  }
  if (!std::isfinite(config_.clock_mhz) || config_.clock_mhz <= 0.0) {
    throw std::invalid_argument("clock_mhz must be finite and > 0, got " +
                                format_number(config_.clock_mhz, 6));
  }
  // The split-unipolar minimum: one bit for each sign phase.
  if (config_.stream_length < 2) {
    throw std::invalid_argument("stream_length must be >= 2, got " +
                                std::to_string(config_.stream_length));
  }
}

InferenceCost Accelerator::run(const nn::NetworkDesc& net) const {
  InferenceCost cost;
  perf::CodegenResult compiled = perf::generate_program(net, config_);
  cost.perf = perf::simulate(compiled.program, config_);
  // The program (and its mappings) covers the whole batch; report
  // per-frame figures.
  const double frames = static_cast<double>(config_.batch);
  cost.latency_s = cost.perf.latency_s / frames;
  cost.frames_per_s = cost.latency_s > 0.0 ? 1.0 / cost.latency_s : 0.0;
  cost.energy = energy::network_energy(compiled.mappings, config_,
                                       cost.perf.latency_s);
  cost.on_chip_energy_j = cost.energy.on_chip_j() / frames;
  cost.frames_per_j =
      cost.on_chip_energy_j > 0.0 ? 1.0 / cost.on_chip_energy_j : 0.0;
  cost.dram_energy_j = cost.energy.dram_j / frames;
  cost.mappings = std::move(compiled.mappings);
  return cost;
}

std::vector<LayerCost> Accelerator::run_layers(
    const nn::NetworkDesc& net) const {
  std::vector<LayerCost> out;
  out.reserve(net.layers.size());
  const double frames = static_cast<double>(config_.batch);
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const nn::LayerDesc& layer = net.layers[i];
    const perf::LayerMapping m = perf::map_layer(
        layer, config_, i == 0, i + 1 == net.layers.size());
    const isa::Program prog = perf::generate_layer_program(
        layer, config_, m, 0, i == 0, i + 1 == net.layers.size());
    const perf::PerfResult perf = perf::simulate(prog, config_);
    LayerCost cost;
    cost.label = layer.label;
    cost.latency_s = perf.latency_s / frames;
    cost.on_chip_energy_j =
        energy::layer_energy(m, config_).on_chip_j() / frames;
    cost.utilization = m.utilization;
    cost.mac_cycles = m.mac_cycles;
    cost.weights_resident = m.weights_resident;
    out.push_back(std::move(cost));
  }
  return out;
}

}  // namespace acoustic::core
