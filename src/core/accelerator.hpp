// Top-level ACOUSTIC accelerator facade.
//
// Ties the reproduction together the way the paper's evaluation flow does:
// a network descriptor is compiled to an ISA program (codegen), executed on
// the performance simulator (cycles, unit activity, DRAM traffic), and
// priced by the energy model. Functional (bit-level) accuracy runs
// separately through sim::ScNetwork — the decoupling the paper describes
// in section IV-A.
#pragma once

#include "energy/energy_model.hpp"
#include "isa/program.hpp"
#include "nn/model_zoo.hpp"
#include "perf/arch_config.hpp"
#include "perf/codegen.hpp"
#include "perf/perf_sim.hpp"

namespace acoustic::core {

/// Everything Tables III/IV need about one network on one configuration.
struct InferenceCost {
  double latency_s = 0.0;
  double frames_per_s = 0.0;
  double on_chip_energy_j = 0.0;
  double frames_per_j = 0.0;   ///< from on-chip energy (see EXPERIMENTS.md)
  double dram_energy_j = 0.0;
  perf::PerfResult perf;
  energy::EnergyReport energy;
  std::vector<perf::LayerMapping> mappings;
};

/// Isolated per-layer cost (no cross-layer overlap), for bottleneck
/// analysis; whole-network latency is lower than the sum of these when
/// preloading hides DMA time.
struct LayerCost {
  std::string label;
  double latency_s = 0.0;
  double on_chip_energy_j = 0.0;
  double utilization = 0.0;
  std::uint64_t mac_cycles = 0;
  bool weights_resident = true;
};

class Accelerator {
 public:
  /// Throws std::invalid_argument, naming the field, unless batch >= 1,
  /// clock_mhz is finite and > 0, and stream_length >= 2 (one bit per
  /// split-unipolar sign phase).
  explicit Accelerator(perf::ArchConfig config);

  /// Compiles @p net to an ACOUSTIC program.
  [[nodiscard]] isa::Program compile(const nn::NetworkDesc& net) const {
    return perf::generate_program(net, config_).program;
  }

  /// Full performance + energy evaluation of one inference.
  [[nodiscard]] InferenceCost run(const nn::NetworkDesc& net) const;

  /// Per-layer breakdown: each layer simulated in isolation.
  [[nodiscard]] std::vector<LayerCost> run_layers(
      const nn::NetworkDesc& net) const;

  [[nodiscard]] const perf::ArchConfig& config() const noexcept {
    return config_;
  }

 private:
  perf::ArchConfig config_;
};

}  // namespace acoustic::core
