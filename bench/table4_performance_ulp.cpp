// Table IV reproduction: ACOUSTIC ULP vs MDL-CNN (time-domain) and
// Conv-RAM (analog in-SRAM) on the conv layers of LeNet-5 and the small
// CIFAR-10 CNN.
//
//   table4_performance_ulp [--json PATH]
// --json writes the table as a bench.v1 document: ACOUSTIC's workload
// power as table4/acoustic_ulp/power_mw, then one entry per
// table4/<network>/<system>/<metric> (see core::record_cost and
// core::record_point; a baseline that does not publish a workload gets
// no entry).
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/ulp_accelerators.hpp"
#include "core/accelerator.hpp"
#include "core/cli.hpp"
#include "core/report.hpp"
#include "obs/bench_harness.hpp"

using namespace acoustic;

namespace {

std::string cell(double v, bool available, int digits = 4) {
  return available ? core::format_number(v, digits) : "N/A";
}

/// Prints Table IV; a non-empty @p json_path also gets the bench.v1
/// document.
int print_table(const std::string& json_path) {
  std::printf("=== Table IV: ACOUSTIC ULP vs MDL-CNN and Conv-RAM "
              "(conv layers) ===\n\n");

  const auto mdl = baselines::mdl_cnn_spec();
  const auto cram = baselines::conv_ram_spec();
  const core::Accelerator ulp(perf::ulp());

  const nn::NetworkDesc lenet = nn::lenet5().conv_only();
  const nn::NetworkDesc cifar = nn::cifar10_cnn().conv_only();
  const core::InferenceCost lenet_cost = ulp.run(lenet);
  const core::InferenceCost cifar_cost = ulp.run(cifar);

  // Table IV reports ACOUSTIC's power as the workload power (energy over
  // latency on the LeNet-5 conv layers), like the silicon baselines report
  // measured power.
  const double ulp_power_mw =
      1e3 * lenet_cost.on_chip_energy_j / lenet_cost.latency_s;

  core::Table spec({"", "Conv-RAM", "MDL CNN", "ACOUSTIC ULP"});
  spec.add_row({"Domain", cram.domain, mdl.domain, "SC"});
  spec.add_row({"Precision [A/W]", cram.precision, mdl.precision,
                "8b/8b SC"});
  spec.add_row({"Area [mm2]", core::format_number(cram.area_mm2, 3),
                core::format_number(mdl.area_mm2, 3),
                core::format_number(energy::total_area_mm2(perf::ulp()), 2)});
  spec.add_row({"Power [mW]", core::format_number(cram.power_mw, 3),
                core::format_number(mdl.power_mw, 3),
                core::format_number(ulp_power_mw, 2)});
  spec.add_row({"Clock [MHz]", core::format_number(cram.clock_mhz, 3),
                core::format_number(mdl.clock_mhz, 3), "200"});
  std::printf("%s\n", spec.to_string().c_str());

  core::Table table({"Network", "Metric", "Conv-RAM", "MDL CNN",
                     "ACOUSTIC ULP"});
  const auto mdl_lenet = baselines::mdl_cnn_run(lenet);
  const auto cram_lenet = baselines::conv_ram_run(lenet);
  table.add_row({"LeNet-5", "Fr/J",
                 cell(cram_lenet.frames_per_j, cram_lenet.available, 3),
                 cell(mdl_lenet.frames_per_j, mdl_lenet.available, 3),
                 core::format_number(lenet_cost.frames_per_j, 3)});
  table.add_row({"", "Fr/s",
                 cell(cram_lenet.frames_per_s, cram_lenet.available),
                 cell(mdl_lenet.frames_per_s, mdl_lenet.available),
                 core::format_number(lenet_cost.frames_per_s, 5)});
  const auto mdl_cifar = baselines::mdl_cnn_run(cifar);
  const auto cram_cifar = baselines::conv_ram_run(cifar);
  table.add_row({"CIFAR-10 CNN", "Fr/J",
                 cell(cram_cifar.frames_per_j, cram_cifar.available, 3),
                 cell(mdl_cifar.frames_per_j, mdl_cifar.available, 3),
                 core::format_number(cifar_cost.frames_per_j, 3)});
  table.add_row({"", "Fr/s",
                 cell(cram_cifar.frames_per_s, cram_cifar.available),
                 cell(mdl_cifar.frames_per_s, mdl_cifar.available),
                 core::format_number(cifar_cost.frames_per_s, 4)});
  std::printf("%s\n", table.to_string().c_str());

  std::printf("headline ratios (paper / measured):\n");
  std::printf("  speedup vs MDL-CNN on LeNet-5:   paper 123.9x, measured "
              "%.1fx\n", lenet_cost.frames_per_s / mdl_lenet.frames_per_s);
  std::printf("  speedup vs Conv-RAM on LeNet-5:  paper   8.2x, measured "
              "%.1fx\n", lenet_cost.frames_per_s / cram_lenet.frames_per_s);
  std::printf("  efficiency vs MDL-CNN:           paper  1.24x, measured "
              "%.2fx\n", lenet_cost.frames_per_j / mdl_lenet.frames_per_j);
  std::printf("  efficiency vs Conv-RAM:          paper  1.04x, measured "
              "%.2fx\n", lenet_cost.frames_per_j / cram_lenet.frames_per_j);
  std::printf("\nNote: ACOUSTIC runs 8-bit weights AND activations; the\n"
              "baselines binarize weights (the paper notes a 1-3%% MNIST\n"
              "accuracy cost for them).\n");

  if (!json_path.empty()) {
    obs::Bench bench("table4_performance_ulp",
                     obs::BenchOptions::from_env());
    bench.record("table4/acoustic_ulp/power_mw", ulp_power_mw, "mW",
                 /*lower_is_better=*/true);
    const struct {
      const nn::NetworkDesc& net;
      const core::InferenceCost& cost;
      const baselines::Performance& mdl_run;
      const baselines::Performance& cram_run;
    } rows[] = {{lenet, lenet_cost, mdl_lenet, cram_lenet},
                {cifar, cifar_cost, mdl_cifar, cram_cifar}};
    for (const auto& row : rows) {
      const std::string prefix = "table4/" + core::bench_slug(row.net.name);
      core::record_cost(bench, prefix + "/acoustic_ulp", row.cost);
      core::record_point(bench, prefix + "/mdl_cnn", row.mdl_run);
      core::record_point(bench, prefix + "/conv_ram", row.cram_run);
    }
    core::write_text_file(json_path, obs::to_json(bench.document()));
    std::printf("\nwrote %zu entries to %s\n",
                bench.document().entries.size(), json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  const core::cli::OptionTable table{
      "table4_performance_ulp",
      "Table IV: ACOUSTIC ULP against MDL-CNN and Conv-RAM on the conv "
      "layers of LeNet-5 and the small CIFAR-10 CNN.",
      {},
      {core::cli::text("--json", "PATH",
                       "also write the table as a bench.v1 document to PATH",
                       json_path)}};
  return core::cli::run(table,
                        std::vector<std::string>(argv + 1, argv + argc),
                        [&] { return print_table(json_path); });
}
