// Table III reproduction: ACOUSTIC LP vs Eyeriss (168/1024 PEs) and SCOPE.
//
// ACOUSTIC numbers come from the full pipeline: network descriptor ->
// ISA program (codegen) -> dispatcher performance simulation -> component
// energy model. Eyeriss numbers come from the calibrated analytical model
// (stand-in for the TETRIS runs the paper used); SCOPE rows are the
// published 28nm-scaled points, exactly as the paper reproduced them.
//
//   table3_performance_lp [--json PATH]
// --json writes the table as a bench.v1 document: one entry per
// table3/<network>/<system>/<metric> (see core::record_cost and
// core::record_point; a baseline that does not publish a workload gets
// no entry).
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/eyeriss.hpp"
#include "baselines/scope.hpp"
#include "core/accelerator.hpp"
#include "core/cli.hpp"
#include "core/report.hpp"
#include "obs/bench_harness.hpp"

using namespace acoustic;

namespace {

std::string perf_cell(double value, bool available) {
  return available ? core::format_number(value, 4) : "N/A";
}

/// Prints Table III; a non-empty @p json_path also gets the bench.v1
/// document.
int print_table(const std::string& json_path) {
  std::printf("=== Table III: ACOUSTIC LP vs fixed-point and stochastic "
              "accelerators ===\n\n");

  const auto base = baselines::eyeriss_base();
  const auto big = baselines::eyeriss_1k();
  const auto scope_cfg = baselines::scope_config();
  const core::Accelerator lp(perf::lp());

  core::Table envelope({"", "Eyeriss Base", "Eyeriss 1k PEs", "SCOPE",
                        "ACOUSTIC LP"});
  envelope.add_row({"Area [mm2]", core::format_number(base.area_mm2, 3),
                    core::format_number(big.area_mm2, 3),
                    core::format_number(scope_cfg.area_mm2, 4),
                    core::format_number(
                        energy::total_area_mm2(perf::lp()), 3)});
  envelope.add_row({"Power [W]", core::format_number(base.power_w, 3),
                    core::format_number(big.power_w, 3), "N/A",
                    [] {
                      const auto p = energy::peak_power_w(perf::lp());
                      double total = 0.0;
                      for (double w : p) total += w;
                      return core::format_number(total, 3);
                    }()});
  envelope.add_row({"Clock [MHz]", "200", "200", "125", "200"});
  std::printf("%s\n", envelope.to_string().c_str());

  core::Table table({"Network", "Metric", "Eyeriss Base", "Eyeriss 1k PEs",
                     "SCOPE", "ACOUSTIC LP"});
  obs::Bench bench("table3_performance_lp", obs::BenchOptions::from_env());
  for (const nn::NetworkDesc& net : nn::table3_workloads()) {
    const auto eb = baselines::eyeriss_run(base, net);
    const auto e1k = baselines::eyeriss_run(big, net);
    const auto sc = baselines::scope_run(net);
    const core::InferenceCost cost = lp.run(net);
    const std::string prefix = "table3/" + core::bench_slug(net.name);
    core::record_cost(bench, prefix + "/acoustic_lp", cost);
    core::record_point(bench, prefix + "/eyeriss_base", eb);
    core::record_point(bench, prefix + "/eyeriss_1k", e1k);
    core::record_point(bench, prefix + "/scope", sc);
    table.add_row({net.name, "Fr/J",
                   perf_cell(eb.frames_per_j, eb.available),
                   perf_cell(e1k.frames_per_j, e1k.available),
                   perf_cell(sc.frames_per_j, sc.available),
                   core::format_number(cost.frames_per_j, 4)});
    table.add_row({"", "Fr/s",
                   perf_cell(eb.frames_per_s, eb.available),
                   perf_cell(e1k.frames_per_s, e1k.available),
                   perf_cell(sc.frames_per_s, sc.available),
                   core::format_number(cost.frames_per_s, 4)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Headline ratios the paper quotes in the abstract / conclusion.
  const auto vgg_cost = lp.run(nn::vgg16());
  const auto vgg_1k = baselines::eyeriss_run(big, nn::vgg16());
  const auto alex_cost = lp.run(nn::alexnet());
  const auto alex_scope = baselines::scope_run(nn::alexnet());
  const auto alex_base = baselines::eyeriss_run(base, nn::alexnet());
  std::printf("headline ratios (paper / measured):\n");
  std::printf("  energy efficiency vs Eyeriss-1k on VGG-16: paper 38.7x, "
              "measured %.1fx\n",
              vgg_cost.frames_per_j / vgg_1k.frames_per_j);
  std::printf("  energy efficiency vs SCOPE on AlexNet:      paper 19.0x, "
              "measured %.1fx\n",
              alex_cost.frames_per_j / alex_scope.frames_per_j);
  std::printf("  throughput vs Eyeriss base on VGG-16:       paper 51.8x, "
              "measured %.1fx\n",
              vgg_cost.frames_per_s /
                  baselines::eyeriss_run(base, nn::vgg16()).frames_per_s);
  std::printf("  throughput vs Eyeriss base on AlexNet:      paper  5.8x, "
              "measured %.1fx\n",
              alex_cost.frames_per_s / alex_base.frames_per_s);
  std::printf("\nAlexNet latency/energy (batch 1): %.2f ms / %.3f mJ "
              "on-chip (+%.2f mJ DRAM)\n", alex_cost.latency_s * 1e3,
              alex_cost.on_chip_energy_j * 1e3,
              alex_cost.dram_energy_j * 1e3);
  std::printf("(paper abstract: 4 ms / 0.4 mJ per AlexNet image)\n");

  if (!json_path.empty()) {
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
      "table3_performance_lp",
      "Table III: ACOUSTIC LP against Eyeriss (168 and 1024 PEs) and SCOPE "
      "on the zoo workloads.",
      {},
      {core::cli::text("--json", "PATH",
                       "also write the table as a bench.v1 document to PATH",
                       json_path)}};
  return core::cli::run(table,
                        std::vector<std::string>(argv + 1, argv + argc),
                        [&] { return print_table(json_path); });
}
