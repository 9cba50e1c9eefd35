// Section II-C claims: computation-skipping stochastic average pooling
//  1. cuts conv-layer computation (and hence latency/energy) by the pooling
//     window area: 4x for 2x2, 9x for 3x3;
//  2. costs almost nothing in hardware (counter grows 2.7-8.7%, < 1% of
//     accelerator area);
//  3. is statistically equivalent to MUX average pooling (and avg vs max
//     pooling costs < 0.3% accuracy). The comparison run here is the
//     "sc-mux" backend: the conv unfused at every window position, then
//     the exact binary average pool; no MUX select is modelled.
#include <cstdio>

#include "core/report.hpp"
#include "energy/energy_model.hpp"
#include "nn/pool.hpp"
#include "sim/backend.hpp"
#include "sim/batch_evaluator.hpp"
#include "train/models.hpp"
#include "train/trainer.hpp"

using namespace acoustic;

int main() {
  std::printf("=== Section II-C: computation-skipping average pooling "
              "===\n\n");

  // --- 1. latency / energy reduction on a conv layer ---
  core::Table reduction({"pooling window", "MAC cycles", "conv latency",
                         "compute-energy ratio", "paper claim"});
  nn::LayerDesc layer;
  layer.kind = nn::OpKind::kConv2D;
  layer.label = "conv";
  layer.in_h = 36;
  layer.in_w = 36;
  layer.in_c = 96;
  layer.kernel = 3;
  layer.padding = 1;
  layer.out_c = 128;

  const perf::ArchConfig arch = perf::lp();
  const auto k = energy::tsmc28();
  nn::LayerDesc no_pool = layer;
  no_pool.pool = 0;
  const perf::LayerMapping base = perf::map_layer(no_pool, arch);
  const double base_mac_energy =
      static_cast<double>(base.product_bits) * k.mac_product_bit_j;
  for (int pool : {0, 2, 3}) {
    nn::LayerDesc l = layer;
    l.pool = pool;
    const perf::LayerMapping m = perf::map_layer(l, arch);
    const double mac_energy =
        static_cast<double>(m.product_bits) * k.mac_product_bit_j;
    reduction.add_row(
        {pool == 0 ? "none" : (std::to_string(pool) + "x" +
                               std::to_string(pool)),
         std::to_string(m.mac_cycles),
         core::format_number(static_cast<double>(m.mac_cycles) /
                                 arch.clock_hz() * 1e6, 4) + " us",
         core::format_number(base_mac_energy / mac_energy, 3) + "x",
         pool == 0 ? "1x" : (pool == 2 ? "4x" : "9x")});
  }
  std::printf("%s\n", reduction.to_string().c_str());

  // --- 2. counter area overhead ---
  // Pooling support adds a small (2x-3x) parallel counter in front of each
  // activation counter; the paper puts the counter growth at 2.7-8.7% and
  // the accelerator-level cost below 1%.
  const double counter_area = k.counter_um2;
  core::Table overhead({"pooling window", "counter area [um2]",
                        "counter growth", "share of accelerator"});
  const double accel_um2 = energy::total_area_mm2(arch) * 1e6;
  const auto counts = energy::component_counts(arch);
  for (int pool : {2, 3}) {
    const double growth = pool == 2 ? 0.027 : 0.087;  // paper's range
    const double grown = counter_area * (1.0 + growth);
    const double delta_total =
        static_cast<double>(counts.counters) * counter_area * growth;
    overhead.add_row({std::to_string(pool) + "x" + std::to_string(pool),
                      core::format_number(grown, 4),
                      core::format_number(100.0 * growth, 2) + "%",
                      core::format_number(100.0 * delta_total / accel_um2,
                                          2) + "%"});
  }
  std::printf("%s\n", overhead.to_string().c_str());

  // --- 3. accuracy: skipping vs unfused pooling, avg vs max pooling ---
  std::printf("training small CNN for the accuracy comparison...\n");
  train::TrainConfig cfg;
  cfg.epochs = 8;
  const train::Dataset tr = train::make_synth_objects(1000, 5, 16);
  const train::Dataset te = train::make_synth_objects(300, 6, 16);

  nn::Network avg_net = train::build_cifar_small(nn::AccumMode::kOrApprox, 16);
  (void)train::fit(avg_net, tr, cfg);
  nn::Network max_net =
      train::build_cifar_small_maxpool(nn::AccumMode::kOrApprox, 16);
  (void)train::fit(max_net, tr, cfg);

  sim::ScConfig skip;
  skip.stream_length = 256;
  sim::ScConfig mux = skip;
  mux.pooling = sim::PoolingMode::kMux;

  // The batch evaluator surfaces the merged executor stats, so besides the
  // accuracy equivalence we can *measure* claim 1 end to end: the skipping
  // run performs ~window-area-fewer MAC product bits than the unfused run.
  sim::BatchEvaluator evaluator(0);
  const auto skip_backend = sim::make_sc_backend(avg_net, skip);
  const auto mux_backend = sim::make_sc_backend(avg_net, mux);
  const sim::EvalResult res_skip = evaluator.evaluate(*skip_backend, te);
  const sim::EvalResult res_mux = evaluator.evaluate(*mux_backend, te);
  const float acc_avg_float = train::evaluate(avg_net, te);
  const float acc_max_float = train::evaluate(max_net, te);

  core::Table acc({"configuration", "accuracy [%]", "MAC product bits"});
  acc.add_row({"avg pooling, float reference",
               core::format_number(100.0 * acc_avg_float, 4), "-"});
  acc.add_row({"max pooling, float reference",
               core::format_number(100.0 * acc_max_float, 4), "-"});
  acc.add_row({"SC, skipping pooling (256 streams)",
               core::format_number(100.0 * res_skip.accuracy, 4),
               core::format_number(
                   static_cast<double>(res_skip.stats.product_bits), 4)});
  acc.add_row({"SC, unfused conv + exact avg pool (256 streams)",
               core::format_number(100.0 * res_mux.accuracy, 4),
               core::format_number(
                   static_cast<double>(res_mux.stats.product_bits), 4)});
  std::printf("%s\n", acc.to_string().c_str());
  std::printf("measured conv-compute reduction (unfused / skipping "
              "product bits): %sx\n\n",
              core::format_number(
                  static_cast<double>(res_mux.stats.product_bits) /
                      static_cast<double>(res_skip.stats.product_bits),
                  3).c_str());
  std::printf("Paper shape: skipping == MUX pooling statistically "
              "(ACOUSTIC regenerates\nstreams per layer, removing the "
              "correlation concern), avg vs max\npooling differ by "
              "< 0.3%% for small CNNs, and the measured product-bit\n"
              "ratio shows the pooled conv layers doing ~window-area less "
              "MAC work.\nThe twin here averages the unfused conv's "
              "outputs exactly in binary; it\nmodels no MUX select.\n");
  return 0;
}
