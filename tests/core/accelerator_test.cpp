#include "core/accelerator.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "baselines/eyeriss.hpp"
#include "baselines/scope.hpp"
#include "baselines/ulp_accelerators.hpp"

namespace acoustic::core {
namespace {

TEST(Accelerator, CompileProducesValidProgram) {
  Accelerator lp(perf::lp());
  for (const auto& net : nn::table3_workloads()) {
    EXPECT_NO_THROW(lp.compile(net).validate()) << net.name;
  }
}

TEST(Accelerator, RejectsNonPositiveBatchOrClock) {
  const auto what = [](const perf::ArchConfig& arch) -> std::string {
    try {
      (void)Accelerator(arch);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  for (const int batch : {0, -3}) {
    perf::ArchConfig arch = perf::lp();
    arch.batch = batch;
    EXPECT_NE(what(arch).find("batch"), std::string::npos) << batch;
  }
  for (const double mhz : {0.0, -200.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    perf::ArchConfig arch = perf::ulp();
    arch.clock_mhz = mhz;
    EXPECT_NE(what(arch).find("clock_mhz"), std::string::npos) << mhz;
  }
  perf::ArchConfig fine = perf::lp();
  fine.batch = 8;
  fine.clock_mhz = 0.5;
  EXPECT_EQ(what(fine), "");
}

TEST(Accelerator, RejectsStreamTooShortToSplit) {
  // Below 2 bits there is no bit left for one of the two sign phases.
  for (const std::uint64_t stream : {0u, 1u}) {
    perf::ArchConfig arch = perf::lp();
    arch.stream_length = stream;
    try {
      (void)Accelerator(arch);
      ADD_FAILURE() << "stream " << stream << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("stream_length"),
                std::string::npos)
          << e.what();
    }
  }
  perf::ArchConfig fine = perf::ulp();
  fine.stream_length = 2;
  EXPECT_NO_THROW((void)Accelerator(fine));
}

TEST(Accelerator, RunProducesConsistentCost) {
  Accelerator lp(perf::lp());
  const InferenceCost cost = lp.run(nn::cifar10_cnn());
  EXPECT_GT(cost.latency_s, 0.0);
  EXPECT_NEAR(cost.frames_per_s * cost.latency_s, 1.0, 1e-9);
  EXPECT_NEAR(cost.frames_per_j * cost.on_chip_energy_j, 1.0, 1e-9);
  EXPECT_EQ(cost.mappings.size(), nn::cifar10_cnn().layers.size());
}

TEST(Accelerator, MoreMacsMoreLatency) {
  Accelerator lp(perf::lp());
  const double alex = lp.run(nn::alexnet()).latency_s;
  const double vgg = lp.run(nn::vgg16()).latency_s;
  const double cifar = lp.run(nn::cifar10_cnn()).latency_s;
  EXPECT_LT(cifar, alex);
  EXPECT_LT(alex, vgg);
}

TEST(Accelerator, LpEnvelopeNearPublished) {
  // Table III row for ACOUSTIC LP: 12 mm^2, 0.35 W, 200 MHz.
  const perf::ArchConfig cfg = perf::lp();
  EXPECT_DOUBLE_EQ(cfg.clock_mhz, 200.0);
  EXPECT_NEAR(energy::total_area_mm2(cfg), 12.0, 1.0);
}

TEST(Accelerator, LpBeatsEyerissOnEfficiencyEverywhere) {
  // The paper's headline: ACOUSTIC LP is more energy efficient than both
  // Eyeriss variants on every Table III workload (up to 38.7x).
  Accelerator lp(perf::lp());
  for (const auto& net : nn::table3_workloads()) {
    const InferenceCost cost = lp.run(net);
    for (const auto& eyeriss :
         {baselines::eyeriss_base(), baselines::eyeriss_1k()}) {
      const auto perf = baselines::eyeriss_run(eyeriss, net);
      EXPECT_GT(cost.frames_per_j, 2.0 * perf.frames_per_j)
          << net.name << " vs " << eyeriss.name;
    }
  }
}

TEST(Accelerator, LpBeatsEyerissBaseOnThroughput) {
  Accelerator lp(perf::lp());
  for (const auto& net : nn::table3_workloads()) {
    const InferenceCost cost = lp.run(net);
    const auto base =
        baselines::eyeriss_run(baselines::eyeriss_base(), net);
    EXPECT_GT(cost.frames_per_s, base.frames_per_s) << net.name;
  }
}

TEST(Accelerator, ScopeWinsRawThroughputLosesEfficiency) {
  // Table III shape: SCOPE's 273 mm^2 of DRAM compute gives it raw Fr/s,
  // but ACOUSTIC is an order of magnitude better in Fr/J.
  Accelerator lp(perf::lp());
  const InferenceCost alex = lp.run(nn::alexnet());
  const auto scope = baselines::scope_run(nn::alexnet());
  EXPECT_GT(scope.frames_per_s, alex.frames_per_s);
  EXPECT_GT(alex.frames_per_j, 5.0 * scope.frames_per_j);
}

TEST(Accelerator, UlpBeatsMdlCnnThroughputBy10xPlus) {
  // Table IV shape: >=10x (paper: up to 123x) on LeNet-5 conv layers.
  Accelerator ulp(perf::ulp());
  const InferenceCost cost = ulp.run(nn::lenet5().conv_only());
  const auto mdl = baselines::mdl_cnn_run(nn::lenet5().conv_only());
  EXPECT_GT(cost.frames_per_s, 10.0 * mdl.frames_per_s);
}

TEST(Accelerator, UlpEfficiencySameOrderAsConvRam) {
  // Table IV shape: similar Fr/J to the analog Conv-RAM engine.
  Accelerator ulp(perf::ulp());
  const InferenceCost cost = ulp.run(nn::lenet5().conv_only());
  const auto cram = baselines::conv_ram_run(nn::lenet5().conv_only());
  EXPECT_GT(cost.frames_per_j, 0.2 * cram.frames_per_j);
  EXPECT_LT(cost.frames_per_j, 5.0 * cram.frames_per_j);
}

TEST(Accelerator, UlpAveragePowerNearPublished) {
  // Table IV reports 3 mW for ACOUSTIC ULP: energy/latency on LeNet conv.
  Accelerator ulp(perf::ulp());
  const InferenceCost cost = ulp.run(nn::lenet5().conv_only());
  const double avg_power = cost.on_chip_energy_j / cost.latency_s;
  EXPECT_NEAR(avg_power, 3e-3, 2e-3);
}

TEST(Accelerator, DramEnergyReportedSeparately) {
  Accelerator lp(perf::lp());
  const InferenceCost cost = lp.run(nn::alexnet());
  EXPECT_GT(cost.dram_energy_j, 0.0);
  // AlexNet moves ~58 MB of FC weights: DRAM energy dominates on-chip.
  EXPECT_GT(cost.dram_energy_j, cost.on_chip_energy_j);
}

TEST(Accelerator, RunLayersCoversEveryLayer) {
  Accelerator lp(perf::lp());
  const auto net = nn::alexnet();
  const auto layers = lp.run_layers(net);
  ASSERT_EQ(layers.size(), net.layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    EXPECT_EQ(layers[i].label, net.layers[i].label);
    EXPECT_GT(layers[i].latency_s, 0.0);
    EXPECT_GT(layers[i].on_chip_energy_j, 0.0);
  }
}

TEST(Accelerator, AlexNetFcLayersAreTheLatencyBottleneck) {
  // The paper's observation (IV-D): AlexNet latency is largely dominated
  // by its fully-connected layers (streaming tens of MB of weights).
  Accelerator lp(perf::lp());
  const auto net = nn::alexnet();
  const auto layers = lp.run_layers(net);
  double conv_latency = 0.0;
  double fc_latency = 0.0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    (net.layers[i].kind == nn::OpKind::kConv2D ? conv_latency
                                                : fc_latency) +=
        layers[i].latency_s;
  }
  EXPECT_GT(fc_latency, conv_latency);
}

TEST(Accelerator, OverlapBeatsIsolatedLayerSum) {
  Accelerator lp(perf::lp());
  const auto net = nn::cifar10_cnn();
  const double whole = lp.run(net).latency_s;
  double summed = 0.0;
  for (const LayerCost& layer : lp.run_layers(net)) {
    summed += layer.latency_s;
  }
  EXPECT_LE(whole, summed * 1.001);
}

}  // namespace
}  // namespace acoustic::core
