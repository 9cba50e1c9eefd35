#include "sim/sc_mac.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "sc/rng.hpp"
#include "sim/sc_network.hpp"

namespace acoustic::sim {
namespace {

ScConfig long_config() {
  ScConfig cfg;
  cfg.stream_length = 8192;
  cfg.sng_width = 12;
  return cfg;
}

TEST(SplitMac, Figure1Example) {
  // The paper's Fig. 1: 2-wide MAC, activations {0.75, 0.25}, weights
  // {0.5, -0.5}, ideal result 0.75*0.5 - 0.25*0.5 = 0.25.
  const std::vector<double> acts{0.75, 0.25};
  const std::vector<double> wgts{0.5, -0.5};
  const SplitMacTrace trace = split_unipolar_mac(acts, wgts, long_config());
  EXPECT_NEAR(trace.result, 0.25, 0.03);
  EXPECT_NEAR(trace.expected, 0.25, 1e-9);
}

TEST(SplitMac, TraceStructure) {
  const std::vector<double> acts{0.75, 0.25};
  const std::vector<double> wgts{0.5, -0.5};
  ScConfig cfg;
  cfg.stream_length = 16;  // Fig. 1 uses 8 bits per phase
  const SplitMacTrace trace = split_unipolar_mac(acts, wgts, cfg);
  ASSERT_EQ(trace.product.size(), 2u);
  EXPECT_EQ(trace.or_pos.size(), 8u);
  EXPECT_EQ(trace.or_neg.size(), 8u);
  // Lane 0 has the positive weight: its product feeds the + phase OR.
  EXPECT_EQ(trace.product[0].size(), 8u);
  // Counter trace: count after + phase only counts up.
  EXPECT_GE(trace.count_after_pos, 0);
  EXPECT_GE(trace.count_after_pos, trace.count_final);
}

TEST(SplitMac, AllPositiveWeightsNeverCountDown) {
  const std::vector<double> acts{0.5, 0.5, 0.5};
  const std::vector<double> wgts{0.3, 0.2, 0.4};
  const SplitMacTrace trace = split_unipolar_mac(acts, wgts, long_config());
  EXPECT_EQ(trace.count_after_pos, trace.count_final);
  EXPECT_EQ(trace.or_neg.count_ones(), 0u);
}

TEST(SplitMac, AllNegativeWeightsGiveNegativeResult) {
  const std::vector<double> acts{0.8, 0.6};
  const std::vector<double> wgts{-0.5, -0.5};
  const SplitMacTrace trace = split_unipolar_mac(acts, wgts, long_config());
  EXPECT_LT(trace.result, 0.0);
  EXPECT_EQ(trace.count_after_pos, 0);
}

TEST(SplitMac, MatchesOrExpectationWideAccumulation) {
  // 32-wide MAC: the counter recovers (1-prod(1-a w+)) - (1-prod(1-a w-)).
  std::vector<double> acts;
  std::vector<double> wgts;
  for (int i = 0; i < 32; ++i) {
    acts.push_back(0.1 + 0.025 * (i % 8));
    wgts.push_back((i % 3 == 0 ? -1.0 : 1.0) * (0.05 + 0.02 * (i % 5)));
  }
  const SplitMacTrace trace = split_unipolar_mac(acts, wgts, long_config());
  EXPECT_NEAR(trace.result, trace.expected, 0.04);
}

TEST(SplitMac, ZeroWeightsContributeNothing) {
  const std::vector<double> acts{0.9, 0.9};
  const std::vector<double> wgts{0.0, 0.0};
  const SplitMacTrace trace = split_unipolar_mac(acts, wgts, long_config());
  EXPECT_EQ(trace.count_final, 0);
}

TEST(SplitMac, LaneCountMismatchThrows) {
  const std::vector<double> acts{0.5};
  const std::vector<double> wgts{0.5, 0.5};
  EXPECT_THROW((void)split_unipolar_mac(acts, wgts, long_config()),
               std::invalid_argument);
}

TEST(SplitMac, MatchesTheExecutorsDenseNode) {
  // The trace MAC counts the bits ScNetwork counts for a dense(n->1)
  // node, whose activation and weight lanes are both the input index i:
  // through the scalar oracle and the planned body, with the lanes
  // decorrelated and with naive RNG sharing.
  for (const bool decorrelate : {true, false}) {
    for (const std::size_t length : {16u, 128u, 256u, 1000u}) {
      for (std::uint32_t seed = 1; seed <= 6; ++seed) {
        sc::XorShift32 rng(seed * 31u + static_cast<std::uint32_t>(length));
        const int n = 1 + static_cast<int>(rng.next() % 48);
        nn::Network net;
        auto& dense = net.add<nn::Dense>(nn::DenseSpec{
            .in_features = n, .out_features = 1,
            .mode = nn::AccumMode::kOrExact});
        nn::Tensor x(nn::Shape{1, 1, n});
        std::vector<double> acts;
        std::vector<double> wgts;
        for (int i = 0; i < n; ++i) {
          x[static_cast<std::size_t>(i)] =
              static_cast<float>(rng.next_double());
          const auto w = static_cast<float>(2.0 * rng.next_double() - 1.0);
          dense.weights()[dense.weight_index(0, i)] = w;
          acts.push_back(x[static_cast<std::size_t>(i)]);
          wgts.push_back(w);
        }
        ScConfig cfg;
        cfg.stream_length = length;
        cfg.activation_seed = seed;
        cfg.weight_seed = seed * 7919u;
        cfg.decorrelate_lanes = decorrelate;
        const SplitMacTrace trace = split_unipolar_mac(acts, wgts, cfg);
        for (const ExecMode exec : {ExecMode::kScalar, ExecMode::kPlanned}) {
          cfg.exec = exec;
          ScNetwork executor(net, cfg);
          const nn::Tensor got = executor.forward(x);
          ASSERT_EQ(got.size(), 1u);
          EXPECT_EQ(got[0], static_cast<float>(trace.result))
              << "decorrelate " << decorrelate << " length " << length
              << " seed " << seed << " n " << n
              << (exec == ExecMode::kScalar ? " scalar" : " planned");
        }
      }
    }
  }
}

/// Accuracy improves with stream length (the paper's core trade-off).
class StreamLengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StreamLengthTest, ErrorShrinksWithLength) {
  const std::size_t length = GetParam();
  std::vector<double> acts;
  std::vector<double> wgts;
  for (int i = 0; i < 16; ++i) {
    acts.push_back(0.2 + 0.04 * (i % 6));
    wgts.push_back((i % 2 ? 1.0 : -1.0) * (0.1 + 0.03 * (i % 4)));
  }
  double worst = 0.0;
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    ScConfig cfg;
    cfg.stream_length = length;
    cfg.sng_width = 10;
    cfg.activation_seed = seed;
    cfg.weight_seed = seed * 7919;
    const SplitMacTrace t = split_unipolar_mac(acts, wgts, cfg);
    worst = std::max(worst, std::fabs(t.result - t.expected));
  }
  // Statistical error ~ 1/sqrt(n); allow a generous constant.
  EXPECT_LT(worst, 6.0 / std::sqrt(static_cast<double>(length / 2)));
}

INSTANTIATE_TEST_SUITE_P(Lengths, StreamLengthTest,
                         ::testing::Values(std::size_t{64}, std::size_t{256},
                                           std::size_t{1024},
                                           std::size_t{4096}));

}  // namespace
}  // namespace acoustic::sim
