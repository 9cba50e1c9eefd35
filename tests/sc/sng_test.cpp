#include "sc/sng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

namespace acoustic::sc {
namespace {

TEST(QuantizeUnipolar, EndpointsAndClamping) {
  EXPECT_EQ(quantize_unipolar(0.0, 8), 0u);
  EXPECT_EQ(quantize_unipolar(1.0, 8), 256u);
  EXPECT_EQ(quantize_unipolar(-0.5, 8), 0u);
  EXPECT_EQ(quantize_unipolar(2.0, 8), 256u);
  EXPECT_EQ(quantize_unipolar(0.5, 8), 128u);
}

TEST(QuantizeUnipolar, Width32Saturates) {
  EXPECT_EQ(quantize_unipolar(1.0, 32), 0xFFFFFFFFu);
}

TEST(QuantizeUnipolar, NonFiniteAndDenormalInputs) {
  // NaN of either sign is a gated (level-0) activation on every platform,
  // not whatever llround makes of it; +Inf saturates like any value above
  // 1; -Inf and denormals quantize to 0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const unsigned width : {3u, 8u, 16u, 32u}) {
    const std::uint32_t cap =
        width >= 32 ? 0xFFFFFFFFu : (std::uint32_t{1} << width);
    EXPECT_EQ(quantize_unipolar(nan, width), 0u) << width;
    EXPECT_EQ(quantize_unipolar(std::copysign(nan, -1.0), width), 0u)
        << width;
    EXPECT_EQ(quantize_unipolar(inf, width), cap) << width;
    EXPECT_EQ(quantize_unipolar(-inf, width), 0u) << width;
    EXPECT_EQ(
        quantize_unipolar(std::numeric_limits<double>::denorm_min(), width),
        0u)
        << width;
    EXPECT_EQ(
        quantize_unipolar(std::numeric_limits<float>::denorm_min(), width), 0u)
        << width;
  }
}

TEST(Sng, FullLevelGivesAllOnes) {
  Sng sng(8, 1);
  const BitStream s = sng.generate(1.0, 256);
  EXPECT_EQ(s.count_ones(), 256u);
}

TEST(Sng, ZeroGivesAllZeros) {
  Sng sng(8, 1);
  const BitStream s = sng.generate(0.0, 256);
  EXPECT_EQ(s.count_ones(), 0u);
}

TEST(Sng, FullLfsrPeriodIsExact) {
  // Over a full LFSR period the stream contains exactly `level` ones for
  // level <= 2^w - 1 (each nonzero state appears once; states < level are
  // the values 1..level-1 plus... precisely: states in [1, 2^w-1], bits
  // fire when state < level, i.e. level-1 of them).
  const std::size_t period = 255;
  for (std::uint32_t level : {1u, 7u, 100u, 200u, 255u}) {
    Sng fresh(8, 1);
    const BitStream s = fresh.generate_level(level, period);
    EXPECT_EQ(s.count_ones(), level - 1) << "level " << level;
  }
}

/// Property sweep: the encoded value converges to the requested one.
class SngAccuracyTest
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(SngAccuracyTest, EncodesValueWithinStatisticalTolerance) {
  const double value = std::get<0>(GetParam());
  const std::size_t length = std::get<1>(GetParam());
  Sng sng(16, 0xACE1);
  const BitStream s = sng.generate(value, length);
  // 4-sigma bound on a Bernoulli mean plus one quantization step.
  const double sigma = std::sqrt(value * (1.0 - value) /
                                 static_cast<double>(length));
  EXPECT_NEAR(s.value(), value, 4.0 * sigma + 1.0 / 65536.0);
}

INSTANTIATE_TEST_SUITE_P(
    ValueLengthGrid, SngAccuracyTest,
    ::testing::Combine(::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9),
                       ::testing::Values(std::size_t{256}, std::size_t{1024},
                                         std::size_t{4096})));

TEST(Sng, SuccessiveCallsContinueSequence) {
  Sng a(8, 5);
  const BitStream first = a.generate(0.5, 64);
  const BitStream second = a.generate(0.5, 64);
  // A free-running LFSR does not repeat its comparison sequence, so two
  // back-to-back streams of the same value differ (decorrelated in time).
  EXPECT_NE(first, second);
}

}  // namespace
}  // namespace acoustic::sc
