// Tests for the extension accumulator (APC).
#include <gtest/gtest.h>

#include <vector>

#include "sc/apc.hpp"
#include "sc/gates.hpp"
#include "sc/sng.hpp"

namespace acoustic::sc {
namespace {

TEST(Apc, SumsColumnPopcounts) {
  std::vector<BitStream> streams;
  BitStream a(8);
  a.set_bit(0, true);
  a.set_bit(3, true);
  BitStream b(8, true);
  streams.push_back(a);
  streams.push_back(b);
  EXPECT_EQ(apc_accumulate(streams), 10);
  EXPECT_DOUBLE_EQ(apc_value(streams), 10.0 / 8.0);
}

TEST(Apc, EmptyInputIsZero) {
  std::vector<BitStream> none;
  EXPECT_EQ(apc_accumulate(none), 0);
  EXPECT_DOUBLE_EQ(apc_value(none), 0.0);
}

TEST(Apc, RecoversWideSumsWithoutSaturation) {
  // The APC's selling point: no saturation, no scaling — a 256-wide sum
  // of 0.05s recovers ~12.8 where OR saturates near 1.
  std::vector<BitStream> streams;
  std::vector<double> values;
  Sng sng(16, 0x600D);
  for (int i = 0; i < 256; ++i) {
    values.push_back(0.05);
    streams.push_back(sng.generate(0.05, 4096));
  }
  const double apc = apc_value(streams);
  EXPECT_NEAR(apc, 12.8, 0.5);
  const double orv = or_accumulate(streams).value();
  EXPECT_LT(orv, 1.0 + 1e-9);
}

}  // namespace
}  // namespace acoustic::sc
