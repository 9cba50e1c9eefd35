#include "core/report.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/eyeriss.hpp"
#include "core/accelerator.hpp"
#include "obs/bench_harness.hpp"

namespace acoustic::core {
namespace {

TEST(Table, RendersHeaderAndRule) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_NE(out.find("x"), std::string::npos);
}

TEST(Table, AlignsColumns) {
  Table t({"a", "b"});
  t.add_row({"longvalue", "1"});
  t.add_row({"x", "22"});
  const std::string out = t.to_string();
  // Both data rows start their second column at the same offset.
  const std::size_t line2 = out.find("longvalue");
  const std::size_t line3 = out.find("x", line2);
  const std::size_t col_b_row2 = out.find('1', line2) - line2;
  const std::size_t col_b_row3 = out.find("22", line3) - line3;
  EXPECT_EQ(col_b_row2, col_b_row3);
}

TEST(Table, RejectsWrongColumnCount) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(FormatNumber, SignificantDigits) {
  EXPECT_EQ(format_number(1234.5678, 4), "1235");
  EXPECT_EQ(format_number(0.0001234, 2), "0.00012");
}

TEST(FormatNumber, NanIsNa) {
  EXPECT_EQ(format_number(std::nan(""), 3), "N/A");
}

TEST(BenchRecord, TableCellsBecomeBenchV1Entries) {
  EXPECT_EQ(bench_slug("VGG-16"), "vgg_16");
  EXPECT_EQ(bench_slug("CIFAR-10 CNN-conv"), "cifar_10_cnn_conv");

  obs::Bench bench("report_test", obs::BenchOptions{});
  InferenceCost cost;
  cost.frames_per_j = 2.0;
  cost.perf.dram_bytes = 64;
  record_cost(bench, "t/net/acoustic", cost);
  record_point(bench, "t/net/base",
               baselines::Performance{.frames_per_s = 3.0,
                                      .frames_per_j = 4.0});
  // A baseline that does not publish the workload records nothing.
  record_point(bench, "t/net/na",
               baselines::Performance{.frames_per_s = 5.0,
                                      .frames_per_j = 6.0,
                                      .available = false});

  const obs::BenchDocument& doc = bench.document();
  ASSERT_EQ(doc.entries.size(), 10u);
  const obs::BenchEntry* fpj = doc.find("t/net/acoustic/frames_per_j");
  ASSERT_NE(fpj, nullptr);
  EXPECT_FALSE(fpj->lower_is_better);
  EXPECT_EQ(fpj->stats.median, 2.0);
  const obs::BenchEntry* bytes = doc.find("t/net/acoustic/dram_bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_TRUE(bytes->lower_is_better);
  EXPECT_EQ(bytes->stats.median, 64.0);
  const obs::BenchEntry* fps = doc.find("t/net/base/frames_per_s");
  ASSERT_NE(fps, nullptr);
  EXPECT_FALSE(fps->lower_is_better);
  EXPECT_EQ(fps->stats.median, 3.0);
  EXPECT_EQ(doc.find("t/net/na/frames_per_s"), nullptr);
}

}  // namespace
}  // namespace acoustic::core
