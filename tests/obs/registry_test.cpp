// obs::Registry: counter and gauge semantics and both exporters.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace acoustic {
namespace {

TEST(Registry, CountersAccumulate) {
  obs::Registry reg;
  reg.add("a");
  reg.add("a", 41);
  reg.add("b", 7);
  EXPECT_EQ(reg.counter("a"), 42u);
  EXPECT_EQ(reg.counter("b"), 7u);
  EXPECT_EQ(reg.counter("missing"), 0u);
}

TEST(Registry, GaugesLastWrite) {
  obs::Registry reg;
  reg.set("g", 1.5);
  reg.set("g", -2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("g"), -2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("missing"), 0.0);
}

TEST(Registry, JsonExportShape) {
  obs::Registry reg;
  reg.add("z.counter", 3);
  reg.add("a.counter", 1);
  reg.set("gauge", 0.25);
  const std::string json = reg.to_json();
  // Stable sorted key order inside each section.
  EXPECT_LT(json.find("\"a.counter\""), json.find("\"z.counter\""));
  EXPECT_NE(json.find("\"gauge\": 0.25"), std::string::npos);
  // The object holds exactly two members, "counters" then "gauges".
  EXPECT_EQ(json,
            "{\n"
            "  \"counters\": {\n"
            "    \"a.counter\": 1,\n"
            "    \"z.counter\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"gauge\": 0.25\n"
            "  }\n"
            "}");
  // An empty registry keeps both (empty) members.
  EXPECT_EQ(obs::Registry().to_json(),
            "{\n  \"counters\": {},\n  \"gauges\": {}\n}");
}

TEST(Registry, PrometheusExportShape) {
  obs::Registry reg;
  reg.add("sc.product_bits", 9);
  reg.set("eval.accuracy", 0.5);
  const std::string text = reg.to_prometheus();
  // Names sanitized to [a-zA-Z0-9_:], TYPE lines present.
  EXPECT_NE(text.find("# TYPE sc_product_bits counter"), std::string::npos);
  EXPECT_NE(text.find("sc_product_bits 9"), std::string::npos);
  EXPECT_NE(text.find("# TYPE eval_accuracy gauge"), std::string::npos);
  EXPECT_NE(text.find("eval_accuracy 0.5"), std::string::npos);
}

TEST(Registry, PrometheusHelpLines) {
  obs::Registry reg;
  reg.add("sc.product_bits", 9);
  reg.describe("sc.product_bits", "AND-gate product bits popcounted");
  reg.set("hw.ipc", 1.5);
  reg.describe("hw.ipc", "line1\nline2 with back\\slash");
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# HELP sc_product_bits AND-gate product bits "
                      "popcounted\n# TYPE sc_product_bits counter\n"),
            std::string::npos);
  // HELP escaping: newline -> \n, backslash -> \\ (exposition format).
  EXPECT_NE(text.find("# HELP hw_ipc line1\\nline2 with back\\\\slash"),
            std::string::npos);
  // Descriptions are exposition-only — JSON is unchanged by describe().
  EXPECT_EQ(text.find("# HELP eval_"), std::string::npos);
  EXPECT_EQ(reg.to_json().find("AND-gate"), std::string::npos);
}

TEST(Registry, PrometheusSanitizerEdgeCases) {
  EXPECT_EQ(obs::prometheus_sanitize("layer.conv5x5(1->6).calls"),
            "layer_conv5x5_1__6__calls");
  EXPECT_EQ(obs::prometheus_sanitize("9lives"), "_9lives");
  EXPECT_EQ(obs::prometheus_sanitize(""), "_");
  EXPECT_EQ(obs::prometheus_sanitize("ok_name:x"), "ok_name:x");
  EXPECT_EQ(obs::prometheus_escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Registry, PrometheusCollisionsGroupUnderOneFamily) {
  obs::Registry reg;
  // "a.b" and "a_b" sanitize identically: one family, one # TYPE line,
  // members disambiguated with a name label.
  reg.add("a.b", 1);
  reg.add("a_b", 2);
  // Cross-kind collision: the gauge cannot reuse the counter's family
  // name (duplicate # TYPE lines are rejected by scrapers) — it gets a
  // kind suffix.
  reg.set("a-b", 0.5);
  const std::string text = reg.to_prometheus();

  std::size_t type_lines = 0;
  for (std::size_t pos = text.find("# TYPE a_b counter");
       pos != std::string::npos;
       pos = text.find("# TYPE a_b counter", pos + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_NE(text.find("a_b{name=\"a.b\"} 1"), std::string::npos);
  EXPECT_NE(text.find("a_b{name=\"a_b\"} 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE a_b_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("a_b_gauge 0.5"), std::string::npos);
}

TEST(Registry, PrometheusExpositionRoundTrip) {
  // Validate the full exposition grammar the way a scraper would: every
  // line is a comment or `name[{labels}] value`, names match
  // [a-zA-Z_:][a-zA-Z0-9_:]*, and no metric family gets two TYPE lines.
  obs::Registry reg;
  reg.add("layer.conv5x5(1->6).calls", 20);
  reg.add("layer.conv5x5(1->6).product_bits", 1525176);
  reg.describe("layer.conv5x5(1->6).calls", "images through the layer");
  reg.set("eval.accuracy", 0.85);
  reg.set("hw.wall_ns", 123456.0);
  const std::string text = reg.to_prometheus();

  const auto is_name_char = [](char c, bool first) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    return first ? alpha : (alpha || (c >= '0' && c <= '9'));
  };
  std::set<std::string> typed;
  std::size_t samples = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "unterminated last line";
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string family =
            line.substr(7, line.find(' ', 7) - 7);
        EXPECT_TRUE(typed.insert(family).second)
            << "duplicate # TYPE for " << family;
      }
      continue;
    }
    // name[{labels}] value
    std::size_t i = 0;
    ASSERT_TRUE(is_name_char(line[0], true)) << line;
    while (i < line.size() && is_name_char(line[i], false)) {
      ++i;
    }
    if (i < line.size() && line[i] == '{') {
      const std::size_t close = line.find('}', i);
      ASSERT_NE(close, std::string::npos) << line;
      i = close + 1;
    }
    ASSERT_LT(i, line.size()) << line;
    ASSERT_EQ(line[i], ' ') << line;
    const std::string value = line.substr(i + 1);
    ASSERT_FALSE(value.empty()) << line;
    (void)std::stod(value);  // throws (fails the test) on a bad number
    ++samples;
  }
  // 2 counters + 2 gauges = 4 sample lines.
  EXPECT_EQ(samples, 4u);
  EXPECT_FALSE(typed.empty());
}

}  // namespace
}  // namespace acoustic
