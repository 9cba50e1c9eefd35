#include "core/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace acoustic::core::cli {
namespace {

using Words = std::vector<std::string>;

/// A small table covering every setter kind, bound to plain fields.
struct Fixture {
  std::string input;
  unsigned threads = 0;
  std::uint32_t width = 8;
  double threshold = 0.95;
  std::string preset = "lp";
  int batch = 1;
  std::vector<std::string> suites;
  std::string out;
  bool json = false;
  bool probe = true;

  OptionTable table() {
    return {"tool run",
            "A table for the parser tests.",
            {{"INPUT", "what to run",
              [this](const std::string& v) { input = v; }}},
            {// Preset first: it resets batch, which a later row may set.
             {"--arch", "lp|ulp", "preset",
              [this](const std::string& v) {
                preset = v;
                batch = v == "ulp" ? 2 : 1;
              }},
             number("--batch", "N", "batch size", batch),
             number("--threads", "N", "worker threads", threads),
             number("--width", "N", "LFSR width", width),
             number("--threshold", "X", "saturation threshold", threshold),
             list("--suite", "NAME", "suite to run; repeatable", suites),
             text("--out", "FILE", "output file", out),
             flag("--json", "print JSON", json),
             flag("--no-probe", "skip the probe", probe, false)}};
  }

  bool parse(const Words& words) { return cli::parse(table(), words); }
};

/// The UsageError message parse() throws for @p words, or "" if none.
std::string usage_error(const Words& words) {
  Fixture f;
  try {
    (void)f.parse(words);
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, ParsesEverySetterKind) {
  Fixture f;
  ASSERT_TRUE(f.parse({"net", "--threads", "4", "--width", "10",
                       "--threshold", "0.5", "--suite", "plan", "--out",
                       "x.json", "--json", "--no-probe"}));
  EXPECT_EQ(f.input, "net");
  EXPECT_EQ(f.threads, 4U);
  EXPECT_EQ(f.width, 10U);
  EXPECT_DOUBLE_EQ(f.threshold, 0.5);
  EXPECT_EQ(f.suites, Words{"plan"});
  EXPECT_EQ(f.out, "x.json");
  EXPECT_TRUE(f.json);
  EXPECT_FALSE(f.probe);
}

TEST(Cli, DefaultsSurviveWhenFlagsAreAbsent) {
  Fixture f;
  ASSERT_TRUE(f.parse({"net"}));
  EXPECT_EQ(f.threads, 0U);
  EXPECT_DOUBLE_EQ(f.threshold, 0.95);
  EXPECT_TRUE(f.suites.empty());
  EXPECT_FALSE(f.json);
  EXPECT_TRUE(f.probe);
}

TEST(Cli, NumbersMustParseWhole) {
  EXPECT_EQ(usage_error({"net", "--threads", "abc"}),
            "--threads: expected a non-negative integer, got 'abc'");
  EXPECT_NE(usage_error({"net", "--threads", "12x"}), "");
  EXPECT_NE(usage_error({"net", "--threads", ""}), "");
  EXPECT_NE(usage_error({"net", "--threads", " 1"}), "");
  EXPECT_NE(usage_error({"net", "--threads", "+1"}), "");
  EXPECT_NE(usage_error({"net", "--batch", "1.5"}), "");
  EXPECT_NE(usage_error({"net", "--threshold", "0.5x"}), "");
}

TEST(Cli, UnsignedRejectsNegativeValues) {
  EXPECT_EQ(usage_error({"net", "--threads", "-1"}),
            "--threads: expected a non-negative integer, got '-1'");
  // A signed field takes the same token.
  Fixture f;
  ASSERT_TRUE(f.parse({"net", "--batch", "-1"}));
  EXPECT_EQ(f.batch, -1);
}

TEST(Cli, NumbersRejectOverflow) {
  EXPECT_EQ(usage_error({"net", "--width", "99999999999"}),
            "--width: value '99999999999' is out of range");
  EXPECT_EQ(usage_error({"net", "--threshold", "1e999"}),
            "--threshold: value '1e999' is out of range");
  EXPECT_NE(usage_error({"net", "--threshold", "inf"}), "");
  EXPECT_NE(usage_error({"net", "--threshold", "nan"}), "");
}

TEST(Cli, DoubleAcceptsNegativeFraction) {
  Fixture f;
  ASSERT_TRUE(f.parse({"net", "--threshold", "-0.5"}));
  EXPECT_DOUBLE_EQ(f.threshold, -0.5);
  ASSERT_TRUE(f.parse({"net", "--threshold", "2.5e-3"}));
  EXPECT_DOUBLE_EQ(f.threshold, 2.5e-3);
}

TEST(Cli, ParseNumberLimits) {
  EXPECT_EQ(parse_number<std::uint32_t>("4294967295"), 4294967295U);
  EXPECT_THROW((void)parse_number<std::uint32_t>("4294967296"), UsageError);
  EXPECT_EQ(parse_number<int>("-2147483648"), -2147483647 - 1);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            18446744073709551615ULL);
}

TEST(Cli, MissingValueNamesTheFlag) {
  EXPECT_EQ(usage_error({"net", "--threads"}),
            "--threads: missing value N");
}

TEST(Cli, UnknownFlagIsRejected) {
  EXPECT_EQ(usage_error({"net", "--bogus"}), "unknown option '--bogus'");
  // No --flag=value form and no short flags.
  EXPECT_EQ(usage_error({"net", "--threads=2"}),
            "unknown option '--threads=2'");
  EXPECT_EQ(usage_error({"net", "-t"}), "unknown option '-t'");
}

TEST(Cli, StrayAndMissingPositionals) {
  EXPECT_EQ(usage_error({"net", "extra"}), "unexpected argument 'extra'");
  EXPECT_EQ(usage_error({}), "missing INPUT");
  EXPECT_EQ(usage_error({"--json"}), "missing INPUT");
}

TEST(Cli, DashIsAPositional) {
  Fixture f;
  ASSERT_TRUE(f.parse({"--json", "-"}));
  EXPECT_EQ(f.input, "-");
}

TEST(Cli, ValuesMayStartWithDashes) {
  Fixture f;
  ASSERT_TRUE(f.parse({"net", "--out", "--json"}));
  EXPECT_EQ(f.out, "--json");
  EXPECT_FALSE(f.json);
}

TEST(Cli, ChoiceErrorListsTheChoices) {
  std::string mode = "exact";
  const OptionTable table{
      "tool",
      "",
      {},
      {choice("--pool-mode", "pooling", mode,
              {{"exact", std::string("exact")}, {"sc", std::string("sc")}})}};
  ASSERT_TRUE(parse(table, Words{"--pool-mode", "sc"}));
  EXPECT_EQ(mode, "sc");
  try {
    (void)parse(table, Words{"--pool-mode", "fsm"});
    FAIL() << "expected a UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()),
              "--pool-mode: unknown value 'fsm' (expected one of exact|sc)");
  }
  EXPECT_EQ(mode, "sc");
}

TEST(Cli, ChoiceOverNamesStoresTheName) {
  static constexpr std::string_view kNames[] = {"float", "sc", "bipolar"};
  std::string backend = "sc";
  const OptionTable table{
      "tool", "", {}, {choice("--backend", "backend", backend, kNames)}};
  EXPECT_EQ(table.options[0].value, "float|sc|bipolar");
  ASSERT_TRUE(parse(table, Words{"--backend", "bipolar"}));
  EXPECT_EQ(backend, "bipolar");
  EXPECT_THROW((void)parse(table, Words{"--backend", "quantum"}),
               UsageError);
}

TEST(Cli, RepeatedListAccumulatesInOrder) {
  Fixture f;
  ASSERT_TRUE(f.parse({"net", "--suite", "plan", "--json", "--suite",
                       "kernels", "--suite", "plan"}));
  EXPECT_EQ(f.suites, (Words{"plan", "kernels", "plan"}));
}

TEST(Cli, RepeatedScalarKeepsTheLastValue) {
  Fixture f;
  ASSERT_TRUE(f.parse({"net", "--threads", "2", "--threads", "8"}));
  EXPECT_EQ(f.threads, 8U);
}

TEST(Cli, RowsApplyInTableOrder) {
  // --arch is the first row, so its preset never discards --batch, on
  // either side of it on the command line.
  Fixture before;
  ASSERT_TRUE(before.parse({"net", "--arch", "ulp", "--batch", "8"}));
  Fixture after;
  ASSERT_TRUE(after.parse({"net", "--batch", "8", "--arch", "ulp"}));
  for (const Fixture* f : {&before, &after}) {
    EXPECT_EQ(f->preset, "ulp");
    EXPECT_EQ(f->batch, 8);
  }
  Fixture preset_only;
  ASSERT_TRUE(preset_only.parse({"net", "--arch", "ulp"}));
  EXPECT_EQ(preset_only.batch, 2);
}

TEST(Cli, UnknownFlagAppliesNothing) {
  // Matching runs before any row applies, so an unknown flag late on the
  // line leaves the earlier rows and the positional untouched.
  Fixture f;
  EXPECT_THROW((void)f.parse({"net", "--threads", "4", "--bogus"}),
               UsageError);
  EXPECT_EQ(f.threads, 0U);
  EXPECT_EQ(f.input, "");
}

TEST(Cli, HelpListsEveryRow) {
  Fixture f;
  const OptionTable table = f.table();
  const std::string text = help(table);
  EXPECT_EQ(text.rfind("usage: tool run INPUT [options]\n", 0), 0U) << text;
  EXPECT_NE(text.find("A table for the parser tests."), std::string::npos);
  EXPECT_NE(text.find("  INPUT "), std::string::npos);
  for (const Option& option : table.options) {
    const std::string left =
        "  " + option.flag + (option.value.empty() ? "" : " " + option.value);
    EXPECT_NE(text.find(left), std::string::npos) << option.flag;
    EXPECT_NE(text.find(option.help), std::string::npos) << option.flag;
  }
  EXPECT_NE(text.find("  --help "), std::string::npos);
}

TEST(Cli, HelpWrapsLongLines) {
  bool on = false;
  const OptionTable table{
      "tool",
      std::string(30, 'a') + " " + std::string(30, 'b') + " " +
          std::string(30, 'c'),
      {},
      {flag("--on",
            "one two three four five six seven eight nine ten eleven "
            "twelve thirteen fourteen fifteen",
            on)}};
  const std::string text = help(table);
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    EXPECT_LE(end - start, 79U) << text.substr(start, end - start);
    start = end + 1;
  }
  EXPECT_NE(text.find("fifteen"), std::string::npos);
}

TEST(Cli, HelpStopsParsing) {
  Fixture f;
  testing::internal::CaptureStdout();
  const bool proceed = f.parse({"--threads", "4", "--help", "--bogus"});
  const std::string printed = testing::internal::GetCapturedStdout();
  EXPECT_FALSE(proceed);
  EXPECT_EQ(printed, help(f.table()));
  EXPECT_EQ(f.threads, 0U);
}

TEST(Cli, RunMapsOutcomesToExitCodes) {
  Fixture f;
  const OptionTable table = f.table();
  EXPECT_EQ(run(table, Words{"net"}, [] { return 7; }), 7);
  testing::internal::CaptureStderr();
  EXPECT_EQ(run(table, Words{"net", "--threads", "x"}, [] { return 0; }),
            2);
  EXPECT_EQ(run(table, Words{"net"},
                []() -> int { throw UsageError("bad target"); }),
            2);
  EXPECT_EQ(run(table, Words{"net"},
                []() -> int { throw std::runtime_error("disk full"); }),
            1);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("tool run: --threads: expected"), std::string::npos);
  EXPECT_NE(err.find("tool run: bad target\n(see 'tool run --help')"),
            std::string::npos);
  EXPECT_NE(err.find("tool run: disk full\n"), std::string::npos);
  testing::internal::CaptureStdout();
  EXPECT_EQ(run(table, Words{"--help"}, [] { return 7; }), 0);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), help(table));
}

TEST(Cli, DispatchRoutesAndListsCommands) {
  Words seen;
  const std::vector<Command> commands = {
      {"first", "the first command",
       [&](Args args) {
         seen.assign(args.begin(), args.end());
         return 3;
       }},
      {"second", "the second command", [](Args) { return 4; }}};
  EXPECT_EQ(dispatch("tool", commands, Words{"first", "a", "--b"}), 3);
  EXPECT_EQ(seen, (Words{"a", "--b"}));
  EXPECT_EQ(dispatch("tool", commands, Words{"second"}), 4);

  testing::internal::CaptureStdout();
  EXPECT_EQ(dispatch("tool", commands, Words{"--help"}), 0);
  const std::string list = testing::internal::GetCapturedStdout();
  EXPECT_NE(list.find("  first "), std::string::npos);
  EXPECT_NE(list.find("the second command"), std::string::npos);

  testing::internal::CaptureStderr();
  EXPECT_EQ(dispatch("tool", commands, Words{"third"}), 2);
  EXPECT_EQ(dispatch("tool", commands, Words{}), 2);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("tool: unknown command 'third'"), std::string::npos);
  EXPECT_NE(err.find("the first command"), std::string::npos);
}

}  // namespace
}  // namespace acoustic::core::cli
