// Table-driven command-line parsing shared by every entry point: the
// `acoustic` subcommands and the bench/table* programs.
//
// A command is one OptionTable: its usage words, a summary, its required
// positionals and one row per option. A row is a flag, a value
// placeholder (empty for a switch), a help line and a setter bound
// straight into the config the command already runs on (sim::ScConfig,
// perf::ArchConfig, analysis::CheckOptions, ...), so no option struct
// copies those fields. The grammar is `--flag value`, bare switches and
// positionals; `-` alone is a positional (stdin), any other word that
// starts with '-' is a flag. Every command also takes `--help`, whose text
// is generated from the rows.
//
// parse() matches every word to its row first and then applies the rows
// in *table order*; a flag given twice applies in command-line order
// within its row, so a repeated scalar keeps its last value and a list
// accumulates. Table order lets a preset row (`--arch`) sit before the
// fields it sets, wherever the user writes it. Malformed input — an
// unknown flag, a missing value, a stray positional, a number that does
// not parse whole, an unknown choice — throws UsageError naming the flag,
// before the command does any work.
#pragma once

#include <charconv>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace acoustic::core::cli {

/// A malformed command line; what() names the offending flag or argument.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Command-line words after the program (and command) name.
using Args = std::span<const std::string>;

/// Receives a row's value ("" for a switch); throws UsageError for a value
/// it cannot take (the parser prefixes the flag).
using Setter = std::function<void(const std::string& value)>;

struct Option {
  std::string flag;   ///< "--stream"
  std::string value;  ///< help placeholder ("N", "FILE"); empty = switch
  std::string help;
  Setter set;
};

struct Positional {
  std::string name;  ///< usage placeholder ("NETWORK")
  std::string help;
  Setter set;
};

struct OptionTable {
  std::string command;  ///< "acoustic eval": usage line and error prefix
  std::string summary;  ///< help paragraph under the usage line
  std::vector<Positional> positionals;  ///< all required, in order
  std::vector<Option> options;          ///< applied in this order
};

/// Switch: sets @p target to @p value.
inline Option flag(std::string flag, std::string help, bool& target,
                   bool value = true) {
  return {std::move(flag), "", std::move(help),
          [&target, value](const std::string&) { target = value; }};
}

/// Free text.
inline Option text(std::string flag, std::string value, std::string help,
                   std::string& target) {
  return {std::move(flag), std::move(value), std::move(help),
          [&target](const std::string& v) { target = v; }};
}

/// Repeatable: every occurrence appends its value.
inline Option list(std::string flag, std::string value, std::string help,
                   std::vector<std::string>& target) {
  return {std::move(flag), std::move(value), std::move(help),
          [&target](const std::string& v) { target.push_back(v); }};
}

/// Parses all of @p text as a T with std::from_chars: no sign on an
/// unsigned type, no overflow, no trailing characters, finite floats.
template <class T>
T parse_number(const std::string& text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw UsageError("value '" + text + "' is out of range");
  }
  if (ec != std::errc{} || ptr != end ||
      !std::isfinite(static_cast<double>(value))) {
    const char* kind = std::is_floating_point_v<T> ? "a number"
                       : std::is_unsigned_v<T>     ? "a non-negative integer"
                                                   : "an integer";
    throw UsageError(std::string("expected ") + kind + ", got '" + text +
                     "'");
  }
  return value;
}

/// Strict number in [@p min, @p max] (see parse_number).
template <class T>
Option number(std::string flag, std::string value, std::string help,
              T& target, T min = std::numeric_limits<T>::lowest(),
              T max = std::numeric_limits<T>::max()) {
  return {std::move(flag), std::move(value), std::move(help),
          [&target, min, max](const std::string& v) {
            const T n = parse_number<T>(v);
            if (n < min) {
              throw UsageError("value '" + v + "' is below the minimum " +
                               std::to_string(min));
            }
            if (n > max) {
              throw UsageError("value '" + v + "' is above the limit " +
                               std::to_string(max));
            }
            target = n;
          }};
}

/// One of a fixed set of named values; the placeholder lists the names.
template <class T>
Option choice(std::string flag, std::string help, T& target,
              std::vector<std::pair<std::string, T>> choices) {
  std::string names;
  for (const auto& entry : choices) {
    names += (names.empty() ? "" : "|") + entry.first;
  }
  Setter set = [&target, choices = std::move(choices),
                names](const std::string& v) {
    for (const auto& [name, value] : choices) {
      if (name == v) {
        target = value;
        return;
      }
    }
    throw UsageError("unknown value '" + v + "' (expected one of " + names +
                     ")");
  };
  return {std::move(flag), std::move(names), std::move(help),
          std::move(set)};
}

/// choice() over plain names, stored as the chosen name.
Option choice(std::string flag, std::string help, std::string& target,
              std::span<const std::string_view> names);

/// Applies @p args to @p table (see the file comment). Returns false, with
/// the generated help printed on stdout, when `--help` was given.
[[nodiscard]] bool parse(const OptionTable& table, Args args);

/// The generated help text of @p table.
[[nodiscard]] std::string help(const OptionTable& table);

/// One entry point: parse(), then @p body. `--help` returns 0; a
/// UsageError prints "<command>: <message>" and a --help hint on stderr
/// and returns 2; any other exception prints "<command>: <message>" and
/// returns 1.
int run(const OptionTable& table, Args args, const std::function<int()>& body);

/// A subcommand of a multi-command program.
struct Command {
  std::string name;
  std::string summary;  ///< its line in the command list
  std::function<int(Args)> run;
};

/// Runs the command named by args[0] on the remaining words. `--help`
/// prints the command list (generated from @p commands) on stdout and
/// returns 0; no command or an unknown one prints it on stderr and
/// returns 2.
int dispatch(const std::string& program, const std::vector<Command>& commands,
             Args args);

}  // namespace acoustic::core::cli
