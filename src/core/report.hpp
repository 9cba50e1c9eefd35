// Text-table and JSON formatting for the benchmark harnesses and CLI.
//
// The low-level JSON primitives live in obs/json.hpp (obs sits below this
// library in the link order); core re-exports them so the benches keep one
// include for "format my results".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "sim/batch_evaluator.hpp"

namespace acoustic::baselines {
struct Performance;  // baselines/eyeriss.hpp
}  // namespace acoustic::baselines

namespace acoustic::core {

/// A simple column-aligned text table (first row = header).
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Renders with column alignment and a header rule.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

/// Formats @p value with @p digits significant digits ("N/A" for NaN).
[[nodiscard]] std::string format_number(double value, int digits = 4);

/// Escapes @p text for inclusion inside a JSON string literal (quotes,
/// backslashes and control characters).
[[nodiscard]] inline std::string json_escape(const std::string& text) {
  return obs::json_escape(text);
}

/// Shortest representation that round-trips a double (NaN/Inf -> null).
[[nodiscard]] inline std::string json_number(double value) {
  return obs::json_number(value);
}
[[nodiscard]] inline std::string json_number(std::uint64_t value) {
  return obs::json_number(value);
}

/// Serializes one dataset-evaluation result as a pretty-printed JSON
/// object (stable key order; numbers round-trip at full precision).
[[nodiscard]] std::string to_json(const sim::EvalResult& result);

struct InferenceCost;  // core/accelerator.hpp

/// Serializes one performance+energy evaluation as a compact single-line
/// JSON object, for embedding in the bench harnesses' --json documents.
[[nodiscard]] std::string to_json(const InferenceCost& cost);

/// One baseline accelerator's throughput/efficiency point as a compact
/// JSON object, or null when the baseline does not publish the workload.
[[nodiscard]] std::string to_json(const baselines::Performance& point);

}  // namespace acoustic::core
