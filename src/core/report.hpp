// Text-table formatting for the benchmark harnesses and CLI, and the
// bench.v1 entries of Tables III and IV.
#pragma once

#include <string>
#include <vector>

namespace acoustic::baselines {
struct Performance;  // baselines/eyeriss.hpp
}  // namespace acoustic::baselines

namespace acoustic::obs {
class Bench;  // obs/bench_harness.hpp
}  // namespace acoustic::obs

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

struct InferenceCost;  // core/accelerator.hpp

/// @p name lower-cased, each run of other than [a-z0-9] replaced by one
/// '_' ("VGG-16" -> "vgg_16"): the network part of a table entry name.
[[nodiscard]] std::string bench_slug(const std::string& name);

/// Records one ACOUSTIC performance+energy evaluation as bench.v1 entries
/// "<prefix>/<metric>": frames_per_j and frames_per_s (higher is better),
/// then latency_s, on_chip_energy_j, dram_energy_j, total_cycles,
/// instructions_dispatched and dram_bytes (lower is better).
void record_cost(obs::Bench& bench, const std::string& prefix,
                 const InferenceCost& cost);

/// Records a baseline accelerator's frames_per_j and frames_per_s under
/// "<prefix>/" (higher is better); nothing when the baseline does not
/// publish the workload.
void record_point(obs::Bench& bench, const std::string& prefix,
                  const baselines::Performance& point);

/// Writes @p content to @p path; throws std::runtime_error on failure.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace acoustic::core
