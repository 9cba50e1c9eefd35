#include "core/report.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

#include "baselines/eyeriss.hpp"
#include "core/accelerator.hpp"

namespace acoustic::core {

Table::Table(std::vector<std::string> header) {
  rows_.push_back(std::move(header));
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != rows_.front().size()) {
    throw std::invalid_argument("Table: column-count mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(rows_.front().size(), 0);
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    for (std::size_t c = 0; c < rows_[r].size(); ++c) {
      const std::string& cell = rows_[r][c];
      out += cell;
      if (c + 1 < rows_[r].size()) {
        out.append(widths[c] - cell.size() + 2, ' ');
      }
    }
    out += '\n';
    if (r == 0) {
      for (std::size_t c = 0; c < widths.size(); ++c) {
        out.append(widths[c], '-');
        if (c + 1 < widths.size()) {
          out += "  ";
        }
      }
      out += '\n';
    }
  }
  return out;
}

std::string format_number(double value, int digits) {
  if (std::isnan(value)) {
    return "N/A";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, value);
  return buf;
}

std::string to_json(const sim::EvalResult& r) {
  std::string out = "{\n";
  out += "  \"backend\": \"" + json_escape(r.backend) + "\",\n";
  out += "  \"threads\": " + std::to_string(r.threads) + ",\n";
  out += "  \"samples\": " + std::to_string(r.samples) + ",\n";
  out += "  \"correct\": " + std::to_string(r.correct) + ",\n";
  // Recompute in double so the JSON value is the exact ratio rather than
  // the float-rounded EvalResult field widened to double.
  out += "  \"accuracy\": " +
         json_number(r.samples > 0 ? static_cast<double>(r.correct) /
                                         static_cast<double>(r.samples)
                                   : 0.0) +
         ",\n";
  out += "  \"stats\": {\n";
  out += "    \"samples\": " + json_number(r.stats.samples) + ",\n";
  out += "    \"layers_run\": " + json_number(r.stats.layers_run) + ",\n";
  out += "    \"product_bits\": " + json_number(r.stats.product_bits) +
         ",\n";
  out += "    \"skipped_operands\": " +
         json_number(r.stats.skipped_operands) + ",\n";
  out += "    \"stream_bits_generated\": " +
         json_number(r.stats.stream_bits_generated) + ",\n";
  out += "    \"stream_bits_reused\": " +
         json_number(r.stats.stream_bits_reused) + ",\n";
  out += "    \"plan_hits\": " + json_number(r.stats.plan_hits) + ",\n";
  out += "    \"plan_misses\": " + json_number(r.stats.plan_misses) + ",\n";
  out += "    \"scratch_bytes\": " + json_number(r.stats.scratch_bytes) +
         "\n";
  out += "  },\n";
  out += "  \"wall_seconds\": " + json_number(r.wall_seconds) + ",\n";
  out += "  \"throughput_sps\": " + json_number(r.throughput_sps) + ",\n";
  out += "  \"latency_us\": {\n";
  out += "    \"mean\": " + json_number(r.latency.mean_us) + ",\n";
  out += "    \"p50\": " + json_number(r.latency.p50_us) + ",\n";
  out += "    \"p90\": " + json_number(r.latency.p90_us) + ",\n";
  out += "    \"p99\": " + json_number(r.latency.p99_us) + ",\n";
  out += "    \"max\": " + json_number(r.latency.max_us) + "\n";
  out += "  }\n";
  out += "}\n";
  return out;
}

std::string to_json(const InferenceCost& cost) {
  std::string out = "{\"latency_s\": ";
  out += json_number(cost.latency_s);
  out += ", \"frames_per_s\": ";
  out += json_number(cost.frames_per_s);
  out += ", \"on_chip_energy_j\": ";
  out += json_number(cost.on_chip_energy_j);
  out += ", \"frames_per_j\": ";
  out += json_number(cost.frames_per_j);
  out += ", \"dram_energy_j\": ";
  out += json_number(cost.dram_energy_j);
  out += ", \"total_cycles\": ";
  out += json_number(cost.perf.total_cycles);
  out += ", \"instructions_dispatched\": ";
  out += json_number(cost.perf.instructions_dispatched);
  out += ", \"dram_bytes\": ";
  out += json_number(cost.perf.dram_bytes);
  out += "}";
  return out;
}

std::string to_json(const baselines::Performance& point) {
  if (!point.available) {
    return "null";
  }
  return "{\"frames_per_j\": " + json_number(point.frames_per_j) +
         ", \"frames_per_s\": " + json_number(point.frames_per_s) + "}";
}

}  // namespace acoustic::core
