#include "core/report.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "baselines/eyeriss.hpp"
#include "core/accelerator.hpp"
#include "obs/bench_harness.hpp"

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

std::string bench_slug(const std::string& name) {
  std::string out;
  bool gap = false;
  for (const char c : name) {
    const char lower = static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
    if ((lower >= 'a' && lower <= 'z') || (lower >= '0' && lower <= '9')) {
      out += lower;
      gap = false;
    } else if (!gap) {
      out += '_';
      gap = true;
    }
  }
  return out;
}

void record_cost(obs::Bench& bench, const std::string& prefix,
                 const InferenceCost& cost) {
  const auto record = [&](const char* metric, double value,
                          const char* unit, bool lower_is_better) {
    bench.record(prefix + "/" + metric, value, unit, lower_is_better);
  };
  record("frames_per_j", cost.frames_per_j, "frames/J", false);
  record("frames_per_s", cost.frames_per_s, "frames/s", false);
  record("latency_s", cost.latency_s, "s", true);
  record("on_chip_energy_j", cost.on_chip_energy_j, "J", true);
  record("dram_energy_j", cost.dram_energy_j, "J", true);
  record("total_cycles", static_cast<double>(cost.perf.total_cycles),
         "cycles", true);
  record("instructions_dispatched",
         static_cast<double>(cost.perf.instructions_dispatched),
         "instructions", true);
  record("dram_bytes", static_cast<double>(cost.perf.dram_bytes), "B", true);
}

void record_point(obs::Bench& bench, const std::string& prefix,
                  const baselines::Performance& point) {
  if (!point.available) {
    return;
  }
  bench.record(prefix + "/frames_per_j", point.frames_per_j, "frames/J",
               false);
  bench.record(prefix + "/frames_per_s", point.frames_per_s, "frames/s",
               false);
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.flush();
  if (!out) {
    throw std::runtime_error("cannot write '" + path + "'");
  }
}

}  // namespace acoustic::core
