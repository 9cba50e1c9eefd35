#include "obs/bench_harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/json.hpp"
#include "obs/json_read.hpp"

#if defined(__linux__) || defined(__APPLE__)
#include <sys/utsname.h>
#include <unistd.h>
#endif

namespace acoustic::obs {

namespace {

using Clock = std::chrono::steady_clock;

double median_of_sorted(const std::vector<double>& sorted) {
  const std::size_t n = sorted.size();
  if (n == 0) {
    return 0.0;
  }
  return n % 2 == 1 ? sorted[n / 2]
                    : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

const char* env_or_empty(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : "";
}

/// Attaches per-iteration counter averages (and the aggregate IPC) of
/// @p total over @p iters to @p entry.
void attach_counters(BenchEntry& entry, const PerfSample& total,
                     std::size_t iters) {
  if (iters == 0) {
    return;
  }
  for (unsigned i = 0; i < kPerfEventCount; ++i) {
    const auto event = static_cast<PerfEvent>(i);
    if (total.has(event)) {
      entry.counters.emplace_back(
          perf_event_name(event),
          static_cast<double>(total[event]) / static_cast<double>(iters));
    }
  }
  const double ipc = total.ipc();
  if (!std::isnan(ipc)) {
    entry.counters.emplace_back("ipc", ipc);
  }
}

/// Busy-spins for @p ms so the frequency governor ramps the core to its
/// sustained operating point before anything is timed.
void settle_cpu(int ms) {
  if (ms <= 0) {
    return;
  }
  const Clock::time_point until =
      Clock::now() + std::chrono::milliseconds(ms);
  while (Clock::now() < until) {
  }
}

}  // namespace

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

BenchStats summarize(std::vector<double> samples) {
  BenchStats stats;
  stats.iters = samples.size();
  if (samples.empty()) {
    return stats;
  }
  std::sort(samples.begin(), samples.end());
  stats.min = samples.front();
  stats.p95 = percentile(samples, 0.95);
  stats.median = median_of_sorted(samples);
  double sum = 0.0;
  for (const double v : samples) {
    sum += v;
  }
  stats.mean = sum / static_cast<double>(samples.size());
  std::vector<double> deviations;
  deviations.reserve(samples.size());
  for (const double v : samples) {
    deviations.push_back(std::fabs(v - stats.median));
  }
  std::sort(deviations.begin(), deviations.end());
  stats.mad = median_of_sorted(deviations);
  return stats;
}

BenchMeta collect_meta() {
  BenchMeta meta;

  const std::time_t now = std::time(nullptr);
  std::tm utc{};
#if defined(_WIN32)
  gmtime_s(&utc, &now);
#else
  gmtime_r(&now, &utc);
#endif
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
  meta.timestamp = stamp;

#if defined(__linux__) || defined(__APPLE__)
  utsname uts{};
  if (uname(&uts) == 0) {
    meta.host = uts.nodename;
    meta.os = std::string(uts.sysname) + " " + uts.release;
  }
#endif
#if defined(__linux__)
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const std::string key = "model name";
    if (line.compare(0, key.size(), key) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') {
          ++begin;
        }
        meta.cpu = line.substr(begin);
      }
      break;
    }
  }
#endif
  meta.cpus = std::max(1U, std::thread::hardware_concurrency());
#ifdef NDEBUG
  meta.build = "release";
#else
  meta.build = "debug";
#endif
#if defined(__clang__)
  meta.compiler = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  meta.compiler = std::string("gcc ") + __VERSION__;
#else
  meta.compiler = "unknown";
#endif
  meta.git_sha = env_or_empty("ACOUSTIC_GIT_SHA");
  if (meta.git_sha.empty()) {
    meta.git_sha = env_or_empty("GITHUB_SHA");
  }

  const PerfCounterGroup probe;
  for (unsigned i = 0; i < kPerfEventCount; ++i) {
    if ((probe.open_mask() & (1U << i)) != 0) {
      meta.counters.emplace_back(
          perf_event_name(static_cast<PerfEvent>(i)));
    }
  }
  return meta;
}

bool meta_comparable(const BenchMeta& a, const BenchMeta& b) {
  // Absolute times transfer only between same-CPU, same-ISA-level,
  // same-build-type runs; host *name* is deliberately not part of it
  // (identical cloud runner instances compare fine).
  return a.cpu == b.cpu && a.simd == b.simd && a.build == b.build;
}

const BenchEntry* BenchDocument::find(const std::string& name) const {
  for (const BenchEntry& entry : entries) {
    if (entry.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

BenchOptions BenchOptions::from_env() {
  BenchOptions options;
  const char* slow = std::getenv("ACOUSTIC_BENCH_SLOWDOWN");
  if (slow != nullptr) {
    const double factor = std::strtod(slow, nullptr);
    if (factor > 1.0) {
      options.slowdown = factor;
    }
  }
  return options;
}

Bench::Bench(std::string suite, BenchOptions options)
    : options_(options) {
  doc_.suite = std::move(suite);
  doc_.meta = collect_meta();
}

BenchEntry& Bench::run(const std::string& name,
                       const std::function<void()>& fn) {
  return run_value(name, "us", /*lower_is_better=*/true, [&] {
    const Clock::time_point t0 = Clock::now();
    fn();
    if (options_.slowdown > 1.0) {
      // Test hook: stretch the iteration by busy-waiting inside the
      // timed window, a real slowdown as far as every clock and the
      // task-clock counter are concerned.
      const Clock::time_point mid = Clock::now();
      const Clock::time_point target =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   (mid - t0) * options_.slowdown);
      while (Clock::now() < target) {
      }
    }
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  });
}

BenchEntry& Bench::run_value(const std::string& name, std::string unit,
                             bool lower_is_better,
                             const std::function<double()>& fn) {
  settle_cpu(options_.settle_ms);
  for (int i = 0; i < options_.warmup; ++i) {
    (void)fn();
  }
  const int iters = std::max(1, options_.iters);
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(iters));
  PerfCounterGroup counters({.inherit = true});
  if (options_.counters) {
    counters.start();
  }
  for (int i = 0; i < iters; ++i) {
    values.push_back(fn());
  }
  const PerfSample total =
      options_.counters ? counters.stop() : PerfSample{};

  BenchEntry entry;
  entry.name = name;
  entry.unit = std::move(unit);
  entry.lower_is_better = lower_is_better;
  entry.stats = summarize(std::move(values));
  attach_counters(entry, total, static_cast<std::size_t>(iters));
  doc_.entries.push_back(std::move(entry));
  return doc_.entries.back();
}

BenchEntry& Bench::record(const std::string& name, double value,
                          std::string unit, bool lower_is_better) {
  BenchEntry entry;
  entry.name = name;
  entry.unit = std::move(unit);
  entry.lower_is_better = lower_is_better;
  entry.stats = summarize({value});
  doc_.entries.push_back(std::move(entry));
  return doc_.entries.back();
}

std::string to_json(const BenchDocument& doc) {
  std::string out = "{\n";
  out += "  \"schema\": " + json_quote(doc.schema) + ",\n";
  out += "  \"suite\": " + json_quote(doc.suite) + ",\n";
  out += "  \"meta\": {\n";
  out += "    \"timestamp\": " + json_quote(doc.meta.timestamp) + ",\n";
  out += "    \"host\": " + json_quote(doc.meta.host) + ",\n";
  out += "    \"os\": " + json_quote(doc.meta.os) + ",\n";
  out += "    \"cpu\": " + json_quote(doc.meta.cpu) + ",\n";
  out += "    \"cpus\": " +
         json_number(static_cast<std::uint64_t>(doc.meta.cpus)) + ",\n";
  out += "    \"simd\": " + json_quote(doc.meta.simd) + ",\n";
  out += "    \"build\": " + json_quote(doc.meta.build) + ",\n";
  out += "    \"compiler\": " + json_quote(doc.meta.compiler) + ",\n";
  out += "    \"git_sha\": " + json_quote(doc.meta.git_sha) + ",\n";
  out += "    \"counters\": [";
  for (std::size_t i = 0; i < doc.meta.counters.size(); ++i) {
    out += (i != 0 ? ", " : "") + json_quote(doc.meta.counters[i]);
  }
  out += "]\n  },\n";
  out += "  \"entries\": [";
  for (std::size_t i = 0; i < doc.entries.size(); ++i) {
    const BenchEntry& e = doc.entries[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": " + json_quote(e.name);
    out += ", \"unit\": " + json_quote(e.unit);
    out += ", \"better\": ";
    out += e.lower_is_better ? "\"lower\"" : "\"higher\"";
    out += ", \"iters\": " +
           json_number(static_cast<std::uint64_t>(e.stats.iters));
    out += ",\n     \"median\": " + json_number(e.stats.median);
    out += ", \"mad\": " + json_number(e.stats.mad);
    out += ", \"min\": " + json_number(e.stats.min);
    out += ", \"p95\": " + json_number(e.stats.p95);
    out += ", \"mean\": " + json_number(e.stats.mean);
    if (!e.counters.empty()) {
      out += ",\n     \"counters\": {";
      for (std::size_t c = 0; c < e.counters.size(); ++c) {
        out += (c != 0 ? ", " : "") + json_quote(e.counters[c].first) +
               ": " + json_number(e.counters[c].second);
      }
      out += "}";
    }
    out += "}";
  }
  out += doc.entries.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

BenchDocument parse_bench_json(const std::string& text) {
  JsonValue root = JsonValue::parse(text);
  if (!root.is_object()) {
    throw std::runtime_error("bench document: top level is not an object");
  }
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "bench.v1") {
    throw std::runtime_error(
        "bench document: missing or unsupported schema (want \"bench.v1\")");
  }
  BenchDocument doc;
  doc.schema = schema->as_string();
  if (const JsonValue* suite = root.find("suite"); suite != nullptr) {
    doc.suite = suite->as_string();
  }
  if (const JsonValue* meta = root.find("meta");
      meta != nullptr && meta->is_object()) {
    const auto str = [&](const char* key) -> std::string {
      const JsonValue* v = meta->find(key);
      return v != nullptr && v->is_string() ? v->as_string() : std::string();
    };
    doc.meta.timestamp = str("timestamp");
    doc.meta.host = str("host");
    doc.meta.os = str("os");
    doc.meta.cpu = str("cpu");
    doc.meta.simd = str("simd");
    doc.meta.build = str("build");
    doc.meta.compiler = str("compiler");
    doc.meta.git_sha = str("git_sha");
    if (const JsonValue* cpus = meta->find("cpus");
        cpus != nullptr && cpus->is_number()) {
      doc.meta.cpus = static_cast<unsigned>(cpus->as_number());
    }
    if (const JsonValue* counters = meta->find("counters");
        counters != nullptr && counters->is_array()) {
      for (const JsonValue& name : counters->items()) {
        doc.meta.counters.push_back(name.as_string());
      }
    }
  }
  const JsonValue* entries = root.find("entries");
  if (entries == nullptr || !entries->is_array()) {
    throw std::runtime_error("bench document: missing \"entries\" array");
  }
  for (const JsonValue& item : entries->items()) {
    if (!item.is_object()) {
      throw std::runtime_error("bench document: entry is not an object");
    }
    BenchEntry entry;
    entry.name = item.at("name").as_string();
    if (const JsonValue* unit = item.find("unit"); unit != nullptr) {
      entry.unit = unit->as_string();
    }
    if (const JsonValue* better = item.find("better"); better != nullptr) {
      entry.lower_is_better = better->as_string() != "higher";
    }
    const auto num = [&](const char* key) -> double {
      const JsonValue* v = item.find(key);
      return v != nullptr && v->is_number() ? v->as_number() : 0.0;
    };
    entry.stats.iters = static_cast<std::size_t>(num("iters"));
    entry.stats.median = num("median");
    entry.stats.mad = num("mad");
    entry.stats.min = num("min");
    entry.stats.p95 = num("p95");
    entry.stats.mean = num("mean");
    if (const JsonValue* counters = item.find("counters");
        counters != nullptr && counters->is_object()) {
      for (const auto& [key, value] : counters->members()) {
        if (value.is_number()) {
          entry.counters.emplace_back(key, value.as_number());
        }
      }
    }
    doc.entries.push_back(std::move(entry));
  }
  return doc;
}

const char* verdict_name(Verdict verdict) noexcept {
  switch (verdict) {
    case Verdict::kImproved: return "improved";
    case Verdict::kUnchanged: return "unchanged";
    case Verdict::kRegressed: return "regressed";
    case Verdict::kNew: return "new";
    case Verdict::kMissing: return "missing";
  }
  return "unknown";
}

CompareResult compare(const BenchDocument& current,
                      const BenchDocument& baseline,
                      const CompareOptions& options) {
  CompareResult result;
  result.host_match = meta_comparable(current.meta, baseline.meta);

  for (const BenchEntry& cur : current.entries) {
    CompareEntry row;
    row.name = cur.name;
    row.unit = cur.unit;
    row.cur_median = cur.stats.median;
    const BenchEntry* base = baseline.find(cur.name);
    if (base == nullptr) {
      row.verdict = Verdict::kNew;
      result.entries.push_back(std::move(row));
      continue;
    }
    row.base_median = base->stats.median;
    row.ratio = base->stats.median != 0.0
                    ? cur.stats.median / base->stats.median
                    : 0.0;
    row.threshold =
        std::max(options.noise_mult * std::max(base->stats.mad,
                                               cur.stats.mad),
                 options.rel_floor * std::fabs(base->stats.median));
    // delta > 0 means "worse" once oriented by the better-direction.
    const double delta = cur.lower_is_better
                             ? cur.stats.median - base->stats.median
                             : base->stats.median - cur.stats.median;
    if (delta > row.threshold) {
      row.verdict = Verdict::kRegressed;
      ++result.regressed;
    } else if (delta < -row.threshold) {
      row.verdict = Verdict::kImproved;
      ++result.improved;
    } else {
      row.verdict = Verdict::kUnchanged;
      ++result.unchanged;
    }
    result.entries.push_back(std::move(row));
  }

  for (const BenchEntry& base : baseline.entries) {
    if (current.find(base.name) == nullptr) {
      CompareEntry row;
      row.name = base.name;
      row.unit = base.unit;
      row.base_median = base.stats.median;
      row.verdict = Verdict::kMissing;
      result.entries.push_back(std::move(row));
    }
  }
  return result;
}

}  // namespace acoustic::obs
