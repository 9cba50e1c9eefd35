// Metrics registry: the one place every simulator counter ends up.
//
// Two metric kinds, mirroring the Prometheus data model the text
// exporter targets:
//   * counters — monotonically accumulated unsigned integers (product
//                bits, DRAM bytes, instructions retired, ...);
//   * gauges   — last-written doubles (accuracy, area, peak power, ...).
//
// Every member locks one mutex, so an export reads a consistent snapshot.
// Each producer (sim::export_metrics, perf/energy/obs export_metrics, the
// CLI's layer.* counters) fills one registry after its run; parallel
// evaluation merges its per-worker RunStats first and exports the sum, so
// registries never merge.
//
// Exporters: to_json() (pretty, stable sorted key order — the document
// `acoustic eval --metrics --json` embeds) and to_prometheus() (text
// exposition format). The Prometheus exporter sanitizes names to the
// legal [a-zA-Z_:][a-zA-Z0-9_:]* alphabet and is collision-safe: when
// two registry names sanitize to the same exposition name (the dotted
// namespacing makes this easy — "a.b" and "a_b" collide), the exporter
// emits ONE # TYPE family and distinguishes the members with a
// name="<original>" label instead of emitting duplicate metric families,
// which scrapers reject. A gauge whose name sanitizes like a counter's
// gets a kind suffix. describe() attaches # HELP text (escaped per the
// exposition format: backslash and newline).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace acoustic::obs {

class Registry {
 public:
  // --- counters ---
  void add(const std::string& name, std::uint64_t delta = 1);
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;

  // --- gauges ---
  void set(const std::string& name, double value);
  [[nodiscard]] double gauge(const std::string& name) const;

  // --- descriptions ---
  /// Attaches Prometheus # HELP text to @p name (either kind, set before
  /// or after the metric exists). Re-describing overwrites. Descriptions
  /// are exposition-only: to_json() ignores them, keeping the JSON
  /// document's byte-identical determinism contract untouched.
  void describe(const std::string& name, std::string help);

  // Snapshot views (copies, already sorted — std::map iteration order).
  [[nodiscard]] std::map<std::string, std::uint64_t> counters() const;
  [[nodiscard]] std::map<std::string, double> gauges() const;

  /// Pretty JSON object {"counters": {...}, "gauges": {...}}, keys
  /// sorted, indented by @p indent spaces.
  [[nodiscard]] std::string to_json(int indent = 0) const;

  /// Prometheus text exposition format: # HELP (when described) and
  /// # TYPE lines per family, one sample line per metric; sanitized names,
  /// collision groups disambiguated with a name label (see the header
  /// comment).
  [[nodiscard]] std::string to_prometheus() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, std::string> descriptions_;
};

/// The exposition-name sanitizer to_prometheus() uses, exposed for tests
/// and external exporters: illegal characters become '_', a leading
/// digit gets a '_' prefix, an empty name becomes "_".
[[nodiscard]] std::string prometheus_sanitize(const std::string& name);

/// Escapes @p text for a # HELP line (backslash and newline).
[[nodiscard]] std::string prometheus_escape_help(const std::string& text);

/// Escapes @p text for a label value (backslash, double-quote, newline).
[[nodiscard]] std::string prometheus_escape_label(const std::string& text);

}  // namespace acoustic::obs
