// Scoped-span profiling: RAII wall-clock spans with attached counters.
//
// A Span measures one region (a layer's stochastic execution, one image's
// forward pass) on the monotonic clock and records itself into a Profiler
// on destruction. Instrumented code takes a nullable Profiler* — a null
// profiler makes Span construction a few pointer writes with NO clock
// reads, no counter syscalls and no string work (the name, category, kind
// and counter keys are views, copied only into the record a profiled span
// holds), so the hooks can stay compiled into the hot paths permanently
// (the disabled-path budget is asserted by tests/obs/profile_test.cpp and
// tracked by the primitives/span_disabled bench entry).
//
// Hardware counters: attach() samples a PerfCounterGroup at the attach
// point and appends the deltas (cycles, instructions, ...) as span
// counters at close, so per-phase and per-region records carry hardware
// attribution wherever the host provides it. With a null profiler,
// attach() is a no-op — no perf fd reads on the disabled path.
//
// Capacity: a Profiler accepts at most max_spans records (default 1M);
// further spans are counted in dropped() instead of growing without
// bound — the same never-silently-truncate contract the perf simulator's
// trace recorder has.
//
// Tracks and ordering: `track` identifies the timeline lane the span
// belongs to (sim::BatchEvaluator uses the worker index, so the Chrome
// trace gets one row per pool thread); `seq` is a caller-supplied
// *structural* ordering key (stage index, layer index). Aggregation orders
// the per-layer profile by seq, which keeps the report deterministic even
// though worker threads append spans in racy wall-clock order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/perf_counters.hpp"

namespace acoustic::obs {

/// One finished span.
struct SpanRecord {
  std::string name;      ///< e.g. "conv5x5(1->6)"
  std::string category;  ///< e.g. "layer", "image"
  std::string kind;      ///< flavor within the category, e.g. "conv+pool"
  std::uint32_t track = 0;  ///< timeline lane (worker thread index)
  std::uint32_t seq = 0;    ///< structural order key (stage/layer index)
  std::uint64_t start_ns = 0;  ///< monotonic clock
  std::uint64_t dur_ns = 0;
  /// User-attached counters (product bits, skipped operands, ...).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Thread-safe sink for finished spans.
class Profiler {
 public:
  /// Default record cap: enough for ~1M spans (hundreds of MB of trace
  /// JSON) before dropping starts.
  static constexpr std::size_t kDefaultMaxSpans = 1U << 20U;

  explicit Profiler(std::size_t max_spans = kDefaultMaxSpans)
      : max_spans_(max_spans) {}
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Monotonic timestamp in nanoseconds.
  [[nodiscard]] static std::uint64_t now_ns();

  /// Stores @p rec, or counts it as dropped once max_spans is reached.
  void record(SpanRecord rec);

  [[nodiscard]] std::size_t size() const;
  /// Spans that arrived after the cap — nonzero means every consumer
  /// (profile tables, trace files, JSON summaries) is looking at a
  /// truncated record and must say so.
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  /// Returns all spans and clears the profiler (the dropped count
  /// resets too — a fresh recording starts empty).
  [[nodiscard]] std::vector<SpanRecord> take();

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::size_t max_spans_;
  std::uint64_t dropped_ = 0;
};

/// RAII span: starts timing at construction, records into the profiler at
/// destruction (or close()). With a null profiler it holds no record and
/// every operation is a no-op.
class Span {
 public:
  Span(Profiler* profiler, std::string_view name, std::string_view category,
       std::uint32_t track = 0, std::uint32_t seq = 0);
  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a named counter (kept in attach order).
  void counter(std::string_view key, std::uint64_t value);
  /// Overrides the span kind ("conv", "dense", ...).
  void kind(std::string_view kind);

  /// Samples @p group now and appends the counter deltas (cycles,
  /// instructions, ... — whatever the host provides) when the span
  /// closes. The group must be started and must outlive the span; with a
  /// null profiler or null group this is a no-op.
  void attach(PerfCounterGroup* group);

  /// Stops the clock and records the span now (idempotent).
  void close();

 private:
  /// What a span with a profiler carries until it closes.
  struct Open {
    Profiler* profiler = nullptr;
    SpanRecord rec;
    PerfCounterGroup* perf = nullptr;
    PerfSample perf_begin;  ///< attach()'s hardware-counter baseline
  };

  std::optional<Open> open_;  ///< engaged only with a profiler
};

/// One row of the per-layer profile: the spans of one (category, seq,
/// name) — one graph node — aggregated across all tracks and calls.
struct ProfileRow {
  std::string name;
  std::string kind;
  std::uint64_t calls = 0;
  double wall_ms = 0.0;  ///< summed span durations
  /// Counters summed across spans, in first-attach order.
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  [[nodiscard]] std::uint64_t counter(const std::string& key) const;
};

/// Aggregates @p spans of @p category by (seq, name), in that order, so
/// two nodes with the same name keep a row each — deterministic for any
/// thread interleaving because seq is structural.
[[nodiscard]] std::vector<ProfileRow> aggregate_profile(
    const std::vector<SpanRecord>& spans, const std::string& category);

}  // namespace acoustic::obs
