// Unified benchmark harness: one measurement loop, one statistics
// vocabulary, one machine-readable schema ("bench.v1") for every
// performance number this repo records — the forward-latency bench, the
// kernel table, `acoustic bench`, and the committed BENCH_*.json
// baselines all speak it, so a single `--compare` implementation can
// gate any of them.
//
// Measurement model: warmup iterations (excluded), then N timed
// iterations summarized with *robust* statistics — median and MAD
// (median absolute deviation), plus min/p95/mean. Median/MAD, not
// mean/stddev, because benchmark noise is one-sided (preemption,
// frequency ramps, page faults only ever add time): a single descheduled
// iteration moves a mean by the full excursion but a median not at all,
// which is what makes the regression thresholds usable in CI.
//
// Hardware counters: when the host allows it (see obs/perf_counters.hpp)
// each timed region also records cycles / instructions / branch and
// cache misses / task-clock, reported per iteration next to the wall
// time, so a verdict of "regressed" comes with the beginning of an
// explanation (IPC collapse vs more instructions).
//
// Compare semantics (`compare()`): per entry, the current median is
// regressed/improved when it moves against the baseline median by more
// than  max(noise_mult * max(MAD_base, MAD_cur), rel_floor * |median_base|)
// in the entry's "better" direction, and unchanged otherwise — the MAD
// term absorbs the measured run-to-run noise, the relative floor keeps
// microsecond-scale entries from flagging on nanosecond jitter. Two
// back-to-back runs of the same build therefore compare "unchanged", and
// a 2x slowdown is far outside any sane threshold. Results against a
// baseline recorded on *different hardware* (cpu/simd/build mismatch in
// the meta block) are reported but marked non-gating: absolute times do
// not transfer across machines, and a CI gate that pretends they do
// flakes on every runner upgrade.
//
// Test hook: ACOUSTIC_BENCH_SLOWDOWN=<factor> stretches every timed
// iteration by busy-waiting, so the full regression pipeline (measure ->
// document -> compare -> gate) can be exercised end to end with a real,
// controlled slowdown.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/perf_counters.hpp"

namespace acoustic::obs {

/// Robust summary of one entry's per-iteration values.
struct BenchStats {
  std::size_t iters = 0;
  double median = 0.0;
  double mad = 0.0;   ///< median absolute deviation around the median
  double min = 0.0;
  double p95 = 0.0;
  double mean = 0.0;
};

/// Computes the robust summary (sorts a copy of @p samples).
[[nodiscard]] BenchStats summarize(std::vector<double> samples);

/// The @p q quantile (q in [0, 1]) of ascending @p sorted, interpolated
/// linearly between its two nearest ranks; 0 when @p sorted is empty.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double q);

/// One benchmark result.
struct BenchEntry {
  std::string name;            ///< e.g. "kernels/and_or_popcount"
  std::string unit = "us";     ///< unit of the stats values
  bool lower_is_better = true;
  BenchStats stats;
  /// Per-iteration averages of the hardware counters measured around the
  /// timed loop ("cycles", ..., "ipc"); empty on degraded hosts.
  std::vector<std::pair<std::string, double>> counters;
};

/// Machine/build provenance stamped into every document. Everything here
/// is collected without subprocesses; the git SHA comes from the
/// environment (GITHUB_SHA in CI, ACOUSTIC_GIT_SHA elsewhere) or stays
/// empty.
struct BenchMeta {
  std::string timestamp;  ///< ISO-8601 UTC
  std::string host;
  std::string os;         ///< uname sysname + release
  std::string cpu;        ///< /proc/cpuinfo model name (or "")
  unsigned cpus = 0;
  std::string simd;       ///< active kernel dispatch level (caller-set)
  std::string build;      ///< "release" / "debug"
  std::string compiler;
  std::string git_sha;
  /// Names of the perf events this host could open (may be empty).
  std::vector<std::string> counters;
};

/// Fills every field except simd (the harness cannot link the kernel
/// layer; callers that know their dispatch level set it).
[[nodiscard]] BenchMeta collect_meta();

/// True when @p a and @p b were produced by comparable hardware/builds —
/// the precondition for gating on absolute times.
[[nodiscard]] bool meta_comparable(const BenchMeta& a, const BenchMeta& b);

/// One trajectory document: a named suite run on one machine.
struct BenchDocument {
  std::string schema = "bench.v1";
  std::string suite;
  BenchMeta meta;
  std::vector<BenchEntry> entries;

  [[nodiscard]] const BenchEntry* find(const std::string& name) const;
};

/// Serializes @p doc as the bench.v1 JSON schema (pretty, stable order).
[[nodiscard]] std::string to_json(const BenchDocument& doc);

/// Parses a bench.v1 document; throws std::runtime_error on a schema or
/// syntax violation (including documents from a future schema version).
[[nodiscard]] BenchDocument parse_bench_json(const std::string& text);

struct BenchOptions {
  int warmup = 2;
  int iters = 10;
  bool counters = true;  ///< attach a PerfCounterGroup per entry
  /// Busy-spin this long before each entry's warmup, pulling the CPU out
  /// of its idle frequency state — without it, back-to-back runs of a
  /// short suite land on different DVFS operating points and medians
  /// jump 2x with tiny in-run MADs (observed on shared vCPUs). 0 = off.
  int settle_ms = 50;
  /// Artificial per-iteration stretch factor (>= 1.0), normally 1.0;
  /// from_env() reads ACOUSTIC_BENCH_SLOWDOWN.
  double slowdown = 1.0;

  /// Default options with the slowdown hook applied from the environment.
  [[nodiscard]] static BenchOptions from_env();
};

/// Builds one BenchDocument by running closures under the shared
/// measurement loop. Not thread-safe; one Bench per suite run.
class Bench {
 public:
  Bench(std::string suite, BenchOptions options);

  [[nodiscard]] const BenchOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] BenchMeta& meta() noexcept { return doc_.meta; }

  /// Times @p fn: run_value over one timed call per iteration
  /// (microseconds per call, lower is better), stretched by the slowdown
  /// hook.
  BenchEntry& run(const std::string& name, const std::function<void()>& fn);

  /// The measurement loop: settle, warmup calls, then iters calls that
  /// each *measure their own value* via @p fn (e.g. an images/s
  /// throughput), counters sampled around the timed loop. The slowdown
  /// hook applies only through run().
  BenchEntry& run_value(const std::string& name, std::string unit,
                        bool lower_is_better,
                        const std::function<double()>& fn);

  /// Records a directly computed scalar (an accuracy, a ratio) as a
  /// single-observation entry; compare() falls back to the relative
  /// floor for these (MAD is zero by construction).
  BenchEntry& record(const std::string& name, double value, std::string unit,
                     bool lower_is_better);

  [[nodiscard]] const BenchDocument& document() const noexcept {
    return doc_;
  }
  /// Moves the document out (the Bench is spent afterwards).
  [[nodiscard]] BenchDocument take() { return std::move(doc_); }

 private:
  BenchOptions options_;
  BenchDocument doc_;
};

// --- comparison ---

enum class Verdict {
  kImproved,
  kUnchanged,
  kRegressed,
  kNew,      ///< entry absent from the baseline
  kMissing,  ///< baseline entry absent from the current run
};
[[nodiscard]] const char* verdict_name(Verdict verdict) noexcept;

struct CompareOptions {
  /// Noise threshold in MADs: |delta| must exceed noise_mult *
  /// max(MAD_base, MAD_cur) to leave "unchanged".
  double noise_mult = 4.0;
  /// ... and also rel_floor * |baseline median| (fraction, 0.10 = 10%).
  double rel_floor = 0.10;
};

struct CompareEntry {
  std::string name;
  std::string unit;
  Verdict verdict = Verdict::kUnchanged;
  double base_median = 0.0;
  double cur_median = 0.0;
  double ratio = 0.0;      ///< cur / base (0 when base is 0 or absent)
  double threshold = 0.0;  ///< the noise margin applied, in unit terms
};

struct CompareResult {
  std::vector<CompareEntry> entries;
  /// meta_comparable(current, baseline): when false, regressions are
  /// reported but must not gate (foreign-machine baseline).
  bool host_match = true;
  std::size_t improved = 0;
  std::size_t unchanged = 0;
  std::size_t regressed = 0;

  /// True when a gating step should fail: at least one regression AND the
  /// baseline came from comparable hardware (or @p strict forces gating).
  [[nodiscard]] bool should_fail(bool strict = false) const {
    return regressed > 0 && (host_match || strict);
  }
};

[[nodiscard]] CompareResult compare(const BenchDocument& current,
                                    const BenchDocument& baseline,
                                    const CompareOptions& options = {});

}  // namespace acoustic::obs
