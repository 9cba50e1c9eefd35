// Repository benchmark for the bit-level SC functional simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--corrupt-logit]
//
// Each workload builds its network from the seeded builder weights
// (nothing is trained), generates its inputs from --seed, sets up several
// times (set-up time is reported as the median, apart from steady state),
// checks planned logits byte-for-byte against the scalar oracle on a
// seeded subset of the inputs, then runs a closed loop for --seconds.
// Throughput is images over the loop's wall time; the latency percentiles
// are taken across the input images of each image's fastest steady-state
// forward in the loop (see BestLatency).
//
// --trace 0 prints the end-to-end metrics of that untraced loop. --trace 1
// spends half the time untraced and half with an obs::Profiler attached
// through the library's public hooks (InferenceBackend::set_profiler,
// EvalHooks), plus the benchmark's own spans around the calls it makes,
// and prints the per-layer metrics. Nodes are identified by their lowered
// index (span seq), not by layer name, so repeated layers stay apart.
//
// Every line before the last is informational JSON (host description,
// deterministic counts, per-node ledger). The last line is the result:
// {"correct", "attempted", "failed", "metrics"}. A failure is an image
// whose planned logits differ from the oracle, an image of a dataset pass
// whose deterministic counts differ from the first pass, or an image whose
// forward threw; error_rate = failed / attempted.
//
// --corrupt-logit flips one bit of a planned logit before the oracle
// comparison; the benchmark's self-check uses it to prove that a wrong
// output surfaces as a failure.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/check.hpp"
#include "nn/model_zoo.hpp"
#include "nn/network.hpp"
#include "nn/zoo_build.hpp"
#include "obs/perf_counters.hpp"
#include "obs/span.hpp"
#include "runtime/thread_pool.hpp"
#include "sc/kernels/kernels.hpp"
#include "sim/backend.hpp"
#include "sim/batch_evaluator.hpp"
#include "sim/sc_config.hpp"
#include "train/dataset.hpp"
#include "train/models.hpp"

namespace {

namespace ac = acoustic;
using Clock = std::chrono::steady_clock;

/// Load threads of every workload: the evaluator's workers, or the pool the
/// single latency client and its intra-image row shards share.
constexpr unsigned kLoadThreads = 4;
/// Set-up repeats at least kMinSetupReps times and until kSetupBudgetS of
/// set-up wall time is spent (at most kMaxSetupReps); setup_s is the median.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 256;
constexpr double kSetupBudgetS = 1.0;

// ---------------------------------------------------------------- workloads

enum class Loop { kBatch, kLatency };

struct Workload {
  const char* name;
  Loop loop;
  std::size_t stream;
  bool stochastic_max;
  std::size_t images;         ///< dataset generated from the seed
  std::size_t oracle_images;  ///< seeded subset checked against the oracle
};

constexpr Workload kWorkloads[] = {
    {"lenet-batch", Loop::kBatch, 256, false, 256, 16},
    {"resnet18-latency", Loop::kLatency, 128, false, 16, 1},
    {"cifar-max-long", Loop::kBatch, 1024, true, 128, 2},
};

bool is_resnet(const Workload& w) {
  return std::string(w.name) == "resnet18-latency";
}

ac::nn::ZooBuildOptions resnet_options() {
  ac::nn::ZooBuildOptions opt;
  opt.side = 16;  // the `acoustic eval` default side
  opt.mode = ac::nn::AccumMode::kOrExact;
  return opt;
}

ac::nn::Shape input_shape(const Workload& w) {
  if (is_resnet(w)) {
    return ac::nn::zoo_input_shape(ac::nn::resnet18(), resnet_options());
  }
  return {16, 16, std::string(w.name) == "lenet-batch" ? 1 : 3};
}

ac::nn::Network build_network(const Workload& w) {
  if (std::string(w.name) == "lenet-batch") {
    return ac::train::build_lenet_small(ac::nn::AccumMode::kOrApprox, 16);
  }
  if (is_resnet(w)) {
    return ac::nn::build_from_descriptor(ac::nn::resnet18(), resnet_options());
  }
  return ac::train::build_cifar_small_maxpool(ac::nn::AccumMode::kOrApprox,
                                              16);
}

ac::train::Dataset make_inputs(const Workload& w, ac::nn::Shape input,
                               std::uint32_t seed) {
  return input.c == 1
             ? ac::train::make_synth_digits(w.images, seed, input.h)
             : ac::train::make_synth_objects(w.images, seed, input.h);
}

ac::sim::ScConfig sc_config(const Workload& w) {
  ac::sim::ScConfig cfg;
  cfg.stream_length = w.stream;
  if (w.stochastic_max) {
    cfg.max_pool = ac::sim::MaxPoolMode::kStochastic;
  }
  return cfg;  // intra_threads stays 0: the production auto gate
}

// ------------------------------------------------------------------ helpers

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

/// Linear-interpolated quantile of @p v (sorted in place).
double quantile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Runs @p fn inside a benchmark span named @p name and returns its wall
/// time in milliseconds. The span records only when @p prof is non-null.
template <class Fn>
double timed_ms(ac::obs::Profiler* prof, const char* name, Fn&& fn) {
  ac::obs::Span span(prof, prof != nullptr ? name : "",
                     prof != nullptr ? "bench" : "");
  const Clock::time_point t0 = Clock::now();
  fn();
  return since(t0) * 1e3;
}

/// Ordered metric list printed as the result's "metrics" object.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(std::string name, double value, std::string unit) {
    items.push_back({std::move(name), {value, std::move(unit)}});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < items.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.10g", items[i].second.first);
      out += (i > 0 ? ", \"" : "\"") + items[i].first + "\": {\"value\": " +
             buf + ", \"unit\": \"" + items[i].second.second + "\"}";
    }
    return out + "}";
  }
};

// ------------------------------------------------------- latency recording

/// Fastest steady-state forward_into of each input image over the run.
/// Every image runs many times in the closed loop; its minimum strips the
/// interference of other tenants on a shared host, which otherwise swings
/// run-level percentiles by 20% or more, and leaves the per-input cost the
/// code determines. The percentiles are taken across images.
struct BestLatency {
  explicit BestLatency(std::size_t images)
      : ms(images, std::numeric_limits<double>::infinity()) {}
  std::vector<double> ms;
  std::size_t samples = 0;  ///< steady forwards timed

  void add(std::size_t image, double v) {
    ms[image] = std::min(ms[image], v);
    ++samples;
  }
  void merge(const BestLatency& other) {
    for (std::size_t i = 0; i < ms.size(); ++i) {
      ms[i] = std::min(ms[i], other.ms[i]);
    }
    samples += other.samples;
  }
  /// Quantile @p q across the images that ran at least once.
  [[nodiscard]] double quantile_ms(double q) const {
    std::vector<double> seen;
    for (const double v : ms) {
      if (std::isfinite(v)) {
        seen.push_back(v);
      }
    }
    return quantile(seen, q);
  }
};

/// Where evaluator clones report their timings. A clone's first image pays
/// its private warm-up (scratch arena growth, product tables), so it is
/// kept apart and never reaches the percentiles.
struct LatencySink {
  explicit LatencySink(const ac::train::Dataset& data) : best(data.size()) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      index.emplace(&data.samples[i].image, i);
    }
  }
  /// Input tensor -> image index; read-only while clones run.
  std::unordered_map<const ac::nn::Tensor*, std::size_t> index;
  std::mutex mu;
  BestLatency best;
  std::vector<double> cold_ms;
};

/// Times forward_into around an SC backend. The evaluator clones the
/// prototype per worker, so every clone is timed and reports to one sink
/// when the evaluator drops it at the end of evaluate().
class TimedBackend final : public ac::sim::InferenceBackend {
 public:
  TimedBackend(std::unique_ptr<ac::sim::InferenceBackend> inner,
               LatencySink* sink)
      : inner_(std::move(inner)), sink_(sink), best_(sink->best.ms.size()) {}
  ~TimedBackend() override {
    const std::lock_guard<std::mutex> lock(sink_->mu);
    sink_->best.merge(best_);
    if (cold_ms_) {
      sink_->cold_ms.push_back(*cold_ms_);
    }
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::unique_ptr<InferenceBackend> clone() const override {
    return std::make_unique<TimedBackend>(inner_->clone(), sink_);
  }
  [[nodiscard]] ac::nn::Tensor forward(const ac::nn::Tensor& input) override {
    ac::nn::Tensor out;
    forward_into(input, out);
    return out;
  }
  void forward_into(const ac::nn::Tensor& input,
                    ac::nn::Tensor& out) override {
    const Clock::time_point t0 = Clock::now();
    inner_->forward_into(input, out);
    const double ms = since(t0) * 1e3;
    const auto it = sink_->index.find(&input);
    if (!cold_ms_) {
      cold_ms_ = ms;
    } else if (it != sink_->index.end()) {
      best_.add(it->second, ms);
    }
  }
  [[nodiscard]] ac::sim::RunStats stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] ac::sim::RunStats take_stats() override {
    return inner_->take_stats();
  }
  void set_profiler(ac::obs::Profiler* profiler,
                    std::uint32_t track) override {
    inner_->set_profiler(profiler, track);
  }

 private:
  std::unique_ptr<ac::sim::InferenceBackend> inner_;
  LatencySink* sink_;
  BestLatency best_;
  std::optional<double> cold_ms_;
};

// ------------------------------------------------------------- node ledger

/// Traced time and work per lowered node, keyed by span seq (the node
/// index) so that repeated layers with one name stay distinct.
struct NodeRow {
  std::string kind;
  std::string name;
  std::uint64_t calls = 0;
  double ns = 0.0;
  std::uint64_t product_bits = 0;
  std::optional<double> cold_ns;

  /// Set-up's cold image minus the traced steady mean: the node's share of
  /// the cost charged to set-up (plan builds, first-image growth).
  [[nodiscard]] double cold_excess_ns() const {
    return cold_ns ? *cold_ns - ratio(ns, static_cast<double>(calls)) : 0.0;
  }
};

struct Ledger {
  std::vector<NodeRow> nodes;
  std::uint64_t forwards = 0;   ///< traced images
  double forward_ns = 0.0;      ///< their summed forward wall time
  std::uint64_t clone_calls = 0;
  double clone_ns = 0.0;        ///< evaluator "setup" phase spans

  [[nodiscard]] double node_ns() const {
    double total = 0.0;
    for (const NodeRow& r : nodes) {
      total += r.ns;
    }
    return total;
  }
  [[nodiscard]] double images() const {
    return static_cast<double>(std::max<std::uint64_t>(1, forwards));
  }

  NodeRow& node(std::uint32_t seq) {
    if (seq >= nodes.size()) {
      nodes.resize(seq + 1);
    }
    return nodes[seq];
  }

  void absorb(const std::vector<ac::obs::SpanRecord>& spans) {
    for (const ac::obs::SpanRecord& s : spans) {
      const auto dur = static_cast<double>(s.dur_ns);
      if (s.category == "layer") {
        NodeRow& row = node(s.seq);
        row.kind = s.kind;
        row.name = s.name;
        ++row.calls;
        row.ns += dur;
        for (const auto& [key, value] : s.counters) {
          if (key == "product_bits") {
            row.product_bits += value;
          }
        }
      } else if (s.category == "image") {
        ++forwards;
        forward_ns += dur;
      } else if (s.category == "phase" && s.name == "setup") {
        ++clone_calls;
        clone_ns += dur;
      }
    }
  }

  /// Node times of the single cold image that set-up ran.
  void absorb_cold(const std::vector<ac::obs::SpanRecord>& spans) {
    for (const ac::obs::SpanRecord& s : spans) {
      if (s.category == "layer") {
        NodeRow& row = node(s.seq);
        row.cold_ns = row.cold_ns.value_or(0.0) + static_cast<double>(s.dur_ns);
      }
    }
  }
};

/// Node kinds as metric name segments ("conv+pool" -> "conv_pool").
const char* const kKinds[] = {"conv",     "conv_pool", "dense",  "skip_project",
                              "skip_save", "skip_add",  "max_pool"};

std::string metric_kind(std::string kind) {
  std::replace(kind.begin(), kind.end(), '+', '_');
  std::replace(kind.begin(), kind.end(), '-', '_');
  return kind;
}

// ---------------------------------------------------------- kernel timing

/// Median nanoseconds per call of @p fn over five timed repetitions, each
/// long enough (about 20 ms) to dwarf the clock reads.
template <class Fn>
double ns_per_call(Fn&& fn) {
  std::size_t iters = 1;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      fn();
    }
    if (since(t0) > 0.02) {
      break;
    }
    iters *= 2;
  }
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      fn();
    }
    reps.push_back(since(t0) * 1e9 / static_cast<double>(iters));
  }
  return quantile(reps, 0.5);
}

struct KernelRates {
  double and_or_popcount_ns_per_word = 0.0;
  double compare_pack_ns_per_bit = 0.0;
  double max_stream_ns_per_bit = 0.0;
};

/// Times the active SIMD table's hot kernels at this workload's segment
/// width (one phase of the split-unipolar stream).
KernelRates time_kernels(const ac::sim::ScConfig& cfg) {
  const ac::sc::kernels::KernelTable& k = ac::sc::kernels::table();
  const std::size_t bits = cfg.phase_length();
  const std::size_t words = std::max<std::size_t>(1, (bits + 63) / 64);
  std::mt19937_64 rng(0x6b65726eULL);
  std::vector<std::uint64_t> a(words);
  std::vector<std::uint64_t> b(words);
  std::vector<std::uint64_t> acc(words, 0);
  for (std::size_t i = 0; i < words; ++i) {
    a[i] = rng();
    b[i] = rng();
  }
  std::vector<std::uint32_t> states(bits);
  for (std::uint32_t& s : states) {
    s = static_cast<std::uint32_t>(rng()) & 0xFFu;
  }
  ac::sc::kernels::CompareWiring wiring;
  wiring.pre_xor = 0x5A;
  wiring.post_xor = 0x3C;
  wiring.mask = 0xFF;
  wiring.rot = 3;
  wiring.width = 8;

  volatile std::uint64_t sink = 0;
  KernelRates r;
  r.and_or_popcount_ns_per_word =
      ns_per_call([&] {
        acc[0] = a[0] ^ sink;  // keeps the accumulator from saturating away
        sink = k.and_or_popcount(acc.data(), a.data(), b.data(), words);
      }) /
      static_cast<double>(words);
  r.compare_pack_ns_per_bit =
      ns_per_call([&] {
        std::fill(acc.begin(), acc.end(), 0);
        k.compare_pack(wiring, states.data(), bits, 0x80, acc.data(), 0);
        sink = acc[0];
      }) /
      static_cast<double>(bits);
  r.max_stream_ns_per_bit =
      ns_per_call([&] {
        k.max_stream(acc.data(), a.data(), b.data(), bits);
        sink = acc[0];
      }) /
      static_cast<double>(bits);
  return r;
}

/// The per-node ledger as one JSON line: every lowered node by index.
std::string ledger_json(const Ledger& ledger) {
  const double node_ns = ledger.node_ns();
  std::string rows;
  for (std::size_t i = 0; i < ledger.nodes.size(); ++i) {
    const NodeRow& r = ledger.nodes[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"ms_per_img\": %.6g, \"share\": %.6g, "
                  "\"product_bits_per_img\": %.10g, \"cold_ms\": %.6g}",
                  r.ns / ledger.images() / 1e6, ratio(r.ns, node_ns),
                  static_cast<double>(r.product_bits) / ledger.images(),
                  r.cold_excess_ns() / 1e6);
    rows += (i > 0 ? ", {\"node\": " : "{\"node\": ") + std::to_string(i) +
            ", \"kind\": \"" + metric_kind(r.kind) + "\", \"name\": \"" +
            r.name + "\", " + buf;
  }
  return "{\"ledger\": [" + rows + "]}";
}

/// sim.node.<kind>.* for every kind in kKinds, summed over its nodes. A
/// kind the workload's network does not have reads 0.
void add_node_metrics(Metrics& m, const Ledger& ledger,
                      const KernelRates& kr) {
  const double node_ns = ledger.node_ns();
  for (const char* k : kKinds) {
    double ns = 0.0;
    double cold_ns = 0.0;
    double bits = 0.0;
    for (const NodeRow& r : ledger.nodes) {
      if (metric_kind(r.kind) == k) {
        ns += r.ns;
        bits += static_cast<double>(r.product_bits);
        cold_ns += r.cold_excess_ns();
      }
    }
    const std::string base = std::string("sim.node.") + k;
    const double ms_per_img = ns / ledger.images() / 1e6;
    const double bits_per_img = bits / ledger.images();
    m.add(base + ".ms_per_img", ms_per_img, "ms");
    m.add(base + ".share", ratio(ns, node_ns), "ratio");
    m.add(base + ".product_bits_per_img", bits_per_img, "bit");
    // Time the node would take if every product word ran at the measured
    // fused-kernel rate, over the time it took.
    m.add(base + ".ceiling_ratio",
          ratio(bits_per_img / 64.0 * kr.and_or_popcount_ns_per_word,
                ms_per_img * 1e6),
          "ratio");
    m.add(base + ".cold_ms", cold_ns / 1e6, "ms");
  }
}

/// Host counters of the traced phase. Each is printed only when the host
/// could open its events; otherwise it is reported absent, never as 0.
void print_hw(const ac::obs::PerfSample& s, std::size_t images) {
  using ac::obs::PerfEvent;
  const std::string ipc =
      s.has(PerfEvent::kCycles) && s.has(PerfEvent::kInstructions)
          ? std::to_string(s.ipc())
          : "\"absent\"";
  const std::string misses =
      s.has(PerfEvent::kCacheMisses)
          ? std::to_string(static_cast<double>(s[PerfEvent::kCacheMisses]) /
                           static_cast<double>(std::max<std::size_t>(1, images)))
          : "\"absent\"";
  std::printf("{\"hw\": {\"ipc\": %s, \"cache_misses_per_img\": %s}}\n",
              ipc.c_str(), misses.c_str());
}

// ------------------------------------------------------------------ set-up

struct SetupTimes {
  double build_ms = 0.0;
  double check_ms = 0.0;
  double backend_ms = 0.0;
  double total_s = 0.0;
};

struct Prepared {
  ac::nn::Network net;
  ac::nn::Shape input;
  std::unique_ptr<ac::sim::InferenceBackend> backend;
  std::size_t check_errors = 0;
  std::size_t check_warnings = 0;
};

/// Network build, preflight check (probe off, as `acoustic eval` runs it),
/// backend construction and the cold pass that fills the shared weight
/// plans — everything a user pays before the first steady-state image.
Prepared set_up(const Workload& w, ac::obs::Profiler* prof,
                const std::function<void(ac::sim::InferenceBackend&)>& cold,
                SetupTimes& t) {
  const Clock::time_point t0 = Clock::now();
  const ac::sim::ScConfig cfg = sc_config(w);
  Prepared p;
  p.input = input_shape(w);
  t.build_ms = timed_ms(prof, "nn.build", [&] { p.net = build_network(w); });
  t.check_ms = timed_ms(prof, "analysis.check", [&] {
    ac::analysis::CheckOptions opt;
    opt.sc = cfg;
    opt.probe = false;
    const ac::core::Report report =
        ac::analysis::check_network(p.net, w.name, p.input, opt);
    p.check_errors = report.error_count();
    p.check_warnings = report.warning_count();
  });
  t.backend_ms = timed_ms(prof, "sim.backend", [&] {
    p.backend = ac::sim::make_backend("sc", p.net, cfg);
  });
  (void)timed_ms(prof, "sim.cold_pass", [&] { cold(*p.backend); });
  t.total_s = since(t0);
  return p;
}

/// Frees a set-up repetition before the next one starts and hands the freed
/// pages back, so that peak_rss_mb measures one set-up's footprint rather
/// than how the allocator's per-thread arenas happened to fragment.
void release(Prepared& p) {
  p = Prepared{};
  malloc_trim(0);
}

// ------------------------------------------------------------ correctness

/// Compares planned logits byte-for-byte with the scalar oracle on a seeded
/// subset of the inputs. Returns the number of mismatching images.
std::size_t check_oracle(const Workload& w, Prepared& p,
                         const ac::train::Dataset& data, std::uint32_t seed,
                         bool corrupt) {
  ac::sim::ScConfig ocfg = sc_config(w);
  ocfg.exec = ac::sim::ExecMode::kScalar;
  const std::unique_ptr<ac::sim::InferenceBackend> oracle =
      ac::sim::make_backend("sc", p.net, ocfg);
  const std::unique_ptr<ac::sim::InferenceBackend> planned =
      p.backend->clone();

  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::mt19937 rng(seed ^ 0x0A11CE5u);
  std::shuffle(idx.begin(), idx.end(), rng);
  idx.resize(std::min(w.oracle_images, idx.size()));

  std::size_t failed = 0;
  ac::nn::Tensor got;
  ac::nn::Tensor want;
  for (std::size_t n = 0; n < idx.size(); ++n) {
    const ac::nn::Tensor& image = data.samples[idx[n]].image;
    try {
      planned->forward_into(image, got);
      oracle->forward_into(image, want);
      if (corrupt && n == 0 && got.size() > 0) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &got.data()[0], sizeof(bits));
        bits ^= 1U;
        std::memcpy(&got.data()[0], &bits, sizeof(bits));
      }
      const bool same =
          got.shape() == want.shape() &&
          std::memcmp(got.data().data(), want.data().data(),
                      got.size() * sizeof(float)) == 0;
      failed += same ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: oracle check threw: %s\n", e.what());
      ++failed;
    }
  }
  return failed;
}

// ------------------------------------------------------------- timed loops

/// Outcome of one timed phase.
struct Phase {
  std::size_t images = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
  double occupancy = 0.0;
};

/// Deterministic counts of one full dataset pass. The first pass sets the
/// reference; a later pass that differs fails all of its images.
struct Determinism {
  std::optional<ac::sim::RunStats> reference;
  [[nodiscard]] bool agrees(const ac::sim::RunStats& s) {
    if (!reference) {
      reference = s;
      return true;
    }
    return s == *reference;
  }
};

/// Closed loop of kLoadThreads evaluator workers: each evaluate() call runs
/// the whole dataset, the next starts when it returns.
Phase run_batch(ac::sim::BatchEvaluator& ev, ac::sim::InferenceBackend& proto,
                const ac::train::Dataset& data, double seconds,
                ac::obs::Profiler* prof, Ledger* ledger, Determinism& det) {
  ac::sim::EvalHooks hooks;
  hooks.profiler = prof;
  Phase ph;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  std::uint32_t call = 0;
  do {
    try {
      ac::obs::Span span(prof, prof != nullptr ? "evaluate" : "",
                         prof != nullptr ? "bench" : "", 0, call++);
      const ac::sim::EvalResult r = ev.evaluate(proto, data, hooks);
      span.close();
      ph.failed += det.agrees(r.stats) ? 0 : data.size();
      ph.tasks += r.sched.tasks;
      ph.steals += r.sched.steals;
      ph.occupancy = r.sched.occupancy();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: evaluate threw: %s\n", e.what());
      ph.failed += data.size();
    }
    ph.images += data.size();
    if (ledger != nullptr) {
      ledger->absorb(prof->take());
    }
  } while (since(t0) < seconds);
  ph.wall_s = since(t0);
  ph.cpu_s = cpu_seconds() - cpu0;
  return ph;
}

/// Closed loop of one client calling forward_into. The client runs as a
/// task of @p pool, so the auto intra-image row shards join that pool —
/// the same nesting the batch evaluator uses — and its scheduler counters
/// cover them.
Phase run_latency(ac::runtime::ThreadPool& pool,
                  ac::sim::InferenceBackend& backend,
                  const ac::train::Dataset& data, double seconds,
                  ac::obs::Profiler* prof, Ledger* ledger, Determinism& det,
                  BestLatency& latency) {
  Phase ph;
  backend.set_profiler(prof, 0);
  const ac::runtime::ThreadPool::Stats s0 = pool.stats();
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  pool.parallel_for(1, [&](std::size_t, unsigned) {
    ac::nn::Tensor logits;
    do {
      std::size_t pass_failed = 0;
      for (std::size_t i = 0; i < data.size(); ++i) {
        try {
          ac::obs::Span span(prof, prof != nullptr ? "forward" : "",
                             prof != nullptr ? "image" : "", 0,
                             static_cast<std::uint32_t>(i));
          const Clock::time_point f0 = Clock::now();
          backend.forward_into(data.samples[i].image, logits);
          latency.add(i, since(f0) * 1e3);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: forward threw: %s\n", e.what());
          ++pass_failed;
        }
      }
      ph.images += data.size();
      ph.failed += pass_failed > 0 || !det.agrees(backend.take_stats())
                       ? data.size()
                       : 0;
      if (ledger != nullptr) {
        ledger->absorb(prof->take());
      }
    } while (since(t0) < seconds);
  });
  ph.wall_s = since(t0);
  ph.cpu_s = cpu_seconds() - cpu0;
  backend.set_profiler(nullptr, 0);
  const ac::runtime::ThreadPool::Stats s1 = pool.stats();
  ph.tasks = s1.tasks - s0.tasks;
  ph.steals = s1.steals - s0.steals;
  ph.occupancy = static_cast<double>(s1.busy_peak) / pool.size();
  return ph;
}

// -------------------------------------------------------------------- main

struct Args {
  const Workload* workload = nullptr;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<lenet-batch|resnet18-latency|cifar-max-long> --seed <n> "
               "--seconds <s> --trace <0|1> [--corrupt-logit]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-logit") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage(("missing value for " + arg).c_str());
    }
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (val == w.name) {
            a.workload = &w;
          }
        }
        if (a.workload == nullptr) {
          usage(("unknown workload " + val).c_str());
        }
      } else if (arg == "--seed") {
        a.seed = static_cast<std::uint32_t>(std::stoul(val));
      } else if (arg == "--seconds") {
        a.seconds = std::stod(val);
      } else if (arg == "--trace") {
        a.trace = std::stoi(val) != 0;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (a.workload == nullptr || !(a.seconds > 0.0)) {
    usage("--workload and a positive --seconds are required");
  }
  return a;
}

int run(const Args& args) {
  const Workload& w = *args.workload;
  const ac::sim::ScConfig cfg = sc_config(w);
  const unsigned online = static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  const unsigned cores = affinity_cpus();
  const bool measured = kLoadThreads <= cores;
  {
    std::string status = "measured";
    if (!measured) {
      status = "not measured: " + std::to_string(kLoadThreads) +
               " load threads exceed " + std::to_string(cores) +
               " available cores";
      std::fprintf(stderr, "perfbench: %s\n", status.c_str());
    }
    std::printf(
        "{\"host\": {\"nproc\": %u, \"affinity_cpus\": %u, \"simd\": \"%s\", "
        "\"workload\": \"%s\", \"loop\": \"closed\", \"clients\": %u, "
        "\"load_threads\": %u, \"thread_config\": \"%s\", \"seed\": %u}}\n",
        online, cores,
        ac::sc::kernels::level_name(ac::sc::kernels::active_level()), w.name,
        w.loop == Loop::kBatch ? kLoadThreads : 1U, kLoadThreads,
        status.c_str(), args.seed);
  }

  // Hardware counters follow only threads created after they open, so the
  // group precedes the evaluator / client pool.
  std::optional<ac::obs::PerfCounterGroup> hw;
  if (args.trace) {
    ac::obs::PerfCounterGroup::Options opt;
    opt.inherit = true;
    hw.emplace(opt);
  }
  std::optional<ac::sim::BatchEvaluator> evaluator;
  std::optional<ac::runtime::ThreadPool> client_pool;
  if (w.loop == Loop::kBatch) {
    evaluator.emplace(kLoadThreads);
  } else {
    client_pool.emplace(kLoadThreads);
  }

  // Inputs come from the seed alone; the first image is the cold one.
  const ac::train::Dataset data = make_inputs(w, input_shape(w), args.seed);
  ac::train::Dataset first;
  first.samples.push_back(data.samples[0]);

  ac::obs::Profiler profiler;
  ac::obs::Profiler* prof = args.trace ? &profiler : nullptr;
  Ledger ledger;

  // --------------------------------------------------------------- set-up
  // Untraced repetitions give the set-up medians; under --trace one more,
  // traced repetition gives the ledger exactly one cold pass to read.
  const auto set_up_once = [&](ac::obs::Profiler* p, SetupTimes& t) {
    const auto cold = [&](ac::sim::InferenceBackend& backend) {
      if (evaluator) {
        ac::sim::EvalHooks hooks;
        hooks.profiler = p;
        (void)evaluator->evaluate(backend, first, hooks);
      } else {
        backend.set_profiler(p, 0);
        ac::nn::Tensor logits;
        client_pool->parallel_for(1, [&](std::size_t, unsigned) {
          backend.forward_into(first.samples[0].image, logits);
        });
        backend.set_profiler(nullptr, 0);
        (void)backend.take_stats();
      }
    };
    return set_up(w, p, cold, t);
  };
  std::vector<SetupTimes> setups;
  Prepared prep;
  double setup_wall = 0.0;
  const double setup_cpu0 = cpu_seconds();
  while (setups.size() < kMinSetupReps ||
         (setup_wall < kSetupBudgetS && setups.size() < kMaxSetupReps)) {
    release(prep);
    SetupTimes t;
    prep = set_up_once(nullptr, t);
    setups.push_back(t);
    setup_wall += t.total_s;
  }
  const double setup_cpu = cpu_seconds() - setup_cpu0;
  if (prof != nullptr) {
    release(prep);
    SetupTimes t;
    prep = set_up_once(prof, t);
    ledger.absorb_cold(profiler.take());
  }
  const auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) {
      v.push_back(t.*field);
    }
    return quantile(v, 0.5);
  };

  // ---------------------------------------------------------- correctness
  std::size_t attempted = std::min(w.oracle_images, data.size());
  std::size_t failed = check_oracle(w, prep, data, args.seed, args.corrupt);

  // ----------------------------------------------------------- timed runs
  LatencySink sink(data);
  std::unique_ptr<TimedBackend> proto;
  if (evaluator) {
    proto = std::make_unique<TimedBackend>(prep.backend->clone(), &sink);
  }
  BestLatency direct_latency(data.size());
  Determinism det;
  const auto phase = [&](double seconds, ac::obs::Profiler* p,
                         Ledger* l) -> Phase {
    return evaluator ? run_batch(*evaluator, *proto, data, seconds, p, l, det)
                     : run_latency(*client_pool, *prep.backend, data, seconds,
                                   p, l, det, direct_latency);
  };

  const double untraced_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const Phase plain = phase(untraced_s, nullptr, nullptr);
  attempted += plain.images;
  failed += plain.failed;
  // Only the untraced phase feeds the percentiles.
  const BestLatency latency = evaluator ? sink.best : direct_latency;
  sink.cold_ms.clear();

  const ac::sim::RunStats pass = det.reference.value_or(ac::sim::RunStats{});
  const double n_img = static_cast<double>(std::max<std::uint64_t>(1, pass.samples));
  std::printf(
      "{\"deterministic_pass\": {\"images\": %llu, \"product_bits\": %llu, "
      "\"skipped_operands\": %llu, \"stream_bits_reused\": %llu, "
      "\"plan_hits\": %llu}, \"latency_samples\": %zu, \"latency_images\": "
      "%zu, \"preflight\": "
      "{\"errors\": %zu, \"warnings\": %zu}}\n",
      static_cast<unsigned long long>(pass.samples),
      static_cast<unsigned long long>(pass.product_bits),
      static_cast<unsigned long long>(pass.skipped_operands),
      static_cast<unsigned long long>(pass.stream_bits_reused),
      static_cast<unsigned long long>(pass.plan_hits), latency.samples,
      latency.ms.size(),
      prep.check_errors, prep.check_warnings);

  Metrics m;
  if (!args.trace) {
    const double p50 = latency.quantile_ms(0.5);
    const double p90 = latency.quantile_ms(0.9);
    m.add("throughput_img_s", ratio(plain.images, plain.wall_s), "img/s");
    m.add("latency_p50_ms", p50, "ms");
    m.add("latency_p90_ms", p90, "ms");
    m.add("setup_s", median_of(&SetupTimes::total_s), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    m.add("product_bits_per_img", static_cast<double>(pass.product_bits) / n_img,
          "bit");
  } else {
    if (hw) {
      hw->start();
    }
    const Phase traced = phase(args.seconds / 2.0, prof, &ledger);
    std::optional<ac::obs::PerfSample> hw_sample;
    if (hw) {
      hw_sample = hw->stop();
    }
    attempted += traced.images;
    failed += traced.failed;
    const KernelRates kr = time_kernels(cfg);

    std::printf("%s\n", ledger_json(ledger).c_str());
    if (hw_sample) {
      print_hw(*hw_sample, traced.images);
    }
    add_node_metrics(m, ledger, kr);
    m.add("sim.node.coverage", ratio(ledger.node_ns(), ledger.forward_ns),
          "ratio");
    const auto reused = static_cast<double>(pass.stream_bits_reused);
    const auto generated = static_cast<double>(pass.stream_bits_generated);
    m.add("sim.plan.reuse_ratio", ratio(reused, reused + generated), "ratio");
    m.add("sim.plan.miss_ratio",
          ratio(static_cast<double>(pass.plan_misses),
                static_cast<double>(pass.plan_hits + pass.plan_misses)),
          "ratio");
    m.add("sim.stream_bits_generated_per_img", generated / n_img, "bit");
    m.add("sim.scratch_bytes", static_cast<double>(pass.scratch_bytes), "B");
    m.add("sim.eval.clone_ms",
          ratio(ledger.clone_ns, static_cast<double>(ledger.clone_calls)) / 1e6,
          "ms");
    m.add("sim.eval.cold_image_ms", quantile(sink.cold_ms, 0.5), "ms");
    const auto product = static_cast<double>(pass.product_bits);
    const auto skipped = static_cast<double>(pass.skipped_operands);
    m.add("sim.skip_ratio", ratio(skipped, skipped + product), "ratio");
    m.add("runtime.tasks_per_img",
          ratio(static_cast<double>(plain.tasks), plain.images), "count");
    m.add("runtime.steal_ratio",
          ratio(static_cast<double>(plain.steals),
                static_cast<double>(plain.tasks)),
          "ratio");
    m.add("runtime.occupancy", plain.occupancy, "ratio");
    m.add("runtime.cpu_util.setup", ratio(setup_cpu, setup_wall * cores),
          "ratio");
    m.add("runtime.cpu_util.steady",
          ratio(plain.cpu_s, plain.wall_s * cores), "ratio");
    m.add("sc.kernel.and_or_popcount.ns_per_word",
          kr.and_or_popcount_ns_per_word, "ns/word");
    m.add("sc.kernel.compare_pack.ns_per_bit", kr.compare_pack_ns_per_bit,
          "ns/bit");
    m.add("sc.kernel.max_stream.ns_per_bit", kr.max_stream_ns_per_bit,
          "ns/bit");
    m.add("nn.build_ms", median_of(&SetupTimes::build_ms), "ms");
    m.add("analysis.check_ms", median_of(&SetupTimes::check_ms), "ms");
    m.add("sim.backend_ms", median_of(&SetupTimes::backend_ms), "ms");
    m.add("trace.overhead",
          ratio(ratio(plain.images, plain.wall_s),
                ratio(traced.images, traced.wall_s)),
          "ratio");
  }

  std::printf("{\"error_rate\": %.10g}\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      failed == 0 ? "true" : "false", attempted, failed, m.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
