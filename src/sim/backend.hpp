// Unified inference-backend layer.
//
// Every functional execution path of the repo — the float reference
// network, the bit-level split-unipolar simulator (ScNetwork, both pooling
// modes) and the conventional bipolar-MUX baseline (BipolarNetwork) — is
// reachable through one interface, so dataset evaluation, the CLI and the
// paper benches are written once against InferenceBackend instead of
// hand-rolling a loop per executor.
//
// Concurrency model: a backend snapshots the source network at
// construction (nn::Network::clone), so it shares no mutable state with
// the caller's network or with sibling backends. clone() produces an
// independent twin with zeroed stats; sim::BatchEvaluator gives each
// worker thread its own clone, which is what makes N-thread evaluation
// bit-identical to 1-thread evaluation — forward() is a pure function of
// (weights, config, input), and stats merge commutatively.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "nn/network.hpp"
#include "obs/span.hpp"
#include "sim/bipolar_network.hpp"
#include "sim/sc_config.hpp"
#include "sim/sc_network.hpp"

namespace acoustic::sim {

/// One functional execution path for a fixed trained network.
class InferenceBackend {
 public:
  virtual ~InferenceBackend() = default;

  InferenceBackend() = default;
  InferenceBackend(const InferenceBackend&) = delete;
  InferenceBackend& operator=(const InferenceBackend&) = delete;

  /// Stable identifier ("float", "sc", "sc-mux", "bipolar").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Independent twin: same weights and configuration, fresh scratch,
  /// zeroed stats. Safe to run concurrently with this backend.
  [[nodiscard]] virtual std::unique_ptr<InferenceBackend> clone() const = 0;

  /// Runs one sample. Not thread-safe per instance — use clone() for
  /// concurrency.
  [[nodiscard]] virtual nn::Tensor forward(const nn::Tensor& input) = 0;

  /// Runs one sample into a caller-owned output tensor, reusing its
  /// capacity. The built-in backends run their executor's forward_into
  /// (allocation-free on the SC backend); the default simply wraps
  /// forward(). Same bits as forward() in every backend.
  virtual void forward_into(const nn::Tensor& input, nn::Tensor& out) {
    out = forward(input);
  }

  /// Stats accumulated since construction / the last take_stats().
  [[nodiscard]] virtual RunStats stats() const = 0;

  /// Returns the accumulated stats and resets them.
  [[nodiscard]] virtual RunStats take_stats() = 0;

  /// Enables per-layer profiling spans on timeline lane @p track (worker
  /// index under the batch evaluator). The profiler must outlive the
  /// backend and may be shared across clones — it is thread-safe. A
  /// clone() does NOT inherit the profiler (the evaluator re-attaches
  /// per worker with the worker's own track). Default: no-op, so
  /// third-party backends keep working unprofiled.
  virtual void set_profiler(obs::Profiler* profiler, std::uint32_t track) {
    (void)profiler;
    (void)track;
  }
};

/// Float (binary-arithmetic) reference execution of @p net: the graph
/// walk over the unfused, unfolded lowering with each weighted node
/// running its layer's own forward, so the logits are
/// nn::Network::forward's bit for bit and the nodes (spans, layers_run)
/// line up with the other backends'. Like them, throws
/// std::invalid_argument for a network that opens with a binary-domain
/// layer.
[[nodiscard]] std::unique_ptr<InferenceBackend> make_float_backend(
    nn::Network& net);

/// Bit-level split-unipolar execution (named "sc" for kSkipping pooling,
/// "sc-mux" for kMux: the conv unfused, then the exact binary average
/// pool; no MUX select is modelled).
[[nodiscard]] std::unique_ptr<InferenceBackend> make_sc_backend(
    nn::Network& net, const ScConfig& cfg);

/// Conventional bipolar-MUX baseline execution.
[[nodiscard]] std::unique_ptr<InferenceBackend> make_bipolar_backend(
    nn::Network& net, const BipolarConfig& cfg);

/// The names make_backend accepts — the --backend choices of `acoustic
/// eval`.
inline constexpr std::array<std::string_view, 4> kBackendNames = {
    "float", "sc", "sc-mux", "bipolar"};

/// Factory by name (one of kBackendNames). The irrelevant config is
/// ignored. Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<InferenceBackend> make_backend(
    const std::string& name, nn::Network& net, const ScConfig& sc_cfg = {},
    const BipolarConfig& bipolar_cfg = {});

}  // namespace acoustic::sim
