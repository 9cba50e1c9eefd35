// The inference backends by name.
//
// Every functional execution path of the repo — the float reference
// network, the bit-level split-unipolar simulator (ScNetwork, both pooling
// modes) and the conventional bipolar-MUX baseline (BipolarNetwork) — is a
// sim::GraphExecutor, which implements InferenceBackend (sim/op_graph.hpp),
// so dataset evaluation, the CLI and the paper benches are written once
// against that interface instead of hand-rolling a loop per executor.
//
// Concurrency model: every executor deep-copies the network it is built on
// once into a const snapshot, which nothing else can reach; a factory only
// constructs. clone() produces a twin with fresh scratch and zeroed stats
// on the same snapshot: inference never writes the network, so no clone
// copies a weight. sim::BatchEvaluator gives each worker thread its own
// clone, which is what makes N-thread evaluation bit-identical to 1-thread
// evaluation — forward() is a pure function of (weights, config, input),
// and stats merge commutatively.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <string_view>

#include "nn/network.hpp"
#include "sim/bipolar_network.hpp"
#include "sim/op_graph.hpp"
#include "sim/sc_config.hpp"
#include "sim/sc_network.hpp"

namespace acoustic::sim {

/// Float (binary-arithmetic) reference execution of @p net: the graph
/// walk over the unfused, unfolded lowering with each weighted node
/// running its layer's own infer, so the logits are
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
