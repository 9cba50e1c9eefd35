// Network-level SC static analyzer ("acoustic check").
//
// Lifts PR 1's ahead-of-execution analysis from the ISA level to the
// network/stream level: instead of running a model and eyeballing the
// accuracy, the checker proves — or refutes — the properties ACOUSTIC's
// accuracy rests on before a single stream bit is generated. A serving
// stack rejects bad models at load time with these diagnostics, not at
// request time with a garbage logit.
//
// Three entry points, all reporting through the shared core::Report:
//
//   check_config      — SC configuration sanity: stream length, SNG/LFSR
//                       width, seed collisions, period exhaustion.
//   check_descriptor  — shape-only zoo descriptors (nn::NetworkDesc):
//                       graph/shape inference, geometry, ops the SC
//                       simulator cannot lower, pooling-window tiling,
//                       segment schedules, prior-based OR-saturation
//                       bounds.
//   check_network     — live trainable networks (nn::Network): everything
//                       above plus weight range/NaN scans, quantized-level
//                       saturation bounds, activation range probing, plan
//                       budget estimates, and (optionally) the executed
//                       plan-invariant validation of sim::ScNetwork. Its SC
//                       rules walk the weighted nodes of sim::lower_graph —
//                       lowered exactly as sim::ScNetwork lowers them — at
//                       the executor's own node geometry and BN-folded
//                       weights (sim/op_graph.hpp), so findings anchor at
//                       lowered nodes.
//
// Rule IDs are stable kebab-case strings; see DESIGN.md section 14 for
// each rule's analytic basis.
#pragma once

#include <string>
#include <string_view>

#include "core/diagnostics.hpp"
#include "nn/model_zoo.hpp"
#include "nn/network.hpp"
#include "nn/tensor.hpp"
#include "sim/sc_config.hpp"

namespace acoustic::analysis {

/// What the checked model is destined for. SC-functional-simulation rules
/// (stream/SNG/saturation/lowering) only make sense when the model will
/// run on the bit-level simulator; the performance/energy simulator lowers
/// every zoo descriptor (grouped conv, residual preload) and only needs
/// the structural rules.
enum class CheckTarget {
  kScSim,    ///< bit-level functional SC simulation (default)
  kPerfSim,  ///< performance/energy simulation only
};

struct CheckOptions {
  sim::ScConfig sc;  ///< stream/SNG configuration the model would run under
  CheckTarget target = CheckTarget::kScSim;

  /// or-saturation fires when the expected OR line level of the worst
  /// (output, sign phase) exceeds this: the phase output is pinned near 1
  /// and stops discriminating.
  double saturation_threshold = 0.95;

  /// check_network only: run a deterministic probe forward through the
  /// float network to scan intermediate activations for range violations,
  /// and through sim::ScNetwork to execute the plan-invariant validator.
  bool probe = true;

  /// Merge check_config findings into descriptor/network reports. Turn off
  /// when aggregating many models under one shared config (the zoo check)
  /// so the config findings appear once, not once per model.
  bool include_config = true;
};

/// SC configuration sanity (rules: stream-length-invalid,
/// sng-width-invalid, quantize-resolution, sng-seed-collision,
/// sng-naive-sharing, lfsr-period-exhausted). Findings anchor at path
/// "config". Included by both check_descriptor and check_network when the
/// target is kScSim.
[[nodiscard]] core::Report check_config(const sim::ScConfig& cfg);

/// Static analysis of a shape-only zoo descriptor. Findings anchor at
/// "<net.name>/<layer label>".
[[nodiscard]] core::Report check_descriptor(const nn::NetworkDesc& net,
                                            const CheckOptions& options = {});

/// Static + probe analysis of a live trainable network. @p name labels the
/// finding paths; @p input_shape is the activation volume fed to the first
/// layer (the checker walks Layer::output_shape from there). SC findings of
/// a weighted node anchor at "<name>/<node layer>": the conv, dense or skip
/// projection that opens the lowered node.
[[nodiscard]] core::Report check_network(nn::Network& net,
                                         std::string_view name,
                                         nn::Shape input_shape,
                                         const CheckOptions& options = {});

}  // namespace acoustic::analysis
