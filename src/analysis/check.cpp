#include "analysis/check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/saturation.hpp"
#include "nn/residual.hpp"
#include "sc/rng.hpp"
#include "sc/sng.hpp"
#include "sim/op_graph.hpp"
#include "sim/sc_network.hpp"

namespace acoustic::analysis {

namespace {

using core::Report;
using core::Severity;

/// Prior for the mean post-ReLU activation value feeding a layer, used
/// where real activations are unavailable (descriptors, untrained nets).
constexpr double kActivationPrior = 0.5;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3g", v);
  return buf;
}

/// The state a seed actually loads into a width-bit LFSR (the constructor's
/// masking rules): masked to width bits, an all-zero result replaced by 1.
std::uint32_t masked_seed(std::uint32_t seed, unsigned width) {
  const std::uint32_t mask =
      width >= 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << width) - 1;
  const std::uint32_t s = seed & mask;
  return s == 0 ? 1 : s;
}

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", v);
  return buf;
}

/// Applies the stream-geometry rules (pool-untiled, stream-too-short,
/// segment-truncation, stream-resolution) of one node whose conv output is
/// out_h x out_w with fused pooling window @p pool (1 = none). Returns the
/// node's slot timetable — sim::window_schedule, the executor's own — with
/// seg == 0 when the node cannot execute.
sim::SegmentSchedule check_stream_geometry(Report& report,
                                           const std::string& path,
                                           const sim::ScConfig& cfg, int pool,
                                           int out_h, int out_w) {
  const sim::WindowSchedule w =
      sim::window_schedule(cfg.phase_length(), pool, out_h, out_w);
  const sim::SegmentSchedule& g = w.sched;
  if (!w.fused) {
    report.add("pool-untiled", Severity::kNote, path,
               "fused " + std::to_string(pool) + "x" + std::to_string(pool) +
                   " pooling window does not tile the " +
                   std::to_string(out_h) + "x" + std::to_string(out_w) +
                   " conv output; the executor falls back to binary-domain "
                   "pooling after the unfused conv (still exact, but the "
                   "computation-skipping benefit is lost)");
  }
  if (g.seg == 0) {
    report.add("stream-too-short", Severity::kError, path,
               "phase of " + std::to_string(g.phase) + " bits cannot cover " +
                   std::to_string(g.positions) +
                   " pooling-window slots (zero bits per slot); use a "
                   "stream of at least " +
                   std::to_string(2 * g.positions) + " bits");
    return g;
  }
  const std::size_t waste = g.phase - g.counted();
  if (waste > 0) {
    const double frac =
        static_cast<double>(waste) / static_cast<double>(g.phase);
    report.add("segment-truncation",
               frac >= 0.10 ? Severity::kWarning : Severity::kNote, path,
               std::to_string(g.positions) +
                   " slots do not divide the phase of " +
                   std::to_string(g.phase) + " bits; " +
                   std::to_string(waste) + " bits per phase (" +
                   fmt(100.0 * frac) + "%) are never counted");
  }
  const std::size_t grid = cfg.sng_width >= 32
                               ? (std::size_t{1} << 31)
                               : (std::size_t{1} << cfg.sng_width);
  if (g.seg < grid) {
    report.add("stream-resolution", Severity::kNote, path,
               "each slot counts " + std::to_string(g.seg) +
                   " bits and subsamples the 2^" +
                   std::to_string(cfg.sng_width) + " comparator grid; a " +
                   std::to_string(2 * g.positions * grid) +
                   "-bit stream gives every slot the full period");
  }
  return g;
}

/// Reports rule plan-budget-exceeded for a weighted node whose weight
/// table (live-tap weights of @p layout) or activation plan
/// (@p activations lanes) is over the configured plan budget — the
/// executor's own footprint rules (sim::weight_table_bytes,
/// sim::plan_table_bytes), so the note fires exactly where the executor
/// runs the node on the scalar oracle (weight table) or regenerates its
/// activation words in place (activation plan).
void note_plan_budget(Report& report, const std::string& path,
                      const sim::ScConfig& cfg,
                      const sim::SegmentSchedule& sched,
                      const sim::WeightLayout& layout,
                      std::size_t activations) {
  const struct {
    const char* what;
    std::size_t bytes;
    const char* route;
  } tables[] = {
      {"weight table", sim::weight_table_bytes(sched, layout),
       "the layer runs the scalar oracle instead of the planned body"},
      {"activation plan", sim::plan_table_bytes(sched, activations),
       "the layer regenerates those stream words on the fly"}};
  for (const auto& [what, bytes, route] : tables) {
    if (sim::over_plan_budget(bytes, cfg.plan_budget_bytes)) {
      report.add("plan-budget-exceeded", Severity::kNote, path,
                 std::string(what) + " would need " + std::to_string(bytes) +
                     " bytes (~" + std::to_string(bytes >> 20) +
                     " MiB) against a budget of " +
                     std::to_string(cfg.plan_budget_bytes) + " bytes; " +
                     route + " (bit-identical, slower)");
    }
  }
}

/// Reports rule or-saturation if the estimate's OR line level exceeds the
/// threshold. @p basis describes where the product probabilities came from;
/// @p severity is kWarning when real weights backed the estimate and kNote
/// when only a prior did (priors routinely overshoot on wide layers, so a
/// prior-based bound must not fail --werror gates on its own).
void report_saturation(Report& report, const std::string& path,
                       const CheckOptions& options,
                       const SaturationEstimate& est, std::size_t fan_in,
                       const std::string& basis,
                       Severity severity = Severity::kWarning) {
  if (est.or_p <= options.saturation_threshold) {
    return;
  }
  std::string msg =
      "expected OR line level " + fmt(est.or_p) + " (linear target " +
      fmt(est.sum_p) + ", " + std::to_string(fan_in) +
      " live products, relative loss " + fmt(est.relative_loss) +
      ") exceeds the saturation threshold " +
      fmt(options.saturation_threshold) + " — " + basis +
      "; the phase output pins near 1 and stops discriminating. "
      "Saturation is stream-length independent: reduce the effective "
      "fan-in or the weight magnitudes (or train with an OR-aware mode)";
  if (est.subsampled) {
    msg += "; a " + std::to_string(est.recommended_stream) +
           "-bit stream would at least remove the additional segment "
           "subsampling";
  }
  report.add("or-saturation", severity, path, std::move(msg));
}

}  // namespace

core::Report check_config(const sim::ScConfig& cfg) {
  Report report;
  const std::string path = "config";
  bool width_ok = true;
  if (cfg.sng_width < 3 || cfg.sng_width > 32) {
    report.add("sng-width-invalid", Severity::kError, path,
               "SNG width " + std::to_string(cfg.sng_width) +
                   " is outside the supported LFSR range 3..32");
    width_ok = false;
  } else if (cfg.sng_width > 24) {
    report.add("quantize-resolution", Severity::kWarning, path,
               "SNG width " + std::to_string(cfg.sng_width) +
                   " exceeds the 24-bit float mantissa of the activations; "
                   "levels beyond 2^24 cannot be distinguished by the "
                   "comparator inputs");
  }
  bool stream_ok = true;
  if (cfg.stream_length < 2) {
    report.add("stream-length-invalid", Severity::kError, path,
               "stream length " + std::to_string(cfg.stream_length) +
                   " leaves no bits for the split-unipolar phases "
                   "(need at least 2)");
    stream_ok = false;
  } else if (cfg.stream_length % 2 != 0) {
    report.add("stream-length-invalid", Severity::kWarning, path,
               "odd stream length " + std::to_string(cfg.stream_length) +
                   ": the split-unipolar convention uses stream/2 bits per "
                   "sign phase, so one bit is never counted");
  }
  if (width_ok) {
    const std::uint32_t act = masked_seed(cfg.activation_seed, cfg.sng_width);
    const std::uint32_t wgt = masked_seed(cfg.weight_seed, cfg.sng_width);
    if (act == wgt) {
      report.add(
          "sng-seed-collision", Severity::kError, path,
          "activation seed " + hex(cfg.activation_seed) +
              " and weight seed " + hex(cfg.weight_seed) +
              " load the same " + std::to_string(cfg.sng_width) +
              "-bit LFSR state " + hex(act) +
              " after masking; the per-lane scrambler wiring is identical "
              "across the two banks, so activation lane L and weight lane L "
              "emit identical streams and every product degenerates to "
              "a AND a = a");
    }
  }
  if (!cfg.decorrelate_lanes) {
    report.add("sng-naive-sharing", Severity::kWarning, path,
               "per-lane decorrelation is disabled: every SNG of a bank "
               "compares against the same shared LFSR sequence, making all "
               "streams maximally correlated and breaking OR accumulation "
               "(the ablation failure mode)");
  }
  if (width_ok && stream_ok) {
    const std::uint64_t period =
        (std::uint64_t{1} << cfg.sng_width) - 1;
    const std::uint64_t bank = cfg.stream_length;
    if (bank > period) {
      const double reuse = static_cast<double>(bank - period) /
                           static_cast<double>(bank);
      report.add("lfsr-period-exhausted",
                 reuse > 0.25 ? Severity::kWarning : Severity::kNote, path,
                 "the shared " + std::to_string(cfg.sng_width) +
                     "-bit LFSR repeats after " + std::to_string(period) +
                     " cycles but the bank window spans " +
                     std::to_string(bank) + " bits; " + fmt(100.0 * reuse) +
                     "% of the window replays earlier states, "
                     "reintroducing correlation between the sign phases");
    }
  }
  return report;
}

core::Report check_descriptor(const nn::NetworkDesc& net,
                              const CheckOptions& options) {
  Report report;
  const bool sc = options.target == CheckTarget::kScSim;
  if (sc && options.include_config) {
    report.merge(check_config(options.sc));
  }
  // Every producible activation volume: the network input plus each
  // layer's pooled output. Branchy topologies (ResNet's downsample convs
  // read an earlier trunk output) are covered by matching against ANY
  // earlier volume, not just the immediately preceding one.
  struct Vol {
    int h = 0, w = 0, c = 0;
  };
  std::vector<Vol> volumes;
  // Residual-block bookkeeping: the volume the open block's skip path
  // carries (saved input, or the projection conv's output), so the add at
  // the block closer can be shape-checked statically.
  struct SkipTrack {
    bool open = false;
    Vol saved;
    std::string opened_at;
  } skip;
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const nn::LayerDesc& layer = net.layers[i];
    const std::string path =
        net.name + "/" +
        (layer.label.empty() ? "layer" + std::to_string(i) : layer.label);
    const bool conv = layer.kind == nn::OpKind::kConv2D;

    bool geom_ok = layer.in_h > 0 && layer.in_w > 0 && layer.in_c > 0 &&
                   layer.out_c > 0;
    if (conv) {
      geom_ok = geom_ok && layer.kernel > 0 && layer.stride > 0 &&
                layer.padding >= 0;
    }
    if (!geom_ok) {
      report.add("geometry-invalid", Severity::kError, path,
                 "non-positive layer dimensions (in " +
                     std::to_string(layer.in_h) + "x" +
                     std::to_string(layer.in_w) + "x" +
                     std::to_string(layer.in_c) + ", out_c " +
                     std::to_string(layer.out_c) + ")");
    }
    if (conv && geom_ok) {
      if (layer.groups < 1 || layer.in_c % layer.groups != 0 ||
          layer.out_c % layer.groups != 0) {
        report.add("geometry-invalid", Severity::kError, path,
                   std::to_string(layer.groups) +
                       " groups do not divide in_c=" +
                       std::to_string(layer.in_c) +
                       " and out_c=" + std::to_string(layer.out_c));
        geom_ok = false;
      } else if (layer.out_h() <= 0 || layer.out_w() <= 0) {
        report.add("geometry-invalid", Severity::kError, path,
                   "kernel " + std::to_string(layer.kernel) + " (stride " +
                       std::to_string(layer.stride) + ", padding " +
                       std::to_string(layer.padding) +
                       ") does not fit the " + std::to_string(layer.in_h) +
                       "x" + std::to_string(layer.in_w) + " input");
        geom_ok = false;
      }
    }

    // Graph / shape inference: the input volume must be producible by an
    // earlier layer (or be the network input for layer 0).
    if (i == 0) {
      volumes.push_back(Vol{layer.in_h, layer.in_w, layer.in_c});
    } else {
      bool matched = false;
      for (const Vol& v : volumes) {
        if (conv) {
          matched = v.h == layer.in_h && v.w == layer.in_w &&
                    v.c == layer.in_c;
        } else {
          // Dense inputs are flattened: either an exact vector match or a
          // volume whose element count equals the feature count.
          matched = (v.h == 1 && v.w == 1 && v.c == layer.in_c) ||
                    (static_cast<std::int64_t>(v.h) * v.w * v.c ==
                     layer.in_c);
        }
        if (matched) {
          break;
        }
      }
      if (!matched) {
        report.add("shape-mismatch", Severity::kError, path,
                   "input volume " + std::to_string(layer.in_h) + "x" +
                       std::to_string(layer.in_w) + "x" +
                       std::to_string(layer.in_c) +
                       " is not produced by any earlier layer (or the "
                       "network input)");
      }
    }
    volumes.push_back(conv ? Vol{layer.pooled_h(), layer.pooled_w(),
                                 layer.out_c}
                           : Vol{1, 1, layer.out_c});

    // Residual-block structure and shape rules (target-independent: both
    // the SC graph executor and the performance model lower skips).
    if (conv && geom_ok) {
      if (layer.residual_proj) {
        if (skip.open) {
          report.add("residual-structure", Severity::kError, path,
                     "skip projection opens a residual block while the one "
                     "opened at " + skip.opened_at + " is still unclosed "
                     "(nested residual blocks have no lowering)");
        }
        skip.open = true;
        skip.saved = Vol{layer.out_h(), layer.out_w(), layer.out_c};
        skip.opened_at = path;
      } else {
        if (!skip.open && !layer.residual && i + 1 < net.layers.size() &&
            net.layers[i + 1].kind == nn::OpKind::kConv2D &&
            net.layers[i + 1].residual) {
          // Identity block: the conv before the residual closer opens it,
          // saving its own input.
          skip.open = true;
          skip.saved = Vol{layer.in_h, layer.in_w, layer.in_c};
          skip.opened_at = path;
        }
        if (layer.residual) {
          if (!skip.open) {
            report.add("residual-structure", Severity::kError, path,
                       "residual closer without an open block (no "
                       "preceding skip save or projection)");
          } else {
            if (skip.saved.h != layer.out_h() ||
                skip.saved.w != layer.out_w() ||
                skip.saved.c != layer.out_c) {
              report.add("residual-shape", Severity::kError, path,
                         "skip tensor " + std::to_string(skip.saved.h) +
                             "x" + std::to_string(skip.saved.w) + "x" +
                             std::to_string(skip.saved.c) + " saved at " +
                             skip.opened_at +
                             " does not match the block output " +
                             std::to_string(layer.out_h()) + "x" +
                             std::to_string(layer.out_w()) + "x" +
                             std::to_string(layer.out_c) +
                             " at the residual add (is the skip-path "
                             "projection missing or mis-sized?)");
            }
            skip.open = false;
          }
        }
      }
    }

    if (!sc) {
      continue;
    }
    if (!geom_ok) {
      continue;
    }
    const sim::SegmentSchedule g = check_stream_geometry(
        report, path, options.sc, layer.fused_pool(),
        conv ? layer.out_h() : 1, conv ? layer.out_w() : 1);
    if (g.seg == 0) {
      continue;
    }
    // Prior-based OR-saturation bound: one identical product line per
    // weight at a tap one output position reads, at the position reading
    // the most (sim::position_taps), at the Kaiming |weight| prior of the
    // full fan-in scaled by the activation prior.
    std::size_t fan_in = static_cast<std::size_t>(layer.in_c);
    std::size_t live_lines = fan_in;
    if (conv) {
      const nn::ConvSpec spec{.in_channels = layer.in_c,
                              .out_channels = layer.out_c,
                              .kernel = layer.kernel,
                              .stride = layer.stride,
                              .padding = layer.padding,
                              .groups = layer.groups};
      const auto cpg = static_cast<std::size_t>(layer.channels_per_group());
      fan_in = static_cast<std::size_t>(layer.kernel) * layer.kernel * cpg;
      std::size_t most_taps = 0;
      for (const sim::TapRect& r : sim::position_taps(
               spec, nn::Shape{layer.in_h, layer.in_w, layer.in_c})) {
        most_taps = std::max(most_taps, r.count());
      }
      live_lines = most_taps * cpg;
    }
    const double mean_p =
        kActivationPrior * kaiming_mean_abs_weight(fan_in);
    const SaturationEstimate est = estimate_saturation_uniform(
        live_lines, mean_p, g.seg, g.positions, options.sc.sng_width);
    report_saturation(report, path, options, est, live_lines,
                      "estimated from the Kaiming prior E|w| = sqrt(1.5/" +
                          std::to_string(fan_in) + ") at activation prior " +
                          fmt(kActivationPrior),
                      Severity::kNote);
  }
  if (skip.open) {
    report.add("residual-structure", Severity::kError, skip.opened_at,
               "residual block is opened here but never closed (no later "
               "conv carries the residual add)");
  }
  return report;
}

namespace {

/// Quantized product probabilities of one weighted layer, per (output,
/// sign phase), reduced to the worst OR level across outputs.
struct WorstPhase {
  SaturationEstimate est;
  std::size_t fan_in = 0;   ///< live lines of the worst phase
  std::size_t output = 0;   ///< output channel / feature of the worst phase
  bool positive = true;
  bool any = false;
};

/// @p windows are the taps single output positions read
/// (sim::position_taps): each output's OR lines are the weights at one
/// window's taps, and the worst window counts.
WorstPhase worst_saturation(std::span<const float> weights,
                            const sim::WeightLayout& layout,
                            std::span<const sim::TapRect> windows,
                            const CheckOptions& options,
                            const sim::SegmentSchedule& sched) {
  WorstPhase worst;
  const unsigned width = options.sc.sng_width;
  const double grid =
      width >= 32 ? 4294967296.0 : static_cast<double>(1u << width) * 1.0;
  const std::size_t rf = layout.w_per_oc;  // weight s sits at tap s / cpg
  SaturationInput in;
  in.seg_bits = sched.seg;
  in.positions = sched.positions;
  in.sng_width = width;
  std::vector<double> pos;
  std::vector<double> neg;
  for (std::size_t o = 0; o < layout.oc_count; ++o) {
    for (const sim::TapRect& window : windows) {
      pos.clear();
      neg.clear();
      for (std::size_t s = 0; s < rf; ++s) {
        const float wv = weights[o * rf + s];
        if (!(wv > 0.0f) && !(wv < 0.0f)) {
          continue;  // zero / non-finite weights are operand-gated
        }
        const std::size_t tap = s / layout.cpg;
        if (!window.contains(tap / layout.kernel, tap % layout.kernel)) {
          continue;  // padding at every position of this window
        }
        const std::uint32_t level =
            sc::quantize_unipolar(std::fabs(static_cast<double>(wv)), width);
        if (level == 0) {
          continue;
        }
        const double p =
            kActivationPrior * static_cast<double>(level) / grid;
        (wv > 0.0f ? pos : neg).push_back(p);
      }
      for (int sign = 0; sign < 2; ++sign) {
        const std::vector<double>& lines = sign == 0 ? pos : neg;
        if (lines.empty()) {
          continue;
        }
        in.product_p = lines;
        const SaturationEstimate est = estimate_saturation(in);
        if (!worst.any || est.or_p > worst.est.or_p) {
          worst.any = true;
          worst.est = est;
          worst.fan_in = lines.size();
          worst.output = o;
          worst.positive = sign == 0;
        }
      }
    }
  }
  return worst;
}

/// Weight scans of one live weighted layer: non-finite values, magnitudes
/// outside the unipolar encoding range, accumulation-mode mismatch.
void check_weights(Report& report, const std::string& path,
                   std::span<const float> weights, nn::AccumMode mode) {
  std::size_t nonfinite = 0;
  std::size_t out_of_range = 0;
  float max_abs = 0.0f;
  for (const float wv : weights) {
    if (!std::isfinite(wv)) {
      ++nonfinite;
      continue;
    }
    const float a = std::fabs(wv);
    max_abs = a > max_abs ? a : max_abs;
    if (a > 1.0f) {
      ++out_of_range;
    }
  }
  if (nonfinite > 0) {
    report.add("nonfinite-weight", Severity::kError, path,
               std::to_string(nonfinite) + " of " +
                   std::to_string(weights.size()) +
                   " weights are NaN/Inf; the simulator silently "
                   "operand-gates them, which is almost never what a "
                   "trained model means");
  }
  if (out_of_range > 0) {
    report.add("weight-range", Severity::kWarning, path,
               std::to_string(out_of_range) + " of " +
                   std::to_string(weights.size()) +
                   " weight magnitudes exceed 1 (max |w| = " + fmt(max_abs) +
                   "); the unipolar SNG encodes |w| in [0, 1], so these "
                   "saturate at level 2^width - 1");
  }
  if (mode == nn::AccumMode::kSum) {
    report.add("accum-mode-mismatch", Severity::kWarning, path,
               "layer is configured for linear (kSum) accumulation but the "
               "SC datapath executes OR accumulation; evaluate a model "
               "trained with kOrApprox/kOrExact or expect the systematic "
               "saturation error untrained");
  }
}

/// The weighted-node rules, one function for conv, dense and skip-project
/// nodes alike: weight scans, stream timetable, OR saturation and plan
/// budget, all on the executor's own node geometry (sim::conv_geometry)
/// and the BN-folded weights it quantizes (sim::node_weights). @p in is the
/// volume the node is fed.
void check_weighted_node(Report& report, const std::string& path,
                         const CheckOptions& options, const sim::LoweredOp& op,
                         nn::Shape in, std::vector<float>& scratch) {
  const sim::ConvGeometry g =
      sim::conv_geometry(op, in, options.sc.phase_length());
  const std::span<const float> weights = sim::node_weights(op, scratch);
  check_weights(report, path, weights, g.spec.mode);
  const sim::SegmentSchedule sched =
      check_stream_geometry(report, path, options.sc, op.pool_window(),
                            g.conv_out.h, g.conv_out.w);
  if (sched.seg == 0) {
    return;
  }
  const WorstPhase worst = worst_saturation(
      weights, g.layout, sim::position_taps(g.spec, g.in), options, sched);
  if (worst.any) {
    report_saturation(
        report, path, options, worst.est, worst.fan_in,
        std::string("computed from the quantized weight levels of output ") +
            (op.kind == nn::OpKind::kDense ? "feature " : "channel ") +
            std::to_string(worst.output) + "'s " +
            (worst.positive ? "positive" : "negative") +
            " phase at activation prior " + fmt(kActivationPrior));
  }
  note_plan_budget(report, path, options.sc, sched, g.layout, in.size());
}

}  // namespace

core::Report check_network(nn::Network& net, std::string_view name,
                           nn::Shape input_shape,
                           const CheckOptions& options) {
  Report report;
  const bool sc = options.target == CheckTarget::kScSim;
  if (sc && options.include_config) {
    report.merge(check_config(options.sc));
  }
  const std::string prefix = std::string(name) + "/";
  if (net.layer_count() == 0) {
    report.add("stage-structure", Severity::kError, std::string(name),
               "network has no layers");
    return report;
  }
  nn::Shape shape = input_shape;
  // Shapes riding each skip connection, keyed by its identity so save /
  // project / add triples pair up exactly like they do at runtime.
  std::map<const void*, nn::Shape> skip_shapes;
  // The volume each weighted layer is fed (a projection: the saved skip
  // tensor), keyed by the layer its lowered node carries.
  std::map<const nn::Layer*, nn::Shape> node_inputs;
  bool shapes_ok =
      input_shape.h > 0 && input_shape.w > 0 && input_shape.c > 0;
  if (!shapes_ok) {
    report.add("shape-mismatch", Severity::kError, std::string(name),
               "non-positive input shape " + std::to_string(input_shape.h) +
                   "x" + std::to_string(input_shape.w) + "x" +
                   std::to_string(input_shape.c));
  }
  for (std::size_t i = 0; i < net.layer_count() && shapes_ok; ++i) {
    nn::Layer& layer = net.layer(i);
    const std::string path = prefix + layer.name();
    try {
      if (layer.kind() == nn::Layer::Kind::kSkipSave) {
        skip_shapes[static_cast<nn::SkipSave&>(layer).connection()] = shape;
        continue;  // identity on the main path
      }
      if (layer.kind() == nn::Layer::Kind::kSkipProject) {
        auto& proj = static_cast<nn::SkipProject&>(layer);
        const auto it = skip_shapes.find(proj.connection());
        if (it == skip_shapes.end()) {
          report.add("residual-structure", Severity::kError, path,
                     "skip projection runs before any paired skip save "
                     "recorded a tensor");
          shapes_ok = false;
          break;
        }
        node_inputs[&layer] = it->second;
        it->second = proj.conv().output_shape(it->second);
        continue;  // identity on the main path
      }
      if (layer.kind() == nn::Layer::Kind::kSkipAdd) {
        const auto it = skip_shapes.find(
            static_cast<nn::SkipAdd&>(layer).connection());
        if (it == skip_shapes.end()) {
          report.add("residual-structure", Severity::kError, path,
                     "skip add runs before any paired skip save recorded "
                     "a tensor");
          shapes_ok = false;
          break;
        }
        if (!(it->second == shape)) {
          report.add("residual-shape", Severity::kError, path,
                     "skip tensor " + std::to_string(it->second.h) + "x" +
                         std::to_string(it->second.w) + "x" +
                         std::to_string(it->second.c) +
                         " does not match the block output " +
                         std::to_string(shape.h) + "x" +
                         std::to_string(shape.w) + "x" +
                         std::to_string(shape.c) +
                         " at the residual add (is the skip-path "
                         "projection missing or mis-sized?)");
          shapes_ok = false;
          break;
        }
        continue;
      }
      if (layer.kind() == nn::Layer::Kind::kConv2D ||
          layer.kind() == nn::Layer::Kind::kDense) {
        node_inputs[&layer] = shape;
      }
      // Every other layer's own shape rule validates its input (channel
      // and feature counts, kernel fit); thrown mismatches become
      // diagnostics.
      shape = layer.output_shape(shape);
    } catch (const std::exception& e) {
      report.add("shape-mismatch", Severity::kError, path, e.what());
      shapes_ok = false;
      break;
    }
    if (shape.h <= 0 || shape.w <= 0 || shape.c <= 0) {
      report.add("shape-mismatch", Severity::kError, path,
                 "produces the non-positive output volume " +
                     std::to_string(shape.h) + "x" +
                     std::to_string(shape.w) + "x" +
                     std::to_string(shape.c));
      shapes_ok = false;
    }
  }

  // The SC rules run on exactly the nodes the executor runs: lower_graph
  // alone decides AvgPool fusion, BatchNorm folding and which layers may
  // open the network.
  if (sc) {
    std::vector<sim::LoweredOp> ops;
    try {
      ops = sim::lower_graph(net, sim::sc_lower_options(options.sc),
                             "check_network");
    } catch (const std::invalid_argument& e) {
      report.add("stage-structure", Severity::kError,
                 prefix + net.layer(0).name(), e.what());
    }
    std::vector<float> folded;
    for (const sim::LoweredOp& op : ops) {
      if (shapes_ok && op.weighted()) {
        check_weighted_node(report, prefix + op.name, options, op,
                            node_inputs.at(op.layer), folded);
      }
    }
  }

  // Probe pass: a deterministic forward through the bit-level executor's
  // snapshot, the probe's one copy of the network — first each layer's
  // const infer (activation scans; one skip tensor per connection, as the
  // graph walk keeps), then the executor, whose built plans the
  // plan-invariant validator re-derives. Only attempted when the static
  // rules found no errors: probing a structurally broken model would just
  // throw the error the walk already reported.
  if (sc && options.probe && report.ok() && shapes_ok) {
    nn::Tensor input(input_shape);
    sc::XorShift32 rng(0x2f6e2b1u);
    for (std::size_t i = 0; i < input.size(); ++i) {
      input[i] = static_cast<float>(rng.next_double());
    }
    try {
      sim::ScNetwork exec(net, options.sc);
      const nn::Network& probe = exec.network();
      try {
        std::map<const void*, nn::Tensor> skips;
        nn::Tensor t = input;
        nn::Tensor next;
        for (std::size_t li = 0; li < probe.layer_count(); ++li) {
          const nn::Layer& layer = probe.layer(li);
          const auto* skip = dynamic_cast<const nn::SkipLayer*>(&layer);
          layer.infer(t, next,
                      skip != nullptr ? &skips[skip->connection()] : nullptr);
          std::swap(t, next);
          std::size_t nonfinite = 0;
          float lo = 0.0f;
          float hi = 0.0f;
          for (const float v : t.data()) {
            if (!std::isfinite(v)) {
              ++nonfinite;
            } else {
              lo = v < lo ? v : lo;
              hi = v > hi ? v : hi;
            }
          }
          const std::string lpath = prefix + layer.name();
          if (nonfinite > 0) {
            report.add("nonfinite-activation", Severity::kError, lpath,
                       std::to_string(nonfinite) +
                           " activations are NaN/Inf on the probe input");
          }
          // Only activations that directly feed a weighted layer reach an
          // SNG; intermediate conv/pool outputs still pass through ReLU
          // first, and the final logits are read in binary.
          const bool feeds_sng =
              li + 1 < probe.layer_count() &&
              (probe.layer(li + 1).kind() == nn::Layer::Kind::kConv2D ||
               probe.layer(li + 1).kind() == nn::Layer::Kind::kDense);
          if (feeds_sng && (lo < 0.0f || hi > 1.0f)) {
            report.add("activation-range", Severity::kWarning, lpath,
                       "probe activations span [" + fmt(lo) + ", " +
                           fmt(hi) +
                           "]; the unipolar SNG clamps its input to "
                           "[0, 1], so values outside are distorted");
          }
        }
      } catch (const std::exception& e) {
        report.add("sc-lowering-failed", Severity::kError, std::string(name),
                   std::string("float probe forward threw: ") + e.what());
      }
      (void)exec.forward(input);
      report.merge(exec.validate_plans(), name);
    } catch (const std::exception& e) {
      report.add("sc-lowering-failed", Severity::kError, std::string(name),
                 std::string("SC executor rejected the network: ") +
                     e.what());
    }
  }
  return report;
}

}  // namespace acoustic::analysis
