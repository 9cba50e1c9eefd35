// acoustic — command-line driver for the reproduction.
//
// `acoustic --help` lists the subcommands; `acoustic <command> --help`
// prints one command's arguments and options, generated from its option
// table below (see core/cli.hpp). Every command exits 0 on success, 1 on
// a failed run or on findings, and 2 on a usage error.
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/check.hpp"
#include "core/accelerator.hpp"
#include "core/cli.hpp"
#include "core/diagnostics.hpp"
#include "core/report.hpp"
#include "energy/breakdown.hpp"
#include "isa/assembler.hpp"
#include "obs/bench_harness.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "perf/timeline.hpp"
#include "perf/trace_export.hpp"
#include "nn/zoo_build.hpp"
#include "runtime/thread_pool.hpp"
#include "sc/kernels/kernels.hpp"
#include "sim/backend.hpp"
#include "sim/batch_evaluator.hpp"
#include "tools/bench_suites.hpp"
#include "train/dataset.hpp"
#include "train/models.hpp"
#include "train/trainer.hpp"

using namespace acoustic;
namespace cli = core::cli;

namespace {

/// The model zoo by command-line name.
constexpr std::pair<std::string_view, nn::NetworkDesc (*)()> kZoo[] = {
    {"lenet5", nn::lenet5}, {"cifar10", nn::cifar10_cnn},
    {"svhn", nn::svhn_cnn}, {"alexnet", nn::alexnet},
    {"vgg16", nn::vgg16},   {"resnet18", nn::resnet18}};

/// The trainable small models by command-line name: `eval --model` trains
/// one, `check` analyzes one. Each is built in the given accumulation mode
/// for a 16x16 input of `channels` channels (1: SynthDigits, 3:
/// SynthObjects), from a fixed Kaiming seed.
struct TrainableModel {
  std::string_view name;
  nn::Network (*build)(nn::AccumMode mode);
  int channels;
};
constexpr TrainableModel kTrainable[] = {
    {"lenet", [](nn::AccumMode m) { return train::build_lenet_small(m); }, 1},
    {"cifar", [](nn::AccumMode m) { return train::build_cifar_small(m); }, 3},
    {"cifar-max",
     [](nn::AccumMode m) { return train::build_cifar_small_maxpool(m); }, 3},
    {"resnet-tiny",
     [](nn::AccumMode m) { return train::build_resnet_tiny(m); }, 3}};

/// A trainable model by name, or nullptr.
const TrainableModel* find_trainable(std::string_view name) {
  for (const TrainableModel& model : kTrainable) {
    if (model.name == name) {
      return &model;
    }
  }
  return nullptr;
}

/// The trainable models' names, joined by @p sep.
std::string trainable_names(std::string_view sep) {
  std::string names;
  for (const TrainableModel& model : kTrainable) {
    names += (names.empty() ? "" : std::string(sep)) + std::string(model.name);
  }
  return names;
}

/// A zoo network by name; the suffix "-conv" keeps its conv layers only.
std::optional<nn::NetworkDesc> find_network(std::string name) {
  const bool conv_only = name.size() > 5 && name.ends_with("-conv");
  if (conv_only) {
    name.resize(name.size() - 5);
  }
  for (const auto& [key, build] : kZoo) {
    if (key == name) {
      return conv_only ? build().conv_only() : build();
    }
  }
  return std::nullopt;
}

/// NETWORK positional of compile/simulate: resolves the zoo descriptor.
cli::Positional network_arg(std::optional<nn::NetworkDesc>& net) {
  return {"NETWORK",
          "lenet5, cifar10, svhn, alexnet, vgg16 or resnet18; the suffix "
          "-conv keeps the conv layers only",
          [&net](const std::string& name) {
            net = find_network(name);
            if (!net) {
              throw cli::UsageError("unknown network '" + name + "'");
            }
          }};
}

/// --arch: a whole preset. Its row precedes every per-field row, so the
/// preset is applied first wherever the flag appears.
cli::Option arch_preset(perf::ArchConfig& arch) {
  return cli::choice("--arch", "architecture preset (default lp)", arch,
                     {{"lp", perf::lp()}, {"ulp", perf::ulp()}});
}

/// --arch and the per-field overrides compile, simulate and breakdown take.
std::vector<cli::Option> arch_options(perf::ArchConfig& arch) {
  std::vector<std::pair<std::string, perf::DramSpec>> drams;
  for (const perf::DramSpec& spec : perf::figure4_interfaces()) {
    std::string name = spec.name;
    for (char& c : name) {
      c = static_cast<char>(std::tolower(c));
    }
    drams.emplace_back(name, spec);
  }
  return {arch_preset(arch),
          cli::number("--batch", "N", "inference batch size (default 1)",
                      arch.batch),
          cli::number("--clock", "MHZ", "clock frequency (default 200)",
                      arch.clock_mhz),
          cli::number("--stream", "N",
                      "split-unipolar stream length (default 256 on lp, 128 "
                      "on ulp)",
                      arch.stream_length),
          cli::choice("--dram",
                      "external memory interface (default ddr3-1866 on lp; "
                      "ulp has no DRAM)",
                      arch.dram, std::move(drams))};
}

int cmd_list(cli::Args args) {
  const cli::OptionTable table{
      "acoustic list",
      "Show the model-zoo workloads with their MAC and weight footprints.",
      {},
      {}};
  return cli::run(table, args, [] {
    core::Table zoo({"network", "layers", "MACs", "weights", "conv MACs",
                     "FC MACs"});
    const auto count = [](std::uint64_t n) {
      return core::format_number(static_cast<double>(n), 4);
    };
    for (const auto& entry : kZoo) {
      const nn::NetworkDesc net = entry.second();
      zoo.add_row({net.name, std::to_string(net.layers.size()),
                   count(net.total_macs()), count(net.total_weights()),
                   count(net.conv_macs()), count(net.fc_macs())});
    }
    std::printf("%s", zoo.to_string().c_str());
    return 0;
  });
}

int cmd_compile(cli::Args args) {
  perf::ArchConfig arch = perf::lp();
  std::optional<nn::NetworkDesc> net;
  const cli::OptionTable table{
      "acoustic compile",
      "Print the ACOUSTIC assembly codegen emits for a zoo network.",
      {network_arg(net)},
      arch_options(arch)};
  return cli::run(table, args, [&] {
    const core::Accelerator accel(arch);
    std::fputs(isa::format(accel.compile(*net)).c_str(), stdout);
    return 0;
  });
}

int cmd_breakdown(cli::Args args) {
  perf::ArchConfig arch = perf::lp();
  const cli::OptionTable table{
      "acoustic breakdown",
      "Print the Fig. 5 area and power breakdowns of the architecture.",
      {},
      arch_options(arch)};
  return cli::run(table, args, [&] {
    const core::Accelerator accel(arch);
    std::printf("%s\n", energy::format_breakdown(
                            energy::area_breakdown(accel.config())).c_str());
    std::printf("%s", energy::format_breakdown(
                          energy::power_breakdown(accel.config())).c_str());
    return 0;
  });
}

/// `acoustic lint`: the ISA static analyzer over an assembly file, a
/// program read from stdin ('-'), or the program codegen emits for a
/// model-zoo network, against the bounds of the selected architecture.
int cmd_lint(cli::Args args) {
  std::string target;
  perf::ArchConfig arch = perf::lp();
  bool werror = false;
  bool json = false;
  const cli::OptionTable table{
      "acoustic lint",
      "Statically analyze an ACOUSTIC assembly program: loop balance, "
      "barrier placement, scratchpad and weight-memory bounds, counter "
      "ordering, dead weight loads. Exits 1 on errors (with --werror, on "
      "any finding) and 2 on a usage error or an unreadable file.",
      {{"PROGRAM",
        "an .acasm file, '-' for stdin, or a zoo network (lints the "
        "program codegen emits for it)",
        [&target](const std::string& value) { target = value; }}},
      {arch_preset(arch),
       cli::flag("--werror", "fail on warnings too", werror),
       cli::flag("--json", "print the diagnostics as shared-format JSON",
                 json)}};
  return cli::run(table, args, [&] {
    isa::Program program;
    if (const std::optional<nn::NetworkDesc> net = find_network(target)) {
      // Codegen hard-errors on its own lint findings (exit 1).
      program = core::Accelerator(arch).compile(*net);
    } else {
      std::ifstream file(target);
      if (target != "-" && !file) {
        throw cli::UsageError("cannot open '" + target +
                              "' (not a file or a known network)");
      }
      std::ostringstream text;
      text << (target == "-" ? std::cin.rdbuf() : file.rdbuf());
      try {
        program = isa::parse(text.str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", target.c_str(), e.what());
        return 1;
      }
    }
    const isa::analysis::Report report =
        isa::analysis::analyze(program, {perf::machine_limits(arch)});
    if (json) {
      // stdout carries exactly the shared JSON report format (the same
      // core::to_json that `acoustic check --json` emits).
      std::printf("%s\n", core::to_json(report).c_str());
    } else {
      for (const auto& diag : report.diagnostics()) {
        std::fprintf(stderr, "%s: %s\n", target.c_str(),
                     isa::analysis::to_string(diag, &program).c_str());
      }
      std::printf("%s: %zu instruction(s), %zu error(s), %zu warning(s)\n",
                  target.c_str(), program.size(), report.error_count(),
                  report.warning_count());
    }
    return (!report.ok() || (werror && !report.clean())) ? 1 : 0;
  });
}

/// `acoustic check`: the network-level SC static analyzer over a zoo
/// descriptor ('zoo' = all of them under one shared config), or a
/// trainable small model (kTrainable) with weight scans and the executed
/// plan-invariant probe.
int cmd_check(cli::Args args) {
  std::string name;
  analysis::CheckOptions options;
  bool werror = false;
  bool json = false;
  const cli::OptionTable table{
      "acoustic check",
      "Network-level SC static analyzer: graph and shape inference, SNG "
      "seed and LFSR period analysis, OR-accumulation saturation bounds "
      "and quantization range rules; the trainable models add weight scans "
      "and an executed plan-invariant probe. Exits 1 on errors (with "
      "--werror, on any warning) and 2 on a usage error.",
      {{"TARGET",
        "a zoo network, 'zoo' for all of them under one config, or a "
        "trainable model: " + trainable_names(", "),
        [&name](const std::string& value) { name = value; }}},
      {cli::choice("--target",
                   "simulator to check for; perf keeps only the structural "
                   "rules the performance simulator needs (default sc)",
                   options.target,
                   {{"sc", analysis::CheckTarget::kScSim},
                    {"perf", analysis::CheckTarget::kPerfSim}}),
       cli::number("--stream", "N", "SC stream length (default 256)",
                   options.sc.stream_length),
       cli::number("--width", "N", "SNG LFSR width in bits (default 8)",
                   options.sc.sng_width),
       cli::number("--threshold", "X",
                   "OR line level that fires or-saturation (default 0.95)",
                   options.saturation_threshold),
       cli::flag("--no-probe", "skip the probe forward of trainable models",
                 options.probe, false),
       cli::flag("--werror", "fail on warnings too", werror),
       cli::flag("--json", "print the diagnostics as shared-format JSON",
                 json)}};
  return cli::run(table, args, [&] {
    core::Report report;
    if (name == "zoo") {
      // One config, many models: emit the config findings once up front.
      if (options.target == analysis::CheckTarget::kScSim) {
        report.merge(analysis::check_config(options.sc));
      }
      analysis::CheckOptions per_model = options;
      per_model.include_config = false;
      for (const nn::NetworkDesc& net : nn::table3_workloads()) {
        report.merge(analysis::check_descriptor(net, per_model));
      }
    } else if (const std::optional<nn::NetworkDesc> net = find_network(name)) {
      report = analysis::check_descriptor(*net, options);
    } else if (const TrainableModel* model = find_trainable(name)) {
      // Built in the OR-approximate training mode the SC backends evaluate.
      nn::Network net = model->build(nn::AccumMode::kOrApprox);
      report = analysis::check_network(
          net, name, nn::Shape{16, 16, model->channels}, options);
    } else {
      throw cli::UsageError("unknown target '" + name +
                            "' (expected a zoo network, 'zoo', or " +
                            trainable_names("/") + ")");
    }
    if (json) {
      std::printf("%s\n", core::to_json(report).c_str());
    } else {
      for (const core::Diagnostic& diag : report.diagnostics()) {
        std::fprintf(stderr, "%s\n", diag.to_string().c_str());
      }
      std::printf("%s: %zu error(s), %zu warning(s), %zu note(s)\n",
                  name.c_str(), report.error_count(), report.warning_count(),
                  report.note_count());
    }
    return report.fails(werror) ? 1 : 0;
  });
}

/// Warn-level preflight shared by `acoustic eval` and `acoustic simulate`:
/// prints every finding on stderr but never blocks the run — the point is
/// to explain a bad result before it happens, not to refuse to produce it.
void print_preflight(const core::Report& report, const char* who) {
  for (const core::Diagnostic& diag : report.diagnostics()) {
    std::fprintf(stderr, "%s preflight: %s\n", who, diag.to_string().c_str());
  }
  if (!report.ok()) {
    std::fprintf(stderr,
                 "%s preflight: %zu error(s) — the run below is expected "
                 "to fail or produce meaningless results (rerun `acoustic "
                 "check` for details, or pass --no-preflight to silence "
                 "this)\n", who, report.error_count());
  }
}

struct EvalOptions {
  std::string backend = "sc";
  std::string model = "lenet";
  unsigned threads = 0;  // 0 = hardware concurrency
  sim::ScConfig sc{.stream_length = 128};
  int side = 16;  // input side for zoo-descriptor models (0 = native)
  std::size_t train_count = 300;
  std::size_t test_count = 120;
  int epochs = 3;
  bool json = false;
  bool metrics = false;     ///< run-counter table in the text output
  bool profile = false;     ///< per-layer wall-time/counter table
  bool prometheus = false;  ///< registry in Prometheus text format
  bool verbose = false;     ///< training log + eval progress on stderr
  bool preflight = true;    ///< warn-level `acoustic check` before eval
  std::string trace_json;   ///< Chrome trace-event output path ("" = off)
};

/// Writes a Chrome trace to @p path and reports it on stdout, or on stderr
/// when stdout carries a machine-readable document; warns when @p dropped
/// records of @p unit fell past the recording cap.
void write_trace(const obs::ChromeTraceWriter& writer, const std::string& path,
                 bool quiet, std::uint64_t dropped, const char* unit) {
  core::write_text_file(path, writer.to_string());
  std::fprintf(quiet ? stderr : stdout, "trace: wrote %zu event(s) to %s\n",
               writer.event_count(), path.c_str());
  if (dropped > 0) {
    std::fprintf(stderr,
                 "warning: trace truncated — %llu %s dropped after the "
                 "recording cap\n",
                 static_cast<unsigned long long>(dropped), unit);
  }
}

/// Appends each counter of @p row as a `, "key": value` JSON member.
void append_counters(std::string& doc, const obs::ProfileRow& row) {
  for (const auto& [key, value] : row.counters) {
    doc += ", ";
    doc += obs::json_quote(key);
    doc += ": ";
    doc += obs::json_number(value);
  }
}

/// One line of scheduler telemetry after @p label.
void print_scheduler(std::FILE* out, const char* label,
                     const sim::SchedulerStats& sched) {
  std::fprintf(out,
               "%s%llu task(s), %llu stolen, occupancy %.2f (%u/%u workers "
               "busy at peak)\n",
               label, static_cast<unsigned long long>(sched.tasks),
               static_cast<unsigned long long>(sched.steals),
               sched.occupancy(), sched.busy_peak, sched.workers);
}

/// Counters + gauges of @p registry as an aligned two-column table.
core::Table metrics_table(const obs::Registry& registry) {
  core::Table table({"metric", "value"});
  for (const auto& [name, value] : registry.counters()) {
    table.add_row({name, std::to_string(value)});
  }
  for (const auto& [name, value] : registry.gauges()) {
    table.add_row({name, core::format_number(value, 6)});
  }
  return table;
}

/// `acoustic eval`: train a small synthetic-dataset network, then run it
/// through the unified backend layer on the parallel batch evaluator.
int run_eval(const EvalOptions& opt) {
  // Bipolar-MUX computes a plain scaled sum, so its native training mode
  // is kSum (with the gentler schedule the unbounded logits need); every
  // other backend runs the OR-approximate-trained network the paper's
  // training enhancement produces.
  const bool bipolar = opt.backend == "bipolar";
  const nn::AccumMode mode =
      bipolar ? nn::AccumMode::kSum : nn::AccumMode::kOrApprox;

  train::Dataset tr;
  train::Dataset te;
  bool zoo = false;  // zoo-descriptor model: untrained, evaluated as-built
  nn::Shape input_shape{16, 16, 1};
  nn::Network net = [&] {
    if (const TrainableModel* model = find_trainable(opt.model)) {
      // One-channel models learn SynthDigits, three-channel SynthObjects.
      const bool digits = model->channels == 1;
      tr = digits ? train::make_synth_digits(opt.train_count, 42, 16)
                  : train::make_synth_objects(opt.train_count, 11, 16);
      te = digits ? train::make_synth_digits(opt.test_count, 999, 16)
                  : train::make_synth_objects(opt.test_count, 777, 16);
      input_shape = nn::Shape{16, 16, model->channels};
      return model->build(mode);
    }
    if (const std::optional<nn::NetworkDesc> desc = find_network(opt.model)) {
      // Full zoo workload built from its shape descriptor at a reduced
      // input side (Kaiming-initialized, untrained): what `eval` verifies
      // here is the end-to-end executor — bit determinism across threads
      // and exec modes — not a trained accuracy figure.
      zoo = true;
      nn::ZooBuildOptions zopt;
      zopt.side = opt.side;
      zopt.mode = bipolar ? nn::AccumMode::kSum : nn::AccumMode::kOrExact;
      input_shape = nn::zoo_input_shape(*desc, zopt);
      te = input_shape.c == 1
               ? train::make_synth_digits(opt.test_count, 999, input_shape.h)
               : train::make_synth_objects(opt.test_count, 999,
                                           input_shape.h);
      return nn::build_from_descriptor(*desc, zopt);
    }
    throw cli::UsageError("unknown model '" + opt.model + "' (expected " +
                          trainable_names(", ") +
                          ", or a zoo network: lenet5/cifar10/svhn/alexnet/"
                          "vgg16/resnet18)");
  }();

  if (zoo) {
    if (!opt.json && !opt.prometheus) {
      std::printf("built %s from the zoo descriptor at %dx%dx%d "
                  "(untrained, %zu layers)...\n", opt.model.c_str(),
                  input_shape.h, input_shape.w, input_shape.c,
                  net.layer_count());
    }
  } else {
    train::TrainConfig cfg;
    cfg.epochs = opt.epochs;
    cfg.verbose = opt.verbose;
    if (bipolar) {
      cfg.learning_rate = 0.01f;
      cfg.lr_decay = 0.95f;
    }
    if (!opt.json && !opt.prometheus) {
      std::printf("training %s (%s mode, %d epochs, %zu samples)...\n",
                  opt.model.c_str(), bipolar ? "sum" : "or-approx",
                  cfg.epochs, tr.size());
    }
    (void)train::fit(net, tr, cfg);
  }

  // Warn-level preflight of the trained network under the exact SC config
  // the backend will run: saturation, quantization and stream-geometry
  // findings explain a bad accuracy figure before it is measured. Only the
  // SC backends have stream semantics to check.
  if (opt.preflight && (opt.backend == "sc" || opt.backend == "sc-mux")) {
    analysis::CheckOptions check_opt;
    check_opt.sc = opt.sc;
    if (opt.backend == "sc-mux") {
      check_opt.sc.pooling = sim::PoolingMode::kMux;
    }
    // The probe runs its own ScNetwork forward; the evaluator below does
    // the real one, so skip the duplicate work and keep eval fast.
    check_opt.probe = false;
    print_preflight(
        analysis::check_network(net, opt.model, input_shape, check_opt),
        "eval");
  }

  sim::BipolarConfig bipolar_cfg;
  bipolar_cfg.stream_length = opt.sc.stream_length;
  const std::unique_ptr<sim::InferenceBackend> backend =
      sim::make_backend(opt.backend, net, opt.sc, bipolar_cfg);

  // Observability attachments: spans feed both --profile and --trace-json,
  // the registry feeds --json, --metrics and --prometheus. The hardware counter
  // group must be constructed *before* the BatchEvaluator: with
  // Options::inherit the kernel only follows threads created after the
  // event fds open, and the evaluator spawns its pool at construction.
  const bool want_profiler = opt.profile || !opt.trace_json.empty();
  const bool want_metrics = opt.metrics || opt.json || opt.prometheus;
  std::optional<obs::PerfCounterGroup> hw;
  if (want_profiler || want_metrics) {
    obs::PerfCounterGroup::Options perf_opt;
    perf_opt.inherit = true;
    hw.emplace(perf_opt);
  }

  sim::BatchEvaluator evaluator(opt.threads);

  obs::Profiler profiler;
  sim::EvalHooks hooks;
  if (want_profiler) {
    hooks.profiler = &profiler;
    hooks.counters = hw ? &*hw : nullptr;
  }
  const auto eval_start = std::chrono::steady_clock::now();
  if (opt.verbose) {
    hooks.progress = [&eval_start](std::size_t done, std::size_t total) {
      // Milestone-throttled: each done value is claimed by exactly one
      // worker, so at most one thread prints a given milestone.
      const std::size_t step = std::max<std::size_t>(1, total / 20);
      if (done % step != 0 && done != total) {
        return;
      }
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        eval_start)
              .count();
      const double rate = elapsed > 0.0
                              ? static_cast<double>(done) / elapsed
                              : 0.0;
      const double eta =
          rate > 0.0 ? static_cast<double>(total - done) / rate : 0.0;
      std::fprintf(stderr, "\reval: %zu/%zu images  %.1f img/s  ETA %.1fs ",
                   done, total, rate, eta);
    };
  }

  if (hw) {
    hw->start();
  }
  const sim::EvalResult result = evaluator.evaluate(*backend, te, hooks);
  obs::PerfSample hw_total;
  if (hw) {
    hw_total = hw->stop();
  }
  if (opt.verbose) {
    std::fprintf(stderr, "\n");
    // Scheduler telemetry (nondeterministic, so stderr/verbose only —
    // like the progress line above).
    print_scheduler(stderr, "scheduler: ", result.sched);
  }

  // Aggregate the spans once; every export below reuses them. The dropped
  // count must be read before take() (take() resets it for the next
  // recording).
  std::uint64_t dropped_spans = 0;
  std::vector<obs::SpanRecord> spans;
  std::vector<obs::ProfileRow> rows;
  std::vector<obs::ProfileRow> phase_rows;
  if (want_profiler) {
    dropped_spans = profiler.dropped();
    spans = profiler.take();
    rows = obs::aggregate_profile(spans, "layer");
    phase_rows = obs::aggregate_profile(spans, "phase");
  }
  if (opt.verbose && want_profiler) {
    std::fprintf(stderr, "trace: %zu span(s) recorded, %llu dropped\n",
                 spans.size(),
                 static_cast<unsigned long long>(dropped_spans));
  }

  obs::Registry registry;
  if (want_metrics) {
    sim::export_metrics(result, registry);
    // With the profiler on, fold the per-layer counter sums in too — sums
    // over all samples, so still deterministic across thread counts.
    for (const obs::ProfileRow& row : rows) {
      const std::string prefix = "layer." + row.name;
      registry.add(prefix + ".calls", row.calls);
      for (const auto& [key, value] : row.counters) {
        registry.add(prefix + "." + key, value);
      }
    }
  }

  if (!opt.trace_json.empty()) {
    obs::ChromeTraceWriter writer;
    writer.set_process_name(0, "acoustic eval (" + result.backend + ")");
    std::set<std::uint32_t> tracks;
    for (const obs::SpanRecord& span : spans) {
      tracks.insert(span.track);
    }
    for (const std::uint32_t track : tracks) {
      writer.set_thread_name(0, static_cast<int>(track),
                             "worker " + std::to_string(track));
    }
    writer.add_spans(0, spans);
    writer.set_metadata("backend", obs::json_quote(result.backend));
    writer.set_metadata("model", obs::json_quote(opt.model));
    writer.set_metadata("samples", obs::json_number(
                            static_cast<std::uint64_t>(result.samples)));
    writer.set_metadata("threads", obs::json_number(
                            static_cast<std::uint64_t>(result.threads)));
    writer.set_metadata("dropped_events", obs::json_number(dropped_spans));
    write_trace(writer, opt.trace_json, opt.json || opt.prometheus,
                dropped_spans, "span(s)");
  }

  if (opt.prometheus) {
    // Prometheus is a point-in-time scrape, so the nondeterministic hw.*
    // and scheduler readings belong here (unlike the JSON "metrics"
    // section, which is documented byte-identical across thread counts).
    if (hw) {
      obs::export_metrics(hw_total, registry, "hw");
    }
    sim::export_scheduler_metrics(result, registry);
    std::fputs(registry.to_prometheus().c_str(), stdout);
    return 0;
  }

  if (opt.json) {
    // The eval document. Everything outside "timing" is byte-identical for
    // any --threads value (see BatchEvaluator's determinism contract); all
    // wall-clock and scheduling data lives under "timing".
    std::string doc = "{\n  \"command\": \"eval\",\n  \"backend\": ";
    doc += obs::json_quote(result.backend);
    doc += ",\n  \"model\": ";
    doc += obs::json_quote(opt.model);
    doc += ",\n  \"stream_length\": ";
    doc += obs::json_number(
        static_cast<std::uint64_t>(opt.sc.stream_length));
    doc += ",\n  \"samples\": ";
    doc += obs::json_number(static_cast<std::uint64_t>(result.samples));
    doc += ",\n  \"metrics\": ";
    doc += registry.to_json(2);
    doc += ",\n";
    if (opt.profile) {
      doc += "  \"profile\": [";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const obs::ProfileRow& row = rows[i];
        doc += i == 0 ? "\n" : ",\n";
        doc += "    {\"layer\": ";
        doc += obs::json_quote(row.name);
        doc += ", \"kind\": ";
        doc += obs::json_quote(row.kind);
        doc += ", \"calls\": ";
        doc += obs::json_number(row.calls);
        doc += ", \"wall_ms\": ";
        doc += obs::json_number(row.wall_ms);
        append_counters(doc, row);
        doc += "}";
      }
      doc += rows.empty() ? "],\n" : "\n  ],\n";
    }
    if (want_profiler) {
      // Span accounting: dropped > 0 means every span-derived view above
      // (profile, trace file) is truncated.
      doc += "  \"trace\": {\"spans\": ";
      doc += obs::json_number(static_cast<std::uint64_t>(spans.size()));
      doc += ", \"dropped\": ";
      doc += obs::json_number(dropped_spans);
      doc += "},\n";
    }
    doc += "  \"timing\": {\n    \"threads\": ";
    doc += obs::json_number(static_cast<std::uint64_t>(result.threads));
    doc += ",\n    \"wall_seconds\": ";
    doc += obs::json_number(result.wall_seconds);
    doc += ",\n    \"throughput_sps\": ";
    doc += obs::json_number(result.throughput_sps);
    doc += ",\n    \"latency_us\": {\"mean\": ";
    doc += obs::json_number(result.latency.mean_us);
    doc += ", \"p50\": ";
    doc += obs::json_number(result.latency.p50_us);
    doc += ", \"p90\": ";
    doc += obs::json_number(result.latency.p90_us);
    doc += ", \"p99\": ";
    doc += obs::json_number(result.latency.p99_us);
    doc += ", \"max\": ";
    doc += obs::json_number(result.latency.max_us);
    doc += "},\n    \"scheduler\": {\"workers\": ";
    // Scheduler telemetry is scheduling-dependent (steal counts vary run
    // to run), which is exactly why it lives under "timing" and not in
    // the byte-identical "metrics" section.
    doc += obs::json_number(static_cast<std::uint64_t>(result.sched.workers));
    doc += ", \"tasks\": ";
    doc += obs::json_number(result.sched.tasks);
    doc += ", \"steals\": ";
    doc += obs::json_number(result.sched.steals);
    doc += ", \"busy_peak\": ";
    doc += obs::json_number(
        static_cast<std::uint64_t>(result.sched.busy_peak));
    doc += ", \"occupancy\": ";
    doc += obs::json_number(result.sched.occupancy());
    doc += "}";
    if (!phase_rows.empty()) {
      // Evaluator phases (setup/run/reduce), with hardware counter deltas
      // where the host provides them.
      doc += ",\n    \"phases\": [";
      for (std::size_t i = 0; i < phase_rows.size(); ++i) {
        const obs::ProfileRow& row = phase_rows[i];
        doc += i == 0 ? "\n" : ",\n";
        doc += "      {\"phase\": ";
        doc += obs::json_quote(row.name);
        doc += ", \"wall_ms\": ";
        doc += obs::json_number(row.wall_ms);
        append_counters(doc, row);
        doc += "}";
      }
      doc += "\n    ]";
    }
    if (hw) {
      // Whole-run hardware counters (inherit-scoped: all pool workers).
      doc += ",\n    \"hw\": {\"wall_ns\": ";
      doc += obs::json_number(hw_total.wall_ns);
      for (unsigned i = 0; i < obs::kPerfEventCount; ++i) {
        const auto event = static_cast<obs::PerfEvent>(i);
        if (!hw_total.has(event)) {
          continue;
        }
        doc += ", ";
        doc += obs::json_quote(obs::perf_event_name(event));
        doc += ": ";
        doc += obs::json_number(hw_total[event]);
      }
      const double ipc = hw_total.ipc();
      if (ipc == ipc) {
        doc += ", \"ipc\": ";
        doc += obs::json_number(ipc);
      }
      doc += "}";
    }
    doc += "\n  }\n}\n";
    std::fputs(doc.c_str(), stdout);
    return 0;
  }
  std::printf("\n%s backend on %zu test samples (%u thread%s):\n",
              result.backend.c_str(), result.samples, result.threads,
              result.threads == 1 ? "" : "s");
  std::printf("  accuracy:    %.2f%% (%zu/%zu)\n",
              100.0 * result.accuracy, result.correct, result.samples);
  std::printf("  throughput:  %.4g samples/s (%.4g s wall)\n",
              result.throughput_sps, result.wall_seconds);
  std::printf("  latency/us:  mean %.4g  p50 %.4g  p90 %.4g  p99 %.4g  "
              "max %.4g\n", result.latency.mean_us, result.latency.p50_us,
              result.latency.p90_us, result.latency.p99_us,
              result.latency.max_us);
  std::printf("  work:        %llu weighted layers",
              static_cast<unsigned long long>(result.stats.layers_run));
  if (result.stats.product_bits > 0 ||
      result.stats.skipped_operands > 0) {
    std::printf(", %llu product bits, %llu operands skipped",
                static_cast<unsigned long long>(result.stats.product_bits),
                static_cast<unsigned long long>(
                    result.stats.skipped_operands));
  }
  std::printf("\n");
  if (result.stats.stream_bits_generated > 0 ||
      result.stats.stream_bits_reused > 0) {
    std::printf("  streams:     %llu bits generated, %llu reused "
                "(%llu plan hits, %llu misses)\n",
                static_cast<unsigned long long>(
                    result.stats.stream_bits_generated),
                static_cast<unsigned long long>(
                    result.stats.stream_bits_reused),
                static_cast<unsigned long long>(result.stats.plan_hits),
                static_cast<unsigned long long>(result.stats.plan_misses));
  }
  if (result.stats.scratch_bytes > 0) {
    std::printf("  scratch:     %llu bytes steady-state per forward\n",
                static_cast<unsigned long long>(result.stats.scratch_bytes));
  }
  print_scheduler(stdout, "  scheduler:   ", result.sched);

  if (opt.profile) {
    double layer_total_ms = 0.0;
    for (const obs::ProfileRow& row : rows) {
      layer_total_ms += row.wall_ms;
    }
    core::Table table({"layer", "kind", "calls", "wall [ms]",
                       "product bits", "skipped", "% of layers"});
    for (const obs::ProfileRow& row : rows) {
      const double share =
          layer_total_ms > 0.0 ? 100.0 * row.wall_ms / layer_total_ms : 0.0;
      table.add_row({row.name, row.kind, std::to_string(row.calls),
                     core::format_number(row.wall_ms, 4),
                     std::to_string(row.counter("product_bits")),
                     std::to_string(row.counter("skipped_operands")),
                     core::format_number(share, 3) + "%"});
    }
    std::printf("\nper-layer profile (summed across all workers):\n%s",
                table.to_string().c_str());
    // Compare against total compute time — the sum of per-sample forward
    // latencies, i.e. wall time normalized for the worker count.
    const double compute_ms =
        result.latency.mean_us * static_cast<double>(result.samples) / 1e3;
    if (compute_ms > 0.0) {
      std::printf("  layers cover %.4g ms of %.4g ms total compute "
                  "(%.1f%%)\n", layer_total_ms, compute_ms,
                  100.0 * layer_total_ms / compute_ms);
    }
    if (!phase_rows.empty()) {
      core::Table phases({"phase", "wall [ms]", "counters"});
      for (const obs::ProfileRow& row : phase_rows) {
        std::string counters;
        for (const auto& [key, value] : row.counters) {
          if (!counters.empty()) {
            counters += "  ";
          }
          counters += key + "=" + std::to_string(value);
        }
        phases.add_row({row.name, core::format_number(row.wall_ms, 4),
                        counters.empty() ? "-" : counters});
      }
      std::printf("\nevaluator phases:\n%s", phases.to_string().c_str());
    }
    if (dropped_spans > 0) {
      std::printf("  warning: %llu span(s) dropped after the recording "
                  "cap — profile and trace views are truncated\n",
                  static_cast<unsigned long long>(dropped_spans));
    }
  }

  if (opt.metrics) {
    // hw.* and scheduler readings join the human table (nondeterministic,
    // so they stay out of the machine-readable "metrics" JSON section
    // above).
    if (hw) {
      obs::export_metrics(hw_total, registry, "hw");
    }
    sim::export_scheduler_metrics(result, registry);
    std::printf("\nmetrics:\n%s", metrics_table(registry).to_string().c_str());
  }
  return 0;
}

int cmd_eval(cli::Args args) {
  EvalOptions opt;
  const cli::OptionTable table{
      "acoustic eval",
      "Train a small network on a synthetic dataset and evaluate it with "
      "the selected inference backend on the parallel batch evaluator; "
      "results are bit-identical for any thread count. A zoo network given "
      "to --model is built untrained from its shape descriptor at --side "
      "and run end to end through the graph executor.",
      {},
      {cli::choice("--backend", "inference backend (default sc)",
                   opt.backend, sim::kBackendNames),
       cli::text("--model", "NAME",
                 "a trainable model (" + trainable_names(", ") +
                     "; default lenet) or a zoo network",
                 opt.model),
       cli::number("--threads", "N",
                   "evaluator threads (default 0 = all hardware threads)",
                   opt.threads, 0u, runtime::ThreadPool::kMaxThreads),
       cli::number("--intra-threads", "N",
                   "SC row sharding on the evaluator threads: 0 = auto "
                   "(default), 1 = serial, 2 or more = every layer",
                   opt.sc.intra_threads, 0u,
                   runtime::ThreadPool::kMaxThreads),
       cli::choice("--exec", "SC execution path, same bits (default planned)",
                   opt.sc.exec,
                   {{"planned", sim::ExecMode::kPlanned},
                    {"scalar", sim::ExecMode::kScalar}}),
       cli::choice("--pool-mode",
                   "MaxPool2D: exact max (default) or sc, the stochastic "
                   "max FSM",
                   opt.sc.max_pool,
                   {{"exact", sim::MaxPoolMode::kExact},
                    {"sc", sim::MaxPoolMode::kStochastic}}),
       cli::number("--side", "N",
                   "input side of zoo models, 0 = native (default 16)",
                   opt.side, 0),
       cli::number("--stream", "N", "stream length (default 128)",
                   opt.sc.stream_length),
       cli::number("--train", "N", "training samples, at least 1 (default 300)",
                   opt.train_count, std::size_t{1}),
       cli::number("--test", "N", "test samples, at least 1 (default 120)",
                   opt.test_count, std::size_t{1}),
       cli::number("--epochs", "N", "training epochs (default 3)",
                   opt.epochs, 0),
       cli::flag("--json",
                 "print one JSON document: the run counters under "
                 "\"metrics\", identical for any thread count except that "
                 "the sc.scratch_bytes gauge grows with --threads when "
                 "layers shard, and wall-clock data under \"timing\"",
                 opt.json),
       cli::flag("--metrics",
                 "add the run counters as a text table (--json always "
                 "carries them)",
                 opt.metrics),
       cli::flag("--profile", "add the per-layer and per-phase timing tables",
                 opt.profile),
       cli::flag("--prometheus", "print the metrics in Prometheus format",
                 opt.prometheus),
       cli::text("--trace-json", "FILE",
                 "write the per-worker spans as Chrome trace-event JSON",
                 opt.trace_json),
       cli::flag("--verbose", "progress and span accounting on stderr",
                 opt.verbose),
       cli::flag("--no-preflight", "skip the warn-level `acoustic check`",
                 opt.preflight, false)}};
  return cli::run(table, args, [&] { return run_eval(opt); });
}

struct BenchCliOptions {
  std::vector<std::string> suites;  ///< empty = every registered suite
  obs::BenchOptions bench = obs::BenchOptions::from_env();
  tools::BenchSuiteOptions suite;
  obs::CompareOptions compare;
  std::string json_path;
  std::string compare_path;
  bool strict = false;  ///< gate even on a foreign-machine baseline
  bool list = false;
};

/// `acoustic bench`: run the registered suites under the shared harness
/// into one bench.v1 document; optionally persist it (--json) and gate
/// against a previous one (--compare).
int run_bench(const BenchCliOptions& opt) {
  if (opt.list) {
    core::Table table({"suite", "description"});
    for (const tools::BenchSuite& suite : tools::bench_suites()) {
      table.add_row({suite.name, suite.description});
    }
    std::printf("%s", table.to_string().c_str());
    return 0;
  }

  std::vector<const tools::BenchSuite*> selected;
  for (const std::string& name : opt.suites) {
    selected.push_back(tools::find_bench_suite(name));
    if (selected.back() == nullptr) {
      throw cli::UsageError("--suite: unknown suite '" + name +
                            "' (see `acoustic bench --list`)");
    }
  }
  if (selected.empty()) {
    for (const tools::BenchSuite& suite : tools::bench_suites()) {
      selected.push_back(&suite);
    }
  }

  obs::Bench bench("acoustic-bench", opt.bench);
  bench.meta().simd =
      sc::kernels::level_name(sc::kernels::active_level());

  for (const tools::BenchSuite* suite : selected) {
    std::fprintf(stderr, "bench: suite %s (%d warmup + %d iters)...\n",
                 suite->name, opt.bench.warmup, opt.bench.iters);
    suite->run(bench, opt.suite);
  }

  const obs::BenchDocument& doc = bench.document();
  const obs::BenchMeta& meta = doc.meta;
  std::printf("bench: %s | %s | simd %s | %s build | counters:",
              meta.host.c_str(),
              meta.cpu.empty() ? "unknown cpu" : meta.cpu.c_str(),
              meta.simd.c_str(), meta.build.c_str());
  if (meta.counters.empty()) {
    std::printf(" none (degraded host)");
  } else {
    for (const std::string& name : meta.counters) {
      std::printf(" %s", name.c_str());
    }
  }
  std::printf("\n\n");

  core::Table table({"entry", "unit", "median", "mad", "min", "p95", "ipc"});
  for (const obs::BenchEntry& entry : doc.entries) {
    std::string ipc = "-";
    for (const auto& [key, value] : entry.counters) {
      if (key == "ipc") {
        ipc = core::format_number(value, 4);
      }
    }
    table.add_row({entry.name, entry.unit,
                   core::format_number(entry.stats.median, 5),
                   core::format_number(entry.stats.mad, 4),
                   core::format_number(entry.stats.min, 5),
                   core::format_number(entry.stats.p95, 5), ipc});
  }
  std::printf("%s", table.to_string().c_str());

  if (!opt.json_path.empty()) {
    core::write_text_file(opt.json_path, obs::to_json(doc));
    std::printf("\nwrote %s\n", opt.json_path.c_str());
  }

  if (opt.compare_path.empty()) {
    return 0;
  }

  std::ifstream in(opt.compare_path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read baseline '" + opt.compare_path +
                             "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const obs::CompareResult cmp = obs::compare(
      doc, obs::parse_bench_json(buffer.str()), opt.compare);

  core::Table verdicts({"entry", "verdict", "baseline", "current", "ratio",
                        "threshold"});
  for (const obs::CompareEntry& entry : cmp.entries) {
    verdicts.add_row({entry.name, obs::verdict_name(entry.verdict),
                      core::format_number(entry.base_median, 5),
                      core::format_number(entry.cur_median, 5),
                      entry.ratio > 0.0 ? core::format_number(entry.ratio, 4)
                                        : std::string("-"),
                      core::format_number(entry.threshold, 4)});
  }
  std::printf("\ncompare vs %s:\n%s", opt.compare_path.c_str(),
              verdicts.to_string().c_str());
  std::printf("summary: %zu improved, %zu unchanged, %zu regressed\n",
              cmp.improved, cmp.unchanged, cmp.regressed);
  if (!cmp.host_match) {
    std::fprintf(stderr,
                 "bench: baseline was recorded on different hardware or a "
                 "different build — verdicts are informational%s\n",
                 opt.strict ? " (gating anyway: --strict)" : "; pass "
                 "--strict to gate on them regardless");
  }
  if (cmp.should_fail(opt.strict)) {
    std::fprintf(stderr, "bench: FAIL — %zu entr%s regressed beyond the "
                 "noise threshold\n", cmp.regressed,
                 cmp.regressed == 1 ? "y" : "ies");
    return 1;
  }
  return 0;
}


int cmd_bench(cli::Args args) {
  BenchCliOptions opt;
  const cli::OptionTable table{
      "acoustic bench",
      "Run the registered benchmark suites under the shared harness "
      "(warmup, repetitions, median/MAD statistics, hardware counters where "
      "the host allows them) into one bench.v1 document. --compare gates "
      "on a previous document with MAD-based noise thresholds and exits 1 "
      "on a regression; a baseline from other hardware gates only under "
      "--strict. ACOUSTIC_BENCH_SLOWDOWN=<factor> stretches every timed "
      "iteration to prove the gate trips.",
      {},
      {cli::list("--suite", "NAME", "run this suite (repeatable; default all)",
                 opt.suites),
       {"--quick", "",
        "smaller problems, 1 warmup and 5 timed iterations (--iters and "
        "--warmup still apply)",
        [&opt](const std::string&) {
          opt.suite.quick = true;
          opt.bench.iters = 5;
          opt.bench.warmup = 1;
        }},
       cli::number("--iters", "N", "timed iterations per entry (default 10)",
                   opt.bench.iters),
       cli::number("--warmup", "N", "warmup iterations per entry (default 2)",
                   opt.bench.warmup),
       cli::flag("--no-counters", "do not sample hardware counters",
                 opt.bench.counters, false),
       cli::number("--stream", "N", "SC stream length (default 128)",
                   opt.suite.stream),
       cli::number("--threads-max", "N",
                   "thread sweep ceiling (default 0 = hardware threads)",
                   opt.suite.threads_max, 0u,
                   runtime::ThreadPool::kMaxThreads),
       cli::text("--json", "FILE", "write the bench.v1 document",
                 opt.json_path),
       cli::text("--compare", "BASELINE", "compare against a bench.v1 document",
                 opt.compare_path),
       cli::number("--noise", "F", "regression threshold in MADs (default 4)",
                   opt.compare.noise_mult),
       cli::number("--tolerance", "F",
                   "regression floor, a fraction of the median (default 0.1)",
                   opt.compare.rel_floor),
       cli::flag("--strict", "gate on a baseline from other hardware too",
                 opt.strict),
       cli::flag("--list", "list the suites and exit", opt.list)}};
  return cli::run(table, args, [&] { return run_bench(opt); });
}

int cmd_simulate(cli::Args args) {
  perf::ArchConfig arch = perf::lp();
  std::optional<nn::NetworkDesc> net;
  bool trace = false;
  bool layers = false;
  bool metrics = false;
  bool json_out = false;
  bool prometheus = false;
  bool preflight = true;
  std::string trace_json;
  std::vector<cli::Option> options = arch_options(arch);
  options.insert(
      options.end(),
      {cli::flag("--trace", "add the per-unit Gantt chart", trace),
       cli::flag("--layers", "add the per-layer bottleneck table", layers),
       cli::flag("--metrics", "add the cycle, unit, DRAM and energy counters",
                 metrics),
       cli::flag("--json", "print one JSON document", json_out),
       cli::flag("--prometheus", "print the metrics in Prometheus format",
                 prometheus),
       cli::text("--trace-json", "FILE",
                 "write the per-unit instruction trace as Chrome JSON",
                 trace_json),
       cli::flag("--no-preflight", "skip the structural preflight check",
                 preflight, false)});
  const cli::OptionTable table{
      "acoustic simulate",
      "Run the performance and energy simulation of a zoo network: "
      "per-frame latency, throughput, on-chip and DRAM energy. A warn-level "
      "structural `acoustic check` runs first.",
      {network_arg(net)},
      std::move(options)};
  return cli::run(table, args, [&] {
    const core::Accelerator accel(arch);
    // Warn-level structural preflight: the performance model lowers every
    // zoo descriptor, so only the graph/shape/geometry rules apply here.
    if (preflight) {
      analysis::CheckOptions check_opt;
      check_opt.target = analysis::CheckTarget::kPerfSim;
      print_preflight(analysis::check_descriptor(*net, check_opt),
                      "simulate");
    }
    const core::InferenceCost cost = accel.run(*net);

    // One traced run serves both the ASCII gantt and the Chrome export.
    std::optional<perf::TracedResult> traced;
    if (trace || !trace_json.empty()) {
      traced = perf::simulate_traced(accel.compile(*net), arch);
    }

    obs::Registry registry;
    if (metrics || prometheus) {
      perf::export_metrics(cost.perf, registry);
      energy::export_metrics(cost.energy, registry);
      energy::export_metrics(energy::area_breakdown(arch), "area", registry);
      energy::export_metrics(energy::power_breakdown(arch), "power",
                             registry);
      registry.set("perf.latency_s", cost.latency_s);
      registry.set("perf.frames_per_s", cost.frames_per_s);
      registry.set("perf.frames_per_j", cost.frames_per_j);
    }

    if (!trace_json.empty()) {
      obs::ChromeTraceWriter writer;
      perf::to_chrome_trace(*traced, arch, writer);
      writer.set_metadata("network", obs::json_quote(net->name));
      write_trace(writer, trace_json, json_out || prometheus,
                  traced->dropped_events, "event(s)");
    }

    if (prometheus) {
      std::fputs(registry.to_prometheus().c_str(), stdout);
      return 0;
    }

    if (json_out) {
      std::string doc = "{\n  \"command\": \"simulate\",\n  \"network\": ";
      doc += obs::json_quote(net->name);
      doc += ",\n  \"arch\": ";
      doc += obs::json_quote(arch.name);
      doc += ",\n  \"batch\": ";
      doc += obs::json_number(static_cast<std::uint64_t>(
          arch.batch > 0 ? arch.batch : 0));
      doc += ",\n  \"clock_mhz\": ";
      doc += obs::json_number(arch.clock_mhz);
      doc += ",\n  \"stream_length\": ";
      doc += obs::json_number(arch.stream_length);
      doc += ",\n  \"dram\": ";
      doc += arch.has_dram ? obs::json_quote(arch.dram.name)
                           : std::string("null");
      doc += ",\n  \"latency_s\": ";
      doc += obs::json_number(cost.latency_s);
      doc += ",\n  \"frames_per_s\": ";
      doc += obs::json_number(cost.frames_per_s);
      doc += ",\n  \"on_chip_energy_j\": ";
      doc += obs::json_number(cost.on_chip_energy_j);
      doc += ",\n  \"frames_per_j\": ";
      doc += obs::json_number(cost.frames_per_j);
      doc += ",\n  \"dram_energy_j\": ";
      doc += obs::json_number(cost.dram_energy_j);
      if (metrics) {
        doc += ",\n  \"metrics\": ";
        doc += registry.to_json(2);
      }
      doc += "\n}\n";
      std::fputs(doc.c_str(), stdout);
      return 0;
    }

    std::printf("%s on %s (batch %d, %.0f MHz, %llu-bit streams, %s)\n",
                net->name.c_str(), arch.name.c_str(), arch.batch,
                arch.clock_mhz,
                static_cast<unsigned long long>(arch.stream_length),
                arch.has_dram ? arch.dram.name.c_str() : "no DRAM");
    std::printf("  latency/frame: %.6g ms   (%.6g frames/s)\n",
                cost.latency_s * 1e3, cost.frames_per_s);
    std::printf("  energy/frame:  %.6g uJ on-chip (%.6g frames/J), "
                "%.6g uJ DRAM\n", cost.on_chip_energy_j * 1e6,
                cost.frames_per_j, cost.dram_energy_j * 1e6);
    if (metrics) {
      std::printf("\nmetrics:\n%s", metrics_table(registry).to_string()
                                        .c_str());
    }
    if (layers) {
      core::Table table({"layer", "latency [us]", "energy [uJ]",
                         "utilization", "weights"});
      for (const core::LayerCost& layer : accel.run_layers(*net)) {
        table.add_row({layer.label,
                       core::format_number(layer.latency_s * 1e6, 4),
                       core::format_number(layer.on_chip_energy_j * 1e6, 4),
                       core::format_number(100.0 * layer.utilization, 3) +
                           "%",
                       layer.weights_resident ? "resident" : "streamed"});
      }
      std::printf("\n%s", table.to_string().c_str());
    }
    if (trace) {
      std::printf("\n%s\n%s", perf::render_gantt(*traced).c_str(),
                  perf::render_utilization(*traced).c_str());
    }
    return 0;
  });
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  return cli::dispatch(
      "acoustic",
      {{"list", "the model-zoo workloads and their footprints", cmd_list},
       {"compile", "ACOUSTIC assembly of a zoo network", cmd_compile},
       {"simulate", "performance and energy of a zoo network", cmd_simulate},
       {"breakdown", "Fig. 5 area and power breakdowns", cmd_breakdown},
       {"lint", "static analysis of an assembly program", cmd_lint},
       {"check", "network-level SC static analysis", cmd_check},
       {"eval", "train and evaluate on an inference backend", cmd_eval},
       {"bench", "benchmark suites and regression gate", cmd_bench}},
      args);
}
