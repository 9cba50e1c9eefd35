// Table II reproduction: accuracy of ACOUSTIC's fully-stochastic inference
// vs an 8-bit fixed-point baseline, as a function of stream length.
//
// Datasets are synthetic stand-ins with the paper's tensor shapes and
// 10-class structure (see DESIGN.md section 3): the arithmetic-induced gap
// between fixed-point and stochastic execution — Table II's signal — does
// not depend on which images are classified.
//
// Per paper methodology (IV-A/IV-B): each network is trained with the
// OR-approximate arithmetic of section II-D (Eq. 1); the "8-bit Fixed Pt"
// column evaluates the *sum-mode* network quantized to 8 bits; the
// ACOUSTIC columns run the bit-level functional simulator at each stream
// length (the paper's convention: "512" means 256x2 split-unipolar).
//
// All stochastic evaluations go through sim::BatchEvaluator, which shards
// the test set across per-thread backend clones — results are bit-identical
// for any thread count. Usage:
//   table2_accuracy [--threads N] [--json PATH]
// --json writes every table cell as a bench.v1 document (the shared
// schema of obs/bench_harness.hpp), e.g. to BENCH_table2.json: one
// higher-is-better "percent" entry per (network, stream length) plus the
// fixed-point baseline cells — so `--compare` tooling can gate accuracy
// trajectories exactly like latency ones. Accuracies are deterministic
// (MAD 0 by construction); comparisons fall back to the relative floor.
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/report.hpp"
#include "obs/bench_harness.hpp"
#include "sim/backend.hpp"
#include "sim/batch_evaluator.hpp"
#include "train/models.hpp"
#include "train/trainer.hpp"

using namespace acoustic;

namespace {

struct Row {
  const char* network;
  const char* slug;  ///< bench.v1 entry-name segment
  const char* dataset;
  nn::Network net;
  train::Dataset test;
  float fixed8 = 0.0f;
};

/// Trains, evaluates and prints Table II on @p threads evaluator threads
/// (0 = hardware concurrency); a non-empty @p json_path also gets the
/// bench.v1 document.
int print_table(unsigned threads, const std::string& json_path) {
  std::printf("=== Table II: accuracy comparisons ===\n\n");
  std::printf("training (synthetic datasets; OR-approximate arithmetic, "
              "section II-D)...\n");

  // OR-approx training is stable at a high rate (saturation bounds the
  // logits); the unbounded sum-mode baseline needs a gentler schedule.
  train::TrainConfig cfg;
  cfg.epochs = 10;
  cfg.learning_rate = 0.05f;
  cfg.lr_decay = 0.9f;
  train::TrainConfig fixed_cfg;
  fixed_cfg.epochs = 20;
  fixed_cfg.learning_rate = 0.01f;
  fixed_cfg.lr_decay = 0.95f;

  std::vector<Row> rows;

  {
    Row r{"LeNet-5 (small)", "lenet5_small", "SynthDigits",
          train::build_lenet_small(nn::AccumMode::kOrApprox, 16),
          train::make_synth_digits(300, 999, 16)};
    const train::Dataset tr = train::make_synth_digits(1200, 42, 16);
    (void)train::fit(r.net, tr, cfg);
    // 8-bit fixed-point baseline: conventionally-trained (sum-mode) twin.
    nn::Network fixed = train::build_lenet_small(nn::AccumMode::kSum, 16);
    (void)train::fit(fixed, tr, fixed_cfg);
    r.fixed8 = train::evaluate_quantized(fixed, r.test, 8);
    rows.push_back(std::move(r));
  }
  {
    Row r{"SVHN CNN (small)", "svhn_small", "SynthObjects-A",
          train::build_cifar_small(nn::AccumMode::kOrApprox, 16, 31),
          train::make_synth_objects(300, 777, 16)};
    const train::Dataset tr = train::make_synth_objects(1200, 11, 16);
    (void)train::fit(r.net, tr, cfg);
    nn::Network fixed = train::build_cifar_small(nn::AccumMode::kSum, 16, 31);
    (void)train::fit(fixed, tr, fixed_cfg);
    r.fixed8 = train::evaluate_quantized(fixed, r.test, 8);
    rows.push_back(std::move(r));
  }
  {
    Row r{"CIFAR-10 CNN (small)", "cifar10_small", "SynthObjects-B",
          train::build_cifar_small(nn::AccumMode::kOrApprox, 16, 57),
          train::make_synth_objects(300, 888, 16)};
    const train::Dataset tr = train::make_synth_objects(1200, 23, 16);
    (void)train::fit(r.net, tr, cfg);
    nn::Network fixed = train::build_cifar_small(nn::AccumMode::kSum, 16, 57);
    (void)train::fit(fixed, tr, fixed_cfg);
    r.fixed8 = train::evaluate_quantized(fixed, r.test, 8);
    rows.push_back(std::move(r));
  }

  {
    // Deep-network row: the residual model runs its skip connections
    // (counter-preload adds) through the same graph executor as the
    // plain stacks — the row pins Table II's trend on a topology with
    // branches, not just linear conv chains.
    Row r{"ResNet (tiny)", "resnet_tiny", "SynthObjects-C",
          train::build_resnet_tiny(nn::AccumMode::kOrApprox, 16, 91),
          train::make_synth_objects(300, 555, 16)};
    const train::Dataset tr = train::make_synth_objects(1200, 37, 16);
    (void)train::fit(r.net, tr, cfg);
    nn::Network fixed = train::build_resnet_tiny(nn::AccumMode::kSum, 16, 91);
    (void)train::fit(fixed, tr, fixed_cfg);
    r.fixed8 = train::evaluate_quantized(fixed, r.test, 8);
    rows.push_back(std::move(r));
  }

  // One evaluator (and thread pool) for every cell of the table.
  sim::BatchEvaluator evaluator(threads);
  std::printf("evaluating on %u thread%s...\n", evaluator.threads(),
              evaluator.threads() == 1 ? "" : "s");

  // Accuracy cells are deterministic, so record() single-observation
  // entries carry them; wall-clock data deliberately stays out of the
  // document (it would differ per machine for no analytic value here).
  obs::Bench bench("table2_accuracy", obs::BenchOptions::from_env());

  core::Table table({"Network", "Dataset", "Stream", "8-bit Fixed Pt [%]",
                     "ACOUSTIC [%]"});
  for (Row& r : rows) {
    bool first = true;
    bench.record(std::string("table2/") + r.slug + "/fixed8/accuracy",
                 100.0 * r.fixed8, "percent", /*lower_is_better=*/false);
    for (std::size_t len : {32u, 64u, 128u, 256u, 512u}) {
      sim::ScConfig sc;
      sc.stream_length = len;
      const auto backend = sim::make_sc_backend(r.net, sc);
      const sim::EvalResult result = evaluator.evaluate(*backend, r.test);
      table.add_row({first ? r.network : "", first ? r.dataset : "",
                     std::to_string(len),
                     first ? core::format_number(100.0 * r.fixed8, 4) : "",
                     core::format_number(100.0 * result.accuracy, 4)});
      bench.record(std::string("table2/") + r.slug + "/stream" +
                       std::to_string(len) + "/accuracy",
                   100.0 * result.accuracy, "percent",
                   /*lower_is_better=*/false);
      first = false;
    }
  }
  std::printf("\n%s", table.to_string().c_str());
  std::printf(
      "\nPaper shape (Table II): stochastic accuracy climbs toward the\n"
      "8-bit fixed-point baseline as streams lengthen; by 512 (256x2) the\n"
      "gap is within a couple of points, exactly as the paper reports for\n"
      "LeNet-5/MNIST (99.3 vs 99.2), SVHN (89.02 vs 90.29) and CIFAR-10\n"
      "(78.04 vs 79.9).\n");

  if (!json_path.empty()) {
    core::write_text_file(json_path, obs::to_json(bench.document()));
    std::printf("\nwrote %zu accuracy entries to %s\n",
                bench.document().entries.size(), json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = 0;
  std::string json_path;
  const core::cli::OptionTable table{
      "table2_accuracy",
      "Table II: accuracy of fully stochastic inference against an 8-bit "
      "fixed-point baseline as a function of stream length.",
      {},
      {core::cli::number("--threads", "N",
                         "evaluator threads (default 0 = all hardware "
                         "threads); results are identical for any count",
                         threads),
       core::cli::text("--json", "PATH",
                       "also write every table cell as a bench.v1 document",
                       json_path)}};
  return core::cli::run(table,
                        std::vector<std::string>(argv + 1, argv + argc),
                        [&] { return print_table(threads, json_path); });
}
