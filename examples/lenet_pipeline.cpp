// LeNet pipeline: the paper's full accuracy methodology on one network.
//
//   1. generate a synthetic digit dataset,
//   2. train a small LeNet with OR-approximate arithmetic (section II-D),
//   3. evaluate float, 8-bit fixed-point and bit-level stochastic
//      accuracy at several stream lengths (Table II methodology),
//   4. classify one image end-to-end and show the logits.
//
// Build & run:  ./build/examples/lenet_pipeline
#include <cstdio>

#include "core/report.hpp"
#include "nn/serialize.hpp"
#include "sim/backend.hpp"
#include "sim/batch_evaluator.hpp"
#include "train/models.hpp"
#include "train/trainer.hpp"

using namespace acoustic;

int main() {
  std::printf("generating synthetic digits...\n");
  const train::Dataset train_set = train::make_synth_digits(1000, 42, 16);
  const train::Dataset test_set = train::make_synth_digits(250, 4242, 16);

  std::printf("training LeNet-small with OR-approximate arithmetic...\n");
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox, 16);
  train::TrainConfig cfg;
  cfg.epochs = 8;
  cfg.learning_rate = 0.05f;
  cfg.verbose = true;
  (void)train::fit(net, train_set, cfg);

  core::Table table({"evaluation", "accuracy [%]"});
  table.add_row({"float (OR-approx arithmetic)",
                 core::format_number(
                     100.0 * train::evaluate(net, test_set), 4)});
  table.add_row({"8-bit fixed point",
                 core::format_number(
                     100.0 * train::evaluate_quantized(net, test_set, 8),
                     4)});
  sim::BatchEvaluator evaluator;
  for (std::size_t len : {64u, 128u, 256u}) {
    sim::ScConfig sc_cfg;
    sc_cfg.stream_length = len;
    const sim::EvalResult sc =
        evaluator.evaluate(*sim::make_sc_backend(net, sc_cfg), test_set);
    table.add_row({"stochastic, " + std::to_string(len) + "-bit streams",
                   core::format_number(100.0 * sc.accuracy, 4)});
  }
  std::printf("\n%s\n", table.to_string().c_str());

  // Persist the trained model and reload it into a fresh network — the
  // deploy path (weights survive across processes; see nn/serialize.hpp).
  const std::string model_path = "/tmp/acoustic_lenet_small.acst";
  nn::save_parameters(net, model_path);
  nn::Network reloaded =
      train::build_lenet_small(nn::AccumMode::kOrApprox, 16, 1);
  nn::load_parameters(reloaded, model_path);
  std::printf("model saved to %s and reloaded: accuracy %.2f%%\n\n",
              model_path.c_str(),
              100.0 * train::evaluate(reloaded, test_set));

  // Single-image walkthrough.
  const train::Sample& sample = test_set.samples.front();
  sim::ScConfig sc_cfg;
  sc_cfg.stream_length = 256;
  sim::ScNetwork executor(net, sc_cfg);
  const nn::Tensor logits = executor.forward(sample.image);
  std::printf("single image (true label %d) stochastic logits:\n",
              sample.label);
  for (std::size_t c = 0; c < logits.size(); ++c) {
    std::printf("  %zu: %+.4f%s\n", c, static_cast<double>(logits[c]),
                c == logits.argmax() ? "   <-- prediction" : "");
  }
  std::printf("product bits evaluated: %llu (operand-gated)\n",
              static_cast<unsigned long long>(
                  executor.stats().product_bits));
  return 0;
}
