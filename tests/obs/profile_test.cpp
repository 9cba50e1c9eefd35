// Per-layer profiling end to end: span plumbing through the SC backend
// and BatchEvaluator, golden layer names on the small LeNet zoo model,
// and registry-level determinism across thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/span.hpp"
#include "sim/backend.hpp"
#include "sim/batch_evaluator.hpp"
#include "sim/op_graph.hpp"
#include "train/dataset.hpp"
#include "train/models.hpp"

namespace acoustic {
namespace {

constexpr std::size_t kSamples = 10;

sim::EvalResult run_profiled(unsigned threads, obs::Profiler* profiler,
                             obs::Registry* registry) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox, 16);
  const train::Dataset data = train::make_synth_digits(kSamples, 999, 16);
  sim::ScConfig sc_cfg;
  sc_cfg.stream_length = 32;
  const std::unique_ptr<sim::InferenceBackend> backend =
      sim::make_backend("sc", net, sc_cfg, sim::BipolarConfig{});

  sim::BatchEvaluator evaluator(threads);
  sim::EvalHooks hooks;
  hooks.profiler = profiler;
  const sim::EvalResult result = evaluator.evaluate(*backend, data, hooks);
  if (registry != nullptr) {
    sim::export_metrics(result, *registry);
  }
  return result;
}

TEST(Profile, GoldenLayerRowsOnLenetSmall) {
  obs::Profiler profiler;
  const sim::EvalResult result = run_profiled(2, &profiler, nullptr);
  ASSERT_EQ(result.samples, kSamples);

  const std::vector<obs::SpanRecord> spans = profiler.snapshot();
  const std::vector<obs::ProfileRow> rows =
      obs::aggregate_profile(spans, "layer");

  // The small LeNet has exactly these four weighted layers; aggregation
  // must list them in network order (seq key) regardless of which worker
  // ran which image when.
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].name, "conv5x5(1->6)");
  EXPECT_EQ(rows[1].name, "conv5x5(6->16)");
  EXPECT_EQ(rows[2].name, "dense(64->48)");
  EXPECT_EQ(rows[3].name, "dense(48->10)");
  EXPECT_EQ(rows[0].kind, "conv+pool");  // fused AvgPool stage
  EXPECT_EQ(rows[1].kind, "conv+pool");
  EXPECT_EQ(rows[2].kind, "dense");
  EXPECT_EQ(rows[3].kind, "dense");

  std::uint64_t product_bits = 0;
  for (const obs::ProfileRow& row : rows) {
    EXPECT_EQ(row.calls, kSamples) << row.name;
    EXPECT_GT(row.wall_ms, 0.0) << row.name;
    EXPECT_GT(row.counter("product_bits"), 0u) << row.name;
    product_bits += row.counter("product_bits");
  }
  // The spans' counters are deltas of the same RunStats the evaluator
  // merges, so their sum must reproduce the merged total exactly.
  EXPECT_EQ(product_bits, result.stats.product_bits);

  // One "image" span per sample, spread over the worker tracks.
  const std::vector<obs::ProfileRow> images =
      obs::aggregate_profile(spans, "image");
  std::uint64_t image_calls = 0;
  for (const obs::ProfileRow& row : images) {
    image_calls += row.calls;
  }
  EXPECT_EQ(image_calls, kSamples);
}

TEST(Profile, EveryLoweredNodeHasItsOwnRow) {
  // resnet-tiny's residual block holds two nodes named conv3x3(8->8): the
  // rows follow the nodes, not the names.
  nn::Network net = train::build_resnet_tiny(nn::AccumMode::kOrApprox, 16);
  const train::Dataset data = train::make_synth_objects(kSamples, 777, 16);
  sim::ScConfig sc_cfg;
  sc_cfg.stream_length = 32;
  const std::vector<sim::LoweredOp> nodes =
      sim::lower_graph(net, sim::sc_lower_options(sc_cfg), "test");
  obs::Profiler profiler;
  sim::BatchEvaluator evaluator(2);
  sim::EvalHooks hooks;
  hooks.profiler = &profiler;
  (void)evaluator.evaluate(*sim::make_sc_backend(net, sc_cfg), data, hooks);

  const std::vector<obs::ProfileRow> rows =
      obs::aggregate_profile(profiler.snapshot(), "layer");
  ASSERT_EQ(rows.size(), nodes.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].name, nodes[i].layer->name()) << "node " << i;
    EXPECT_EQ(rows[i].kind, sim::node_kind(nodes[i])) << "node " << i;
    EXPECT_EQ(rows[i].calls, kSamples) << "node " << i;
  }
}

TEST(Profile, LayerWallTimeCoversComputeTime) {
  obs::Profiler profiler;
  const sim::EvalResult result = run_profiled(1, &profiler, nullptr);

  double layer_ms = 0.0;
  for (const obs::ProfileRow& row :
       obs::aggregate_profile(profiler.snapshot(), "layer")) {
    layer_ms += row.wall_ms;
  }
  // Total compute time = sum of per-sample latencies. The per-layer spans
  // cover the weighted layers plus their post-ops, so they must account
  // for nearly all of it (the acceptance bound is 5%; leave headroom for
  // slow CI machines).
  const double compute_ms =
      result.latency.mean_us * static_cast<double>(result.samples) / 1e3;
  ASSERT_GT(compute_ms, 0.0);
  EXPECT_GT(layer_ms, 0.80 * compute_ms);
  EXPECT_LT(layer_ms, 1.05 * compute_ms);
}

TEST(Profile, RegistryExportIsThreadCountInvariant) {
  obs::Registry reg1;
  obs::Registry reg4;
  obs::Profiler prof1;
  obs::Profiler prof4;
  (void)run_profiled(1, &prof1, &reg1);
  (void)run_profiled(4, &prof4, &reg4);

  // Fold the per-layer counter sums in, as the CLI does for --metrics
  // --profile; they are sums over all samples, so deterministic too.
  const auto fold = [](obs::Registry& reg, const obs::Profiler& prof) {
    for (const obs::ProfileRow& row :
         obs::aggregate_profile(prof.snapshot(), "layer")) {
      reg.add("layer." + row.name + ".calls", row.calls);
      for (const auto& [key, value] : row.counters) {
        reg.add("layer." + row.name + "." + key, value);
      }
    }
  };
  fold(reg1, prof1);
  fold(reg4, prof4);

  // Byte-identical registry documents for any thread count.
  EXPECT_EQ(reg1.to_json(), reg4.to_json());
  EXPECT_EQ(reg1.to_prometheus(), reg4.to_prometheus());
  EXPECT_GT(reg1.counter("sc.product_bits"), 0u);
  EXPECT_EQ(reg1.counter("eval.samples"), kSamples);
}

TEST(Profile, NullProfilerIsNoOp) {
  const sim::EvalResult with = run_profiled(2, nullptr, nullptr);
  EXPECT_EQ(with.samples, kSamples);

  obs::Profiler profiler;
  {
    obs::Span span(nullptr, "unused", "layer");
    span.counter("bits", 1);
    span.kind("conv");
    span.attach(nullptr);
  }
  EXPECT_EQ(profiler.size(), 0u);
}

TEST(Profile, DisabledSpanStaysWithinBudget) {
  // The hooks are compiled into the hot paths permanently, so a span with
  // a null profiler must cost a few pointer writes — no clock reads, no
  // counter syscalls, no allocation. The budget here is deliberately
  // generous (shared CI machines): 1M disabled spans in under 250 ms is
  // 250 ns/span, ~2 orders of magnitude above the real cost, but a clock
  // read smuggled into the disabled path would still blow it.
  constexpr int kIters = 1'000'000;
  const std::uint64_t begin = obs::Profiler::now_ns();
  for (int i = 0; i < kIters; ++i) {
    obs::Span span(nullptr, {}, {});
  }
  const std::uint64_t elapsed = obs::Profiler::now_ns() - begin;
  EXPECT_LT(elapsed, 250'000'000u)
      << "disabled span: " << elapsed / kIters << " ns each";
}

TEST(Profile, DroppedSpansAreCountedAndResetByTake) {
  obs::Profiler profiler(/*max_spans=*/3);
  for (int i = 0; i < 5; ++i) {
    std::string name("s");  // two appends: gcc 12 -Wrestrict false positive
    name += std::to_string(i);
    obs::Span span(&profiler, name, "layer");
  }
  EXPECT_EQ(profiler.size(), 3u);
  EXPECT_EQ(profiler.dropped(), 2u);

  // take() hands out the truncated record and starts a fresh recording —
  // both the spans and the dropped count reset.
  const std::vector<obs::SpanRecord> spans = profiler.take();
  EXPECT_EQ(spans.size(), 3u);
  EXPECT_EQ(profiler.size(), 0u);
  EXPECT_EQ(profiler.dropped(), 0u);
}

TEST(Profile, EvaluatorEmitsPhaseSpans) {
  // With a profiler attached the evaluator brackets its three stages —
  // clone setup, the parallel run, the reduction — in "phase" spans;
  // aggregation returns them in structural (seq) order.
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox, 16);
  const train::Dataset data = train::make_synth_digits(kSamples, 999, 16);
  sim::ScConfig sc_cfg;
  sc_cfg.stream_length = 32;
  const std::unique_ptr<sim::InferenceBackend> backend =
      sim::make_backend("sc", net, sc_cfg, sim::BipolarConfig{});

  obs::PerfCounterGroup::Options popt;
  popt.inherit = true;
  obs::PerfCounterGroup counters(popt);

  sim::BatchEvaluator evaluator(2);
  obs::Profiler profiler;
  sim::EvalHooks hooks;
  hooks.profiler = &profiler;
  hooks.counters = &counters;
  counters.start();
  (void)evaluator.evaluate(*backend, data, hooks);
  (void)counters.stop();

  const std::vector<obs::ProfileRow> phases =
      obs::aggregate_profile(profiler.snapshot(), "phase");
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0].name, "setup");
  EXPECT_EQ(phases[1].name, "run");
  EXPECT_EQ(phases[2].name, "reduce");
  for (const obs::ProfileRow& row : phases) {
    EXPECT_EQ(row.calls, 1u) << row.name;
    // Counter deltas ride along wherever the host opened any perf event;
    // on fully-degraded hosts the rows are wall-clock only.
    if (counters.available()) {
      EXPECT_FALSE(row.counters.empty()) << row.name;
    }
  }
}

}  // namespace
}  // namespace acoustic
