#include "tools/bench_suites.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nn/model_zoo.hpp"
#include "nn/zoo_build.hpp"
#include "sc/kernels/kernels.hpp"
#include "sc/rng.hpp"
#include "sim/backend.hpp"
#include "sim/batch_evaluator.hpp"
#include "sim/sc_network.hpp"
#include "sim/stream_bank.hpp"
#include "sim/stream_plan.hpp"
#include "train/dataset.hpp"
#include "train/models.hpp"

namespace acoustic::tools {

namespace {

/// Optimization sink: kernels whose results nothing reads would be dead
/// code to the optimizer.
volatile std::uint64_t g_sink = 0;

void sink(std::uint64_t value) { g_sink = g_sink + value; }

nn::Tensor random_unit(nn::Shape shape, std::uint32_t seed) {
  nn::Tensor t(shape);
  sc::XorShift32 rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.next_double());
  }
  return t;
}

std::vector<std::uint64_t> random_words(std::size_t n, std::uint32_t seed) {
  std::vector<std::uint64_t> words(n);
  sc::XorShift32 rng(seed);
  for (std::uint64_t& w : words) {
    w = (static_cast<std::uint64_t>(rng.next()) << 32) | rng.next();
  }
  return words;
}

// --- forward: single-image SC latency, scalar oracle vs planned ---

bool bytes_equal(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

void run_forward(obs::Bench& bench, const BenchSuiteOptions& options) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox, 16);
  const nn::Tensor input = random_unit(nn::Shape{16, 16, 1}, 2024);
  sim::ScConfig base;
  base.stream_length = options.stream;

  // Bit-exactness gate before anything is timed: a latency for a path that
  // changed the bits would be meaningless, so the suite fails (throws) when
  // a planned configuration — serial, forced 4-way row sharding, or auto —
  // differs from the scalar oracle by a single output byte.
  {
    sim::ScConfig scalar_cfg = base;
    scalar_cfg.exec = sim::ExecMode::kScalar;
    sim::ScNetwork scalar_exec(net, scalar_cfg);
    const nn::Tensor want = scalar_exec.forward(input);
    for (const unsigned threads : {1U, 4U, 0U}) {
      sim::ScConfig cfg = base;
      cfg.intra_threads = threads;
      sim::ScNetwork planned_exec(net, cfg);
      if (!bytes_equal(planned_exec.forward(input), want)) {
        throw std::runtime_error(
            "forward: planned output (intra_threads=" +
            std::to_string(threads) +
            ") is not byte-identical to the scalar oracle");
      }
    }
  }

  struct Variant {
    const char* name;
    sim::ExecMode exec;
    unsigned intra_threads;
  };
  std::vector<Variant> variants = {
      {"forward/scalar", sim::ExecMode::kScalar, 1},
      {"forward/planned", sim::ExecMode::kPlanned, 1},
      {"forward/planned_auto", sim::ExecMode::kPlanned, 0},
  };
  if (options.quick) {
    variants.resize(2);  // scalar + planned cover both code paths
  }
  for (const Variant& variant : variants) {
    sim::ScConfig cfg = base;
    cfg.exec = variant.exec;
    cfg.intra_threads = variant.intra_threads;
    sim::ScNetwork exec(net, cfg);
    nn::Tensor out;
    // Prime the weight tables + scratch arena outside the measurement so
    // the Bench warmup starts from the allocation-free steady state.
    exec.forward_into(input, out);
    bench.run(variant.name, [&] {
      exec.forward_into(input, out);
      sink(out.size());
    });
  }
}

// --- kernels: the SIMD dispatch table over packed words ---

void run_kernels(obs::Bench& bench, const BenchSuiteOptions& options) {
  const std::size_t words = options.quick ? (1U << 12U) : (1U << 14U);
  const sc::kernels::KernelTable& k = sc::kernels::table();
  const std::vector<std::uint64_t> a = random_words(words, 11);
  const std::vector<std::uint64_t> b = random_words(words, 22);
  std::vector<std::uint64_t> acc = random_words(words, 33);
  std::vector<std::uint64_t> out(words, 0);

  bench.run("kernels/and_or", [&] {
    k.and_or(acc.data(), a.data(), b.data(), words);
    sink(acc[0]);
  });
  bench.run("kernels/or_reduce", [&] {
    k.or_reduce(acc.data(), a.data(), words);
    sink(acc[0]);
  });
  bench.run("kernels/and_or_popcount", [&] {
    sink(k.and_or_popcount(acc.data(), a.data(), b.data(), words));
  });
  bench.run("kernels/xnor_words", [&] {
    k.xnor_words(out.data(), a.data(), b.data(), words);
    sink(out[0]);
  });
  bench.run("kernels/popcount_words",
            [&] { sink(k.popcount_words(a.data(), words)); });
  bench.run("kernels/max_stream", [&] {
    k.max_stream(out.data(), a.data(), b.data(), words * 64);
    sink(out[words - 1]);
  });

  // Comparator packing through the production entry point, wrap handling
  // and per-lane scrambling included.
  const std::size_t fill_bits = options.quick ? (1U << 14U) : (1U << 16U);
  const sim::StreamBank bank(8, 0x5eed5eed, fill_bits);
  std::vector<std::uint64_t> packed((fill_bits + 63) / 64, 0);
  bench.run("kernels/compare_pack", [&] {
    bank.fill(100, 7, 0, fill_bits, packed);
    sink(packed[0]);
  });
}

// --- plan: LayerStreamPlan build for one layer's weight lanes ---

void run_plan(obs::Bench& bench, const BenchSuiteOptions& options) {
  const std::size_t stream = options.stream;
  const sim::StreamBank bank(8, 0xacde1234, 2 * stream);
  sim::SegmentSchedule sched;
  sched.phase = stream;
  sched.positions = 4;
  sched.seg = stream / 4;

  const std::size_t lanes = options.quick ? 128 : 512;
  std::vector<std::uint32_t> levels(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    levels[i] = static_cast<std::uint32_t>(i % 255) + 1;
  }

  bench.run("plan/build", [&] {
    // Construction + build is the real per-layer cost a network pays.
    sim::LayerStreamPlan plan(bank, sched, lanes, /*budget_bytes=*/0);
    sim::StreamPlanCounters counters;
    plan.build(levels, counters);
    sink(counters.bits_generated);
  });
}

// --- throughput: BatchEvaluator images/s, 1..N worker threads ---

void run_throughput(obs::Bench& bench, const BenchSuiteOptions& options) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox, 16);
  const train::Dataset data =
      train::make_synth_digits(options.quick ? 16 : 48, 999, 16);
  sim::ScConfig cfg;
  cfg.stream_length = options.stream;
  const std::unique_ptr<sim::InferenceBackend> backend =
      sim::make_backend("sc", net, cfg);

  unsigned max_threads = options.threads_max;
  if (max_threads == 0) {
    max_threads = std::max(1U, std::thread::hardware_concurrency());
  }
  // Powers of two up to the ceiling, plus the ceiling itself.
  std::vector<unsigned> sweep;
  for (unsigned t = 1; t < max_threads; t *= 2) {
    sweep.push_back(t);
  }
  sweep.push_back(max_threads);

  for (const unsigned threads : sweep) {
    sim::BatchEvaluator evaluator(threads);
    bench.run_value("throughput/threads" + std::to_string(threads),
                    "img/s", /*lower_is_better=*/false, [&] {
                      const sim::EvalResult result =
                          evaluator.evaluate(*backend, data);
                      return result.throughput_sps;
                    });
  }
}

// --- scaling: the work-stealing scheduler's thread-scaling matrix ---

train::Dataset random_dataset(nn::Shape shape, std::size_t n,
                              std::uint32_t seed) {
  train::Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    train::Sample sample;
    sample.image = random_unit(shape, seed + static_cast<std::uint32_t>(i));
    sample.label = static_cast<int>(i % 10);
    data.samples.push_back(std::move(sample));
  }
  return data;
}

void run_scaling(obs::Bench& bench, const BenchSuiteOptions& options) {
  // Small AND large models on purpose: LeNet-small images are sub-ms (the
  // per-task scheduling overhead shows), ResNet-18 images are tens of ms
  // (load imbalance and stealing show); cifar-max adds the serial
  // stochastic-max stage in between. The gate is monotone throughput
  // 1 -> 4 threads within the bench.v1 noise thresholds — on a saturated
  // or single-core host "monotone" degrades to "no regression", which is
  // exactly what oversubscription must not cause.
  struct Workload {
    std::string name;
    nn::Network net;
    nn::Shape input;
    std::size_t images;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"lenet-small",
                       train::build_lenet_small(nn::AccumMode::kOrApprox, 16),
                       nn::Shape{16, 16, 1}, options.quick ? 8U : 16U});
  if (!options.quick) {
    workloads.push_back(
        {"cifar-max", train::build_cifar_small_maxpool(nn::AccumMode::kOrApprox),
         nn::Shape{16, 16, 3}, 8U});
  }
  {
    nn::ZooBuildOptions zoo_opt;
    zoo_opt.side = 8;
    zoo_opt.mode = nn::AccumMode::kOrApprox;
    workloads.push_back({"resnet18",
                         nn::build_from_descriptor(nn::resnet18(), zoo_opt),
                         nn::zoo_input_shape(nn::resnet18(), zoo_opt),
                         options.quick ? 2U : 4U});
  }

  std::vector<unsigned> sweep = {1, 2, 4};
  if (options.threads_max != 0) {
    std::erase_if(sweep, [&](unsigned t) { return t > options.threads_max; });
    if (sweep.empty()) {
      sweep.push_back(1);
    }
  }

  for (Workload& workload : workloads) {
    const train::Dataset data =
        random_dataset(workload.input, workload.images, 500);
    sim::ScConfig cfg;
    cfg.stream_length = options.stream;
    const std::unique_ptr<sim::InferenceBackend> backend =
        sim::make_backend("sc", workload.net, cfg);
    for (const unsigned threads : sweep) {
      sim::BatchEvaluator evaluator(threads);
      bench.run_value(
          "scaling/" + workload.name + "/t" + std::to_string(threads),
          "img/s", /*lower_is_better=*/false, [&] {
            const sim::EvalResult result = evaluator.evaluate(*backend, data);
            return result.throughput_sps;
          });
    }
  }
}

}  // namespace

const std::vector<BenchSuite>& bench_suites() {
  static const std::vector<BenchSuite> suites = {
      {"forward",
       "single-image SC forward latency (scalar vs planned), gated on "
       "planned == scalar byte identity",
       run_forward},
      {"kernels", "SIMD kernel table: word ops, popcounts, comparator pack",
       run_kernels},
      {"plan", "LayerStreamPlan build cost for one layer's weight lanes",
       run_plan},
      {"throughput", "BatchEvaluator images/s at 1..N worker threads",
       run_throughput},
      {"scaling",
       "work-stealing thread scaling: img/s at 1/2/4 threads across "
       "lenet-small, cifar-max, resnet18",
       run_scaling},
  };
  return suites;
}

const BenchSuite* find_bench_suite(const std::string& name) {
  for (const BenchSuite& suite : bench_suites()) {
    if (name == suite.name) {
      return &suite;
    }
  }
  return nullptr;
}

}  // namespace acoustic::tools
