#include "tools/bench_suites.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/model_zoo.hpp"
#include "nn/pool.hpp"
#include "nn/zoo_build.hpp"
#include "obs/span.hpp"
#include "perf/codegen.hpp"
#include "perf/perf_sim.hpp"
#include "runtime/thread_pool.hpp"
#include "sc/gates.hpp"
#include "sc/kernels/kernels.hpp"
#include "sc/rng.hpp"
#include "sc/sng.hpp"
#include "sim/backend.hpp"
#include "sim/batch_evaluator.hpp"
#include "sim/sc_mac.hpp"
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
  // differs from the scalar oracle by a single output byte. Each forward
  // runs as a task of a pool with that many workers (0 = all hardware
  // threads), since rows shard only on the pool the forward runs on.
  {
    sim::ScConfig scalar_cfg = base;
    scalar_cfg.exec = sim::ExecMode::kScalar;
    sim::ScNetwork scalar_exec(net, scalar_cfg);
    const nn::Tensor want = scalar_exec.forward(input);
    for (const unsigned threads : {1U, 4U, 0U}) {
      sim::ScConfig cfg = base;
      cfg.intra_threads = threads;
      sim::ScNetwork planned_exec(net, cfg);
      runtime::ThreadPool pool(threads);
      nn::Tensor got;
      pool.parallel_for(1, [&](std::size_t, unsigned) {
        got = planned_exec.forward(input);
      });
      if (!bytes_equal(got, want)) {
        throw std::runtime_error(
            "forward: planned output (intra_threads=" +
            std::to_string(threads) +
            ") is not byte-identical to the scalar oracle");
      }
    }
  }

  // Timed outside any pool, where every layer runs serial.
  struct Variant {
    const char* name;
    sim::ExecMode exec;
  };
  const Variant variants[] = {
      {"forward/scalar", sim::ExecMode::kScalar},
      {"forward/planned", sim::ExecMode::kPlanned},
  };
  for (const Variant& variant : variants) {
    sim::ScConfig cfg = base;
    cfg.exec = variant.exec;
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

  bench.run("kernels/and_or_popcount", [&] {
    sink(k.and_or_popcount(acc.data(), a.data(), b.data(), words));
  });
  // The planned conv body's wide-segment group at 8-word segments: groups
  // of 32 entries gathered from a 64-slot field, `words` weight words in
  // all (the same AND/OR volume as and_or_popcount above).
  constexpr std::size_t kSegWords = 8;
  constexpr std::size_t kGroup = 32;
  std::vector<std::uint32_t> slot(words / kSegWords);
  for (std::size_t e = 0; e < slot.size(); ++e) {
    slot[e] = static_cast<std::uint32_t>((e * 37) % 64);
  }
  bench.run("kernels/gather_and_or_popcount", [&] {
    std::uint64_t ones = 0;
    for (std::size_t e0 = 0; e0 + kGroup <= slot.size(); e0 += kGroup) {
      ones += k.gather_and_or_popcount(acc.data(), a.data(), slot.data() + e0,
                                       b.data() + e0 * kSegWords, kGroup,
                                       kSegWords);
    }
    sink(ones);
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

  // Comparator packing through the production entry point: one kernel
  // call per window, per-lane scrambling included, at the default 8-bit
  // SNG width.
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
    sink(plan.build(levels));
  });
}

// --- throughput: BatchEvaluator images/s, 1..N worker threads ---

/// One img/s entry "<prefix><threads>" per thread count of @p sweep:
/// @p data through an SC backend of @p net on that many evaluator workers.
void sweep_threads(obs::Bench& bench, const std::string& prefix,
                   nn::Network& net, const train::Dataset& data,
                   const std::vector<unsigned>& sweep, std::size_t stream) {
  sim::ScConfig cfg;
  cfg.stream_length = stream;
  const std::unique_ptr<sim::InferenceBackend> backend =
      sim::make_backend("sc", net, cfg);
  for (const unsigned threads : sweep) {
    sim::BatchEvaluator evaluator(threads);
    bench.run_value(prefix + std::to_string(threads), "img/s",
                    /*lower_is_better=*/false, [&] {
                      return evaluator.evaluate(*backend, data).throughput_sps;
                    });
  }
}

void run_throughput(obs::Bench& bench, const BenchSuiteOptions& options) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox, 16);
  const train::Dataset data =
      train::make_synth_digits(options.quick ? 16 : 48, 999, 16);
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
  sweep_threads(bench, "throughput/threads", net, data, sweep,
                options.stream);
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
  // 1 -> 4 threads within the bench.v1 noise thresholds. On a saturated
  // or single-core host the workers timeslice, and "monotone" degrades to
  // "more workers than cores cost no throughput".
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
    sweep_threads(bench, "scaling/" + workload.name + "/t", workload.net,
                  random_dataset(workload.input, workload.images, 500), sweep,
                  options.stream);
  }
}

// --- primitives: the simulators' building blocks ---

void run_primitives(obs::Bench& bench, const BenchSuiteOptions& /*options*/) {
  // These guard the simulators' own speed: SC is "extremely slow to
  // accurately simulate in software" (paper IV-A). Each timed call repeats
  // its primitive for roughly half a millisecond, so neither the timer nor
  // a short burst of host noise sets the median.
  const auto repeat = [&bench](const char* name, int reps, const auto& fn) {
    bench.run(name, [&] {
      for (int i = 0; i < reps; ++i) {
        fn();
      }
    });
  };

  // Bit-serial comparator SNG and single-gate arithmetic on BitStreams.
  sc::Sng sng8(8, 1);
  repeat("primitives/sng_generate", 8,
         [&] { sink(sng8.generate(0.37, 8192).size()); });
  sc::Sng sng(16, 3);
  const sc::BitStream a = sng.generate(0.5, 65536);
  const sc::BitStream b = sng.generate(0.3, 65536);
  repeat("primitives/and_multiply", 1024,
         [&] { sink(sc::and_multiply(a, b).size()); });
  // A VGG-class 3x3x256 fan-in OR-accumulated onto one line.
  const std::vector<sc::BitStream> products(2304, sng.generate(0.01, 1024));
  repeat("primitives/or_accumulate_wide", 16, [&] {
    sink(sc::or_accumulate(std::span<const sc::BitStream>(products))
             .size());
  });
  // One 96:1 split-unipolar MAC on alternating-sign weights, streams
  // generated per call.
  const std::vector<double> acts(96, 0.4);
  std::vector<double> weights(96, 0.2);
  for (std::size_t i = 0; i < weights.size(); i += 2) {
    weights[i] = -0.2;
  }
  repeat("primitives/split_unipolar_mac", 8, [&] {
    sink(static_cast<std::uint64_t>(
        sim::split_unipolar_mac(acts, weights, sim::ScConfig{}).count_final));
  });

  // One conv 5x5 (6 -> 16 channels) + ReLU + fused 2x2 average-pool stage,
  // the executor's hot shape, on the planned body and the scalar oracle.
  nn::Network stage;
  auto& conv = stage.add<nn::Conv2D>(
      nn::ConvSpec{.in_channels = 6, .out_channels = 16, .kernel = 5,
                   .mode = nn::AccumMode::kOrApprox});
  stage.add<nn::ReLU>();
  stage.add<nn::AvgPool2D>(2);
  conv.initialize(61);
  nn::Tensor input(nn::Shape{8, 8, 6});
  input.fill(0.4f);
  for (const bool planned : {true, false}) {
    sim::ScConfig cfg;
    cfg.stream_length = 128;
    cfg.exec = planned ? sim::ExecMode::kPlanned : sim::ExecMode::kScalar;
    sim::ScNetwork executor(stage, cfg);
    nn::Tensor out;
    repeat(planned ? "primitives/conv_pool_planned"
                   : "primitives/conv_pool_scalar",
           planned ? 8 : 1, [&] {
      executor.forward_into(input, out);
      sink(out.size());
    });
  }

  // Profiling spans stay compiled into the hot paths: the disabled path
  // (null profiler) must cost a few pointer writes; enabled adds two clock
  // reads and one mutex-guarded record.
  repeat("primitives/span_disabled", 1 << 16, [] {
    const obs::Span span(nullptr, {}, {});
  });
  obs::Profiler profiler;
  bench.run("primitives/span_enabled", [&] {
    for (int i = 0; i < 2048; ++i) {
      const obs::Span span(&profiler, "bench", "layer");
    }
    sink(profiler.take().size());
  });

  // The performance simulator and the code generator.
  const perf::ArchConfig arch = perf::lp();
  const perf::CodegenResult alexnet =
      perf::generate_program(nn::alexnet(), arch);
  repeat("primitives/perf_sim_alexnet", 8, [&] {
    sink(perf::simulate(alexnet.program, arch).total_cycles);
  });
  const nn::NetworkDesc vgg16 = nn::vgg16();
  repeat("primitives/codegen_vgg16", 32, [&] {
    sink(perf::generate_program(vgg16, arch).program.size());
  });
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
      {"primitives",
       "SNG, AND/OR gates, split-unipolar MAC, conv+pool stage, spans, "
       "perf-sim, codegen",
       run_primitives},
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
