// Registered suites for `acoustic bench` — the performance surface the
// repo tracks continuously:
//
//   forward     single-image SC forward latency (scalar reference vs the
//               planned fast path, serial and auto-threaded); fails when
//               any planned configuration is not byte-identical to the
//               scalar oracle
//   kernels     the SIMD kernel table: word ops, fused product+count,
//               comparator packing (StreamBank::fill), stochastic max
//   plan        LayerStreamPlan construction + build for one layer's
//               weight lanes (the per-network one-time cost)
//   throughput  BatchEvaluator images/s at 1..N worker threads
//   scaling     work-stealing scheduler thread-scaling matrix: img/s at
//               1/2/4 threads across lenet-small, cifar-max and resnet18
//               (the monotone-scaling gate CI checks)
//   primitives  the simulators' building blocks: SNG generation, AND
//               multiply, wide OR accumulation, the split-unipolar MAC,
//               one conv+pool stage planned and scalar, disabled and
//               enabled profiling spans, perf-sim AlexNet, codegen VGG-16
//
// Every suite records into one shared obs::Bench, so the whole run is a
// single bench.v1 trajectory document `--compare` can gate on. Suites live
// here (not in src/obs) because they need the sim/train/sc layers, which
// sit above the observability library in the link order.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/bench_harness.hpp"

namespace acoustic::tools {

/// Knobs the CLI exposes; every suite honors what applies to it.
struct BenchSuiteOptions {
  std::size_t stream = 128;  ///< SC stream length for forward/plan/throughput
  unsigned threads_max = 0;  ///< throughput sweep ceiling (0 = hardware)
  bool quick = false;        ///< smaller buffers/datasets for smoke runs
};

struct BenchSuite {
  const char* name;
  const char* description;
  void (*run)(obs::Bench& bench, const BenchSuiteOptions& options);
};

/// All registered suites, in run order.
[[nodiscard]] const std::vector<BenchSuite>& bench_suites();

/// nullptr when @p name is not a registered suite.
[[nodiscard]] const BenchSuite* find_bench_suite(const std::string& name);

}  // namespace acoustic::tools
