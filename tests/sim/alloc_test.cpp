// Steady-state allocation audit for the SC hot path.
//
// This binary replaces global operator new/delete with counting versions
// (which is why it is its own test executable) and asserts the central
// ScratchArena promise: after warm-up, a planned-mode forward performs
// ZERO heap allocations, sharded across a pool's idle workers or not, and
// a BatchEvaluator run's allocation COUNT is independent of how many
// images it evaluates — every per-image buffer (logits, arena scratch,
// stream plans, product tables) is reused.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "nn/conv.hpp"
#include "nn/network.hpp"
#include "runtime/thread_pool.hpp"
#include "sc/rng.hpp"
#include "sim/backend.hpp"
#include "sim/batch_evaluator.hpp"
#include "sim/sc_network.hpp"
#include "train/dataset.hpp"
#include "train/models.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? alignment : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace acoustic;

nn::Tensor random_image(std::uint32_t seed) {
  nn::Tensor t(nn::Shape{16, 16, 1});
  sc::XorShift32 rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.next_double());
  }
  return t;
}

TEST(AllocFree, PlannedForwardAllocatesNothingAfterWarmup) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox, 16);
  sim::ScConfig cfg;
  cfg.stream_length = 128;
  cfg.exec = sim::ExecMode::kPlanned;
  cfg.intra_threads = 1;
  sim::ScNetwork exec(net, cfg);
  const nn::Tensor input = random_image(2024);
  nn::Tensor out;
  // Warm-up: builds weight plans and product tables, sizes the arena, the
  // retained activation plan and the ping-pong buffers.
  exec.forward_into(input, out);
  exec.forward_into(input, out);

  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 10; ++i) {
    exec.forward_into(input, out);
  }
  const std::uint64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "steady-state planned forwards must not touch the heap";
  EXPECT_GT(exec.stats().scratch_bytes, 0u);
}

TEST(AllocFree, SecondImageWithSameShapeAllocatesNothing) {
  // Different pixel values exercise per-image plan rebuilds and liveness;
  // only the FIRST image of a shape may size buffers.
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox, 16);
  sim::ScConfig cfg;
  cfg.stream_length = 128;
  cfg.exec = sim::ExecMode::kPlanned;
  cfg.intra_threads = 1;
  sim::ScNetwork exec(net, cfg);
  nn::Tensor out;
  exec.forward_into(random_image(1), out);
  exec.forward_into(random_image(2), out);
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (std::uint32_t seed = 3; seed < 13; ++seed) {
    exec.forward_into(random_image(seed), out);
  }
  // random_image itself allocates one tensor per call; everything else
  // must be reuse. 10 images -> exactly 10 tensor data blocks.
  const std::uint64_t per_call_tensor_allocs = 10;
  EXPECT_LE(g_news.load(std::memory_order_relaxed) - before,
            per_call_tensor_allocs)
      << "per-image forward work leaked heap allocations";
}

TEST(AllocFree, ShardedForwardAllocatesNothingAfterWarmup) {
  // A conv3x3(16->16) over 8x8x16 (147,456 word-ops at stream 128, over
  // the auto floor) run as the only task of a 4-worker pool forks its 8
  // row units onto the idle workers, under auto and forced sharding alike.
  // Neither the fork nor the join may touch the heap once warm.
  nn::Network net;
  net.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 16,
                                   .out_channels = 16,
                                   .kernel = 3,
                                   .padding = 1,
                                   .mode = nn::AccumMode::kOrExact})
      .initialize(77);
  nn::Tensor input(nn::Shape{8, 8, 16});
  sc::XorShift32 rng(78);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(rng.next_double());
  }
  for (const unsigned intra : {0u, 4u}) {
    sim::ScConfig cfg;
    cfg.stream_length = 128;
    cfg.intra_threads = intra;
    sim::ScNetwork exec(net, cfg);
    runtime::ThreadPool pool(4);
    nn::Tensor out;
    std::uint64_t allocs = 0;
    const runtime::ThreadPool::Stats before = pool.stats();
    pool.parallel_for(1, [&](std::size_t, unsigned) {
      exec.forward_into(input, out);
      exec.forward_into(input, out);
      const std::uint64_t start = g_news.load(std::memory_order_relaxed);
      for (int i = 0; i < 10; ++i) {
        exec.forward_into(input, out);
      }
      allocs = g_news.load(std::memory_order_relaxed) - start;
    });
    EXPECT_EQ(allocs, 0u) << "intra_threads " << intra;
    // The forward task plus 8 units for each of the 12 forwards.
    EXPECT_EQ(pool.stats().tasks - before.tasks, 1u + 12u * 8u)
        << "intra_threads " << intra;
  }
}

TEST(AllocFree, EvaluatorAllocationCountIsIndependentOfImageCount) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox, 16);
  sim::ScConfig cfg;
  cfg.stream_length = 64;
  cfg.exec = sim::ExecMode::kPlanned;
  cfg.intra_threads = 1;

  const auto make_data = [](std::size_t n) {
    train::Dataset data;
    for (std::size_t i = 0; i < n; ++i) {
      train::Sample s;
      s.image = random_image(static_cast<std::uint32_t>(1000 + i));
      s.label = static_cast<int>(i % 10);
      data.samples.push_back(std::move(s));
    }
    return data;
  };
  const train::Dataset small = make_data(8);
  const train::Dataset large = make_data(24);

  const auto count_run = [&](const train::Dataset& data) {
    const auto backend = sim::make_sc_backend(net, cfg);
    sim::BatchEvaluator evaluator(1);
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    const sim::EvalResult result = evaluator.evaluate(*backend, data, {});
    const std::uint64_t after = g_news.load(std::memory_order_relaxed);
    EXPECT_EQ(result.samples, data.size());
    return after - before;
  };
  const std::uint64_t allocs_small = count_run(small);
  const std::uint64_t allocs_large = count_run(large);
  // Per-run setup (clone, result vectors, first-image warm-up) allocates;
  // the per-image loop must not, so tripling the image count cannot move
  // the allocation count.
  EXPECT_EQ(allocs_large, allocs_small)
      << "evaluator per-image loop is allocating per sample";
}

}  // namespace
