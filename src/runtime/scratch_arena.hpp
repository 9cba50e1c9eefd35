// Per-worker bump allocator for the SC hot path.
//
// The planned executor needs a pile of short-lived buffers per forward
// (quantized levels, sign-schedule tables, packed stream scratch, worker
// accumulators). Allocating them from the heap per image dominates the
// planned path's residual wall time and makes steady-state latency depend
// on the allocator. A ScratchArena turns all of that into pointer bumps:
// the owner calls reset() at the start of every forward, allocations
// carve aligned spans out of one block, and after the first epoch has
// sized the block (high-water coalescing) steady-state forwards perform
// ZERO heap allocations — asserted by tests/sim/alloc_test.cpp.
//
// Determinism: capacity growth depends only on the sequence of requested
// sizes, never on timing or thread interleaving (each worker owns its own
// arena), so high_water_bytes() is a pure function of the work done — the
// property that keeps the sc.scratch_bytes gauge byte-identical across
// SIMD levels and reruns, and across thread counts while no layer shards
// (a sharded layer requests one scratch state per pool worker).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace acoustic::runtime {

class ScratchArena {
 public:
  /// Every span is aligned to this (covers SIMD vector loads and avoids
  /// false sharing between consecutive spans).
  static constexpr std::size_t kAlignment = 64;

  /// Starts a new epoch: rewinds the bump pointer and, if the previous
  /// epoch overflowed the primary block, coalesces to one block sized to
  /// the high-water mark so the coming epoch (and every identical epoch
  /// after it) allocates nothing.
  void reset();

  /// Carves a zero-initialized span of @p count T's out of the arena.
  /// Valid until the next reset(). T must be trivially destructible (the
  /// arena never runs destructors).
  template <typename T>
  [[nodiscard]] std::span<T> alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "ScratchArena never runs destructors");
    static_assert(alignof(T) <= kAlignment, "over-aligned type");
    std::byte* p = bump(count * sizeof(T));
    T* first = reinterpret_cast<T*>(p);
    for (std::size_t i = 0; i < count; ++i) {
      ::new (static_cast<void*>(first + i)) T{};
    }
    return {first, count};
  }

  /// Peak bytes any single epoch has requested (aligned accounting) — the
  /// steady-state footprint reported as the sc.scratch_bytes gauge.
  [[nodiscard]] std::size_t high_water_bytes() const noexcept {
    return high_water_;
  }

  /// Bytes of the current primary block.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return primary_size_;
  }

  /// Heap allocations the arena itself has performed since construction.
  /// Flat after warm-up — the zero-allocation invariant in one counter.
  [[nodiscard]] std::uint64_t heap_allocations() const noexcept {
    return heap_allocs_;
  }

 private:
  [[nodiscard]] std::byte* bump(std::size_t bytes);

  std::unique_ptr<std::byte[]> primary_;
  std::byte* primary_base_ = nullptr;  ///< kAlignment-aligned into primary_
  std::size_t primary_size_ = 0;
  std::size_t offset_ = 0;       ///< bump cursor within the primary block
  std::size_t epoch_bytes_ = 0;  ///< aligned bytes requested this epoch
  std::size_t high_water_ = 0;
  std::uint64_t heap_allocs_ = 0;
  /// Spillover blocks for epochs that outgrow the primary block (warm-up
  /// only; reset() folds their footprint into the next primary block).
  std::vector<std::unique_ptr<std::byte[]>> overflow_;
};

}  // namespace acoustic::runtime
