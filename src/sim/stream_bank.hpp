// Shared-RNG stream generation for SNG banks.
//
// ACOUSTIC shares one RNG across the SNGs of a bank (III-A). Naive sharing
// would make all streams of the bank maximally correlated and break OR
// accumulation, so — as is standard for LFSR sharing in the SC literature —
// each SNG lane sees a cheap per-lane scrambling (rotation + XOR mask) of
// the shared LFSR state. The scrambling is a fixed wiring pattern in
// hardware and a pure function here, so the simulation stays bit-exact with
// respect to that wiring.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sc/bitstream.hpp"
#include "sc/kernels/kernels.hpp"
#include "sc/rng.hpp"

namespace acoustic::sim {

/// A bank of SNGs driven by one shared LFSR. The bank precomputes the LFSR
/// sequence for the whole computation window; lanes derive decorrelated
/// comparison sequences from it.
class StreamBank {
 public:
  /// @param width  LFSR/comparator width in bits.
  /// @param seed   LFSR seed.
  /// @param length number of cycles the bank will run (total bits available
  ///               per lane).
  /// @param decorrelate apply the per-lane scrambler + phase taps. Turning
  ///        this off models naive RNG sharing (every SNG compares against
  ///        the same sequence) — the failure mode the ablation bench
  ///        demonstrates.
  StreamBank(unsigned width, std::uint32_t seed, std::size_t length,
             bool decorrelate = true);

  /// Stream of @p length bits for @p lane starting at cycle @p offset,
  /// encoding probability level/2^width. offset+length must not exceed the
  /// bank length.
  [[nodiscard]] sc::BitStream stream(std::uint32_t level, std::uint32_t lane,
                                     std::size_t offset,
                                     std::size_t length) const;

  /// Full-window stream for @p lane.
  [[nodiscard]] sc::BitStream stream(std::uint32_t level,
                                     std::uint32_t lane) const {
    return stream(level, lane, 0, length());
  }

  /// Writes the stream for (@p level, @p lane, @p offset) into @p words
  /// (packed, bit t of the segment = bit t of words): bit t is
  /// scramble(state_at(offset + t, lane), lane) < level. Its first
  /// (length+63)/64 words are overwritten, the rest left alone. Throws
  /// std::out_of_range when offset+length exceeds the bank length and
  /// std::invalid_argument when words is shorter than that. The bank
  /// stores the shared sequence twice, so the window is one contiguous
  /// state run even where it wraps, and one call of the active
  /// compare_pack kernel (sc/kernels) packs it with the per-lane
  /// scrambler constants hoisted. stream() is a thin wrapper, so both
  /// entry points share one kernel.
  void fill(std::uint32_t level, std::uint32_t lane, std::size_t offset,
            std::size_t length, std::span<std::uint64_t> words) const;

  /// Quantizes @p value in [0,1] to this bank's comparator grid.
  [[nodiscard]] std::uint32_t quantize(double value) const;

  [[nodiscard]] std::size_t length() const noexcept {
    return base_.size() / 2;
  }
  [[nodiscard]] unsigned width() const noexcept { return width_; }

  /// Per-lane scrambling of a shared LFSR state (fixed XOR-multiply-rotate
  /// wiring; a bijection per lane).
  [[nodiscard]] std::uint32_t scramble(std::uint32_t state,
                                       std::uint32_t lane) const noexcept;

  /// Lane-specific tap delay into the shared LFSR sequence.
  [[nodiscard]] std::size_t lane_phase(std::uint32_t lane) const noexcept;

  /// Raw (pre-scramble) LFSR state @p lane sees at cycle @p t. Combined
  /// with scramble(), lets callers evaluate single stream bits lazily
  /// (used by the bipolar-MUX executor, which touches one lane per cycle).
  [[nodiscard]] std::uint32_t state_at(std::size_t t,
                                       std::uint32_t lane) const noexcept {
    return base_[(t + lane_phase(lane)) % length()];
  }

 private:
  /// Per-lane scrambler wiring in the kernel layer's vocabulary,
  /// precomputed once per fill so the compare kernel pays only
  /// XOR-multiply-rotate-XOR with loop-invariant constants.
  [[nodiscard]] sc::kernels::CompareWiring lane_wiring(
      std::uint32_t lane) const noexcept;

  unsigned width_;
  std::uint32_t mask_;
  bool decorrelate_;
  /// The shared LFSR sequence of length() states, stored twice so that
  /// every window is one contiguous run.
  std::vector<std::uint32_t> base_;
  /// Active kernel table, resolved once at construction (dispatch is
  /// process-wide; caching the pointer keeps fill() call-overhead-free).
  const sc::kernels::KernelTable* kt_;
};

}  // namespace acoustic::sim
