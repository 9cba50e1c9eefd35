// Stochastic number generator (SNG).
//
// An SNG converts a binary fixed-point value into a stochastic bitstream by
// comparing the value against a pseudo-random sequence each cycle:
// bit_t = (rng_t < value). With a uniform RNG the probability of a 1 equals
// value / 2^width, i.e. the stream encodes the value in unipolar format.
// ACOUSTIC shares one RNG across the SNGs of a column (common practice, see
// paper section III-A) — streams generated from the same RNG are maximally
// correlated, which is harmless for shared-input multiplication but would
// break OR accumulation, so weight and activation SNG banks use distinct
// RNGs and per-lane phase offsets.
#pragma once

#include <cstdint>

#include "sc/bitstream.hpp"
#include "sc/rng.hpp"

namespace acoustic::sc {

/// Converts @p level (a fixed-point magnitude in [0, 2^width]) into a
/// unipolar stream of @p length bits using @p rng as the comparison
/// sequence. A level of 2^width produces an all-ones stream.
template <typename Rng>
[[nodiscard]] BitStream generate_stream(std::uint32_t level,
                                        std::size_t length, Rng& rng) {
  BitStream out(length);
  for (std::size_t i = 0; i < length; ++i) {
    if (rng.next() < level) {
      out.set_bit(i, true);
    }
  }
  return out;
}

/// Quantizes @p value in [0,1] to a @p width-bit comparison level. Values
/// above 1 (+Inf included) saturate at the full level; values at or below
/// 0, denormals that round to 0 and NaN of either sign give level 0.
[[nodiscard]] std::uint32_t quantize_unipolar(double value, unsigned width);

/// SNG bound to an LFSR. Successive calls continue the LFSR sequence, so
/// two streams drawn back-to-back from one Sng are decorrelated in time the
/// same way hardware streams from a free-running LFSR are.
class Sng {
 public:
  /// @param width LFSR and comparator width in bits (stream resolution
  ///              1/2^width); 3..32.
  /// @param seed  LFSR seed.
  explicit Sng(unsigned width, std::uint32_t seed = 1)
      : width_(width), lfsr_(width, seed) {}

  /// Generates a stream of @p length bits encoding @p value in [0,1].
  [[nodiscard]] BitStream generate(double value, std::size_t length) {
    return generate_stream(quantize_unipolar(value, width_), length, lfsr_);
  }

  /// Generates from an already-quantized level in [0, 2^width].
  [[nodiscard]] BitStream generate_level(std::uint32_t level,
                                         std::size_t length) {
    return generate_stream(level, length, lfsr_);
  }

  [[nodiscard]] unsigned width() const noexcept { return width_; }
  [[nodiscard]] Lfsr& rng() noexcept { return lfsr_; }

 private:
  unsigned width_;
  Lfsr lfsr_;
};

}  // namespace acoustic::sc
