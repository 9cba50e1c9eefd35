#include "sc/sng.hpp"

#include <algorithm>
#include <cmath>

namespace acoustic::sc {

std::uint32_t quantize_unipolar(double value, unsigned width) {
  // NaN fails every comparison, so it passes std::clamp and would reach
  // llround, whose result for NaN is unspecified (LLONG_MIN on x86, which
  // the cap below turns into the full-on level). Gate it with the
  // non-positive values instead: level 0 on every platform.
  if (!(value > 0.0)) {
    return 0;
  }
  const double clamped = std::min(value, 1.0);
  // 2^width as an exact shift for the widths a comparator can have; the
  // ldexp fallback keeps out-of-range widths defined (same value either
  // way, so quantization results are unchanged).
  const double scale = width < 63
                           ? static_cast<double>(std::uint64_t{1} << width)
                           : std::ldexp(1.0, static_cast<int>(width));
  const auto level = static_cast<std::uint64_t>(std::llround(clamped * scale));
  // Width-32 levels of exactly 2^32 cannot be represented in the 32-bit
  // comparator; saturate (error <= 2^-32 in the encoded value).
  const std::uint64_t cap = (width >= 32) ? 0xFFFFFFFFull
                                          : (std::uint64_t{1} << width);
  return static_cast<std::uint32_t>(std::min(level, cap));
}

}  // namespace acoustic::sc
