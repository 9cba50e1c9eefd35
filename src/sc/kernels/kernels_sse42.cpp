// SSE4.2 kernel table: 4-wide comparator packing (SSE2 compare +
// movemask) and hardware popcnt. The word-op entries reuse the generic
// bodies, compiled in this TU under -msse4.2 so the auto-vectorizer may
// use the full ISA — the results are identical either way.
#include "sc/kernels/kernels_internal.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#if ACOUSTIC_KERNELS_X86_TABLES && defined(__SSE4_2__)

#include <immintrin.h>

namespace {
#include "sc/kernels/kernels_impl.inl"

using acoustic::sc::kernels::CompareWiring;
using acoustic::sc::kernels::kScrambleMul;

void sse42_compare_pack(const CompareWiring& w, const std::uint32_t* states,
                        std::size_t count, std::uint32_t level,
                        std::uint64_t* out, std::size_t bit0) {
  const __m128i pre = _mm_set1_epi32(static_cast<int>(w.pre_xor));
  const __m128i post = _mm_set1_epi32(static_cast<int>(w.post_xor));
  const __m128i mask = _mm_set1_epi32(static_cast<int>(w.mask));
  const __m128i mul = _mm_set1_epi32(static_cast<int>(kScrambleMul));
  // Unsigned x < level via the sign-flip trick: flip bit 31 of both sides
  // and use the signed compare (level is hoisted, pre-flipped).
  const __m128i sign = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i lvl =
      _mm_xor_si128(_mm_set1_epi32(static_cast<int>(level)), sign);
  // Rotate as two runtime-count shifts; rot == 0 is branched around (a
  // width-bit right shift by `width` would be UB in the scalar reference,
  // so the wiring guarantees 0 <= rot < width).
  const __m128i rot_l = _mm_cvtsi32_si128(static_cast<int>(w.rot));
  const __m128i rot_r = _mm_cvtsi32_si128(static_cast<int>(w.width - w.rot));
  const bool identity = w.identity;
  const bool do_rot = w.rot != 0;

  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    __m128i x = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(states + j));
    if (!identity) {
      x = _mm_xor_si128(x, pre);
      x = _mm_and_si128(_mm_mullo_epi32(x, mul), mask);
      if (do_rot) {
        x = _mm_and_si128(
            _mm_or_si128(_mm_sll_epi32(x, rot_l), _mm_srl_epi32(x, rot_r)),
            mask);
      }
      x = _mm_xor_si128(x, post);
    }
    const __m128i lt = _mm_cmplt_epi32(_mm_xor_si128(x, sign), lvl);
    const auto m = static_cast<std::uint32_t>(
        _mm_movemask_ps(_mm_castsi128_ps(lt)));  // 4 compare bits
    const std::size_t bit = bit0 + j;
    const std::size_t wi = bit >> 6;
    const unsigned r = static_cast<unsigned>(bit & 63);
    out[wi] |= static_cast<std::uint64_t>(m) << r;
    if (r > 60) {
      // The 4-bit group straddles a word boundary; the caller sizes the
      // buffer to hold bit0 + count bits, so word wi + 1 exists.
      out[wi + 1] |= static_cast<std::uint64_t>(m) >> (64 - r);
    }
  }
  if (j < count) {
    generic_compare_pack(w, states + j, count - j, level, out, bit0 + j);
  }
}

std::uint64_t sse42_popcount_words(const std::uint64_t* words,
                                   std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::uint64_t>(
        _mm_popcnt_u64(static_cast<unsigned long long>(words[i])));
  }
  return total;
}

std::uint64_t sse42_and_or_popcount(std::uint64_t* acc,
                                    const std::uint64_t* a,
                                    const std::uint64_t* b, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] |= a[i] & b[i];
    total += static_cast<std::uint64_t>(
        _mm_popcnt_u64(static_cast<unsigned long long>(acc[i])));
  }
  return total;
}

}  // namespace

namespace acoustic::sc::kernels::detail {

const KernelTable& sse42_table() noexcept {
  static const KernelTable table = {
      "sse42",
      Level::kSse42,
      &sse42_compare_pack,
      &generic_and_words,
      &generic_or_words,
      &generic_xor_words,
      &generic_xnor_words,
      &sse42_popcount_words,
      &sse42_and_or_popcount,
      &generic_gather_and_or_popcount,
      &generic_max_stream,
  };
  return table;
}

}  // namespace acoustic::sc::kernels::detail

#elif ACOUSTIC_KERNELS_X86_TABLES

// Built without -msse4.2 (unexpected on an x86 CMake build): satisfy the
// dispatcher's reference with the scalar bodies so the link stays whole.
// level_supported() still reports truthfully; only the table content
// degrades, never the bits.
namespace acoustic::sc::kernels::detail {
const KernelTable& sse42_table() noexcept { return scalar_table(); }
}  // namespace acoustic::sc::kernels::detail

#endif
