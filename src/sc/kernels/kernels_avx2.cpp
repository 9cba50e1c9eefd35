// AVX2 kernel table: comparator packing and the gathered multi-word
// AND/OR product group in 256-bit registers. compare_pack scrambles 16
// LFSR states per instruction in 16-bit lanes when the wiring fits them
// (width <= 16, the default SNG width included) and builds each 64-bit
// output word in a register; the 8-wide 32-bit body takes the rest. The
// other entries are the generic bodies compiled under this TU's
// -mavx2 -mpopcnt: the word loops auto-vectorize and std::popcount
// emits the popcnt instruction.
#include "sc/kernels/kernels_internal.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#if ACOUSTIC_KERNELS_X86_TABLES && defined(__AVX2__) && defined(__POPCNT__)

#include <immintrin.h>

namespace {
#include "sc/kernels/kernels_impl.inl"

using acoustic::sc::kernels::CompareWiring;
using acoustic::sc::kernels::kScrambleMul;

/// The 8-wide body in 32-bit lanes: every wiring, width and level.
void compare_pack32(const CompareWiring& w, const std::uint32_t* states,
                    std::size_t count, std::uint32_t level,
                    std::uint64_t* out, std::size_t bit0) {
  const __m256i pre = _mm256_set1_epi32(static_cast<int>(w.pre_xor));
  const __m256i post = _mm256_set1_epi32(static_cast<int>(w.post_xor));
  const __m256i mask = _mm256_set1_epi32(static_cast<int>(w.mask));
  const __m256i mul = _mm256_set1_epi32(static_cast<int>(kScrambleMul));
  // Unsigned x < level via the sign-flip trick (hoisted, pre-flipped
  // level) — AVX2 only has signed 32-bit compares.
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i lvl =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(level)), sign);
  // Rotate within `width` bits as two runtime-count shifts; rot == 0 is
  // branched around so the right-shift count stays < width.
  const __m128i rot_l = _mm_cvtsi32_si128(static_cast<int>(w.rot));
  const __m128i rot_r = _mm_cvtsi32_si128(static_cast<int>(w.width - w.rot));
  const bool identity = w.identity;
  const bool do_rot = w.rot != 0;

  std::size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    __m256i x = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(states + j));
    if (!identity) {
      x = _mm256_xor_si256(x, pre);
      x = _mm256_and_si256(_mm256_mullo_epi32(x, mul), mask);
      if (do_rot) {
        x = _mm256_and_si256(_mm256_or_si256(_mm256_sll_epi32(x, rot_l),
                                             _mm256_srl_epi32(x, rot_r)),
                             mask);
      }
      x = _mm256_xor_si256(x, post);
    }
    const __m256i lt =
        _mm256_cmpgt_epi32(lvl, _mm256_xor_si256(x, sign));  // x < level
    const auto m = static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(lt)));  // 8 compare bits
    const std::size_t bit = bit0 + j;
    const std::size_t wi = bit >> 6;
    const unsigned r = static_cast<unsigned>(bit & 63);
    out[wi] |= static_cast<std::uint64_t>(m) << r;
    if (r > 56) {
      // The 8-bit group straddles a word boundary; the caller sizes the
      // buffer to hold bit0 + count bits, so word wi + 1 exists.
      out[wi + 1] |= static_cast<std::uint64_t>(m) >> (64 - r);
    }
  }
  if (j < count) {
    generic_compare_pack(w, states + j, count - j, level, out, bit0 + j);
  }
}

/// The 16-bit-lane body: 64 states per iteration, each output word built
/// in a register and written once, from a word-aligned @p bit0. Returns
/// how many states it packed, a multiple of 64; the caller packs the
/// tail.
std::size_t compare_pack16(const CompareWiring& w,
                           const std::uint32_t* states, std::size_t count,
                           std::uint32_t level, std::uint64_t* out,
                           std::size_t bit0) {
  const __m256i low16 = _mm256_set1_epi32(0xFFFF);
  const __m256i pre = _mm256_set1_epi16(static_cast<short>(w.pre_xor));
  const __m256i mask = _mm256_set1_epi16(static_cast<short>(w.mask));
  const __m256i mul = _mm256_set1_epi16(static_cast<short>(kScrambleMul));
  // The post-XOR also flips the sign bit, so the signed compare against
  // the flipped level is the unsigned x < level.
  const __m256i post =
      _mm256_set1_epi16(static_cast<short>(w.post_xor ^ 0x8000u));
  const __m256i lvl = _mm256_set1_epi16(static_cast<short>(level ^ 0x8000u));
  // x < 2^width, so at rot == 0 the right shift by width clears it and
  // the rotate needs no branch.
  const __m128i rot_l = _mm_cvtsi32_si128(static_cast<int>(w.rot));
  const __m128i rot_r = _mm_cvtsi32_si128(static_cast<int>(w.width - w.rot));
  // packus_epi32 and packs_epi16 interleave their operands per 128-bit
  // lane; this puts the 4-state byte groups back in state order.
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);

  // packus saturates, so each state is cut to its low 16 bits first.
  const auto lt16 = [&](const std::uint32_t* s) {  // 16 compare masks
    const __m256i a = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s)), low16);
    const __m256i b = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + 8)), low16);
    __m256i x = _mm256_xor_si256(_mm256_packus_epi32(a, b), pre);
    x = _mm256_and_si256(_mm256_mullo_epi16(x, mul), mask);
    x = _mm256_and_si256(_mm256_or_si256(_mm256_sll_epi16(x, rot_l),
                                         _mm256_srl_epi16(x, rot_r)),
                         mask);
    return _mm256_cmpgt_epi16(lvl, _mm256_xor_si256(x, post));
  };
  const auto bits32 = [&](const std::uint32_t* s) {  // 32 compare bits
    const __m256i b = _mm256_packs_epi16(lt16(s), lt16(s + 16));
    return static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_permutevar8x32_epi32(b, order)));
  };

  std::size_t j = 0;
  for (; j + 64 <= count; j += 64) {
    out[(bit0 + j) / 64] |=
        bits32(states + j) |
        (static_cast<std::uint64_t>(bits32(states + j + 32)) << 32);
  }
  return j;
}

void avx2_compare_pack(const CompareWiring& w, const std::uint32_t* states,
                       std::size_t count, std::uint32_t level,
                       std::uint64_t* out, std::size_t bit0) {
  // Every scrambler step is exact in 16-bit lanes when the wiring
  // scrambles at width <= 16: the multiply's low 16 bits depend only on
  // its operands' low 16 bits, and the mask, rotate, post-XOR and level
  // all stay below 2^16. StreamBank::fill packs from bit0 0.
  const bool lanes16 = !w.identity && w.width <= 16 &&
                       w.post_xor <= 0xFFFFu && level <= 0xFFFFu &&
                       bit0 % 64 == 0;
  const std::size_t j =
      lanes16 ? compare_pack16(w, states, count, level, out, bit0) : 0;
  compare_pack32(w, states + j, count - j, level, out, bit0 + j);
}

/// Words [w0, w0 + 4 * kRegs) of a gathered product group, OR-accumulated
/// in kRegs 256-bit registers.
template <std::size_t kRegs>
void avx2_gather_and_or_block(std::uint64_t* acc, const std::uint64_t* act,
                              const std::uint32_t* slot,
                              const std::uint64_t* ww, std::size_t n_ent,
                              std::size_t sw, std::size_t w0) {
  __m256i r[kRegs];
  for (std::size_t i = 0; i < kRegs; ++i) {
    r[i] = _mm256_setzero_si256();
  }
  for (std::size_t e = 0; e < n_ent; ++e) {
    const std::uint64_t* const x = act + slot[e] * sw + w0;
    const std::uint64_t* const y = ww + e * sw + w0;
    for (std::size_t i = 0; i < kRegs; ++i) {
      const __m256i vx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + 4 * i));
      const __m256i vy =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + 4 * i));
      r[i] = _mm256_or_si256(r[i], _mm256_and_si256(vx, vy));
    }
  }
  for (std::size_t i = 0; i < kRegs; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + w0 + 4 * i), r[i]);
  }
}

std::uint64_t avx2_gather_and_or_popcount(std::uint64_t* acc,
                                          const std::uint64_t* act,
                                          const std::uint32_t* slot,
                                          const std::uint64_t* ww,
                                          std::size_t n_ent, std::size_t sw) {
  std::size_t w0 = 0;
  for (; w0 + 8 <= sw; w0 += 8) {
    avx2_gather_and_or_block<2>(acc, act, slot, ww, n_ent, sw, w0);
  }
  if (w0 + 4 <= sw) {
    avx2_gather_and_or_block<1>(acc, act, slot, ww, n_ent, sw, w0);
    w0 += 4;
  }
  for (; w0 < sw; ++w0) {
    gather_and_or_block<1>(acc, act, slot, ww, n_ent, sw, w0);
  }
  return generic_popcount_words(acc, sw);
}

}  // namespace

namespace acoustic::sc::kernels::detail {

const KernelTable& avx2_table() noexcept {
  static const KernelTable table = {
      "avx2",
      Level::kAvx2,
      &avx2_compare_pack,
      &generic_and_words,
      &generic_or_words,
      &generic_xor_words,
      &generic_xnor_words,
      &generic_popcount_words,
      &generic_and_or_popcount,
      &avx2_gather_and_or_popcount,
      &generic_max_stream,
  };
  return table;
}

}  // namespace acoustic::sc::kernels::detail

#elif ACOUSTIC_KERNELS_X86_TABLES

// Built without -mavx2 -mpopcnt (unexpected on an x86 CMake build): keep
// the symbol defined; the scalar bodies produce the same bits.
namespace acoustic::sc::kernels::detail {
const KernelTable& avx2_table() noexcept { return scalar_table(); }
}  // namespace acoustic::sc::kernels::detail

#endif
