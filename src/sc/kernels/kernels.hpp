// Centralized SIMD kernel layer for the packed-bitstream hot path.
//
// The loops of the SC functional simulator that touch packed 64-bit
// stream words through a shared body go through the function table
// defined here: comparator packing in sim::StreamBank::fill, the planned
// conv executor's wide-segment AND/OR product group, the stochastic max
// FSM of the max-pool node, and sc::BitStream's word ops and popcount
// (sc::xnor_multiply reaches xnor_words that way). The planned executor's
// 1-word AND/OR chain is inline in sim/sc_network.cpp, and the bipolar
// baseline evaluates its XNOR multiply bit by bit; neither calls the
// table.
//
// Dispatch model: two levels, the scalar reference and AVX2. The active
// level is detected once at startup from CPUID and can be overridden with
// ACOUSTIC_SIMD=scalar|avx2|native for A/B testing — "native" re-runs the
// detection. Requesting a level the CPU cannot execute, or a name that is
// not a level, prints one warning and falls back to the best supported
// level, so the override can never SIGILL.
//
// Correctness contract: the AVX2 level is bit-identical to the scalar
// reference for every input (tests/sc/kernels_test.cpp sweeps every
// supported level against scalar, including empty/one-bit/word-tail
// lengths), which is what keeps sc_golden_test and `acoustic eval
// --metrics` byte-identical across ACOUSTIC_SIMD settings.
#pragma once

#include <cstddef>
#include <cstdint>

namespace acoustic::sc::kernels {

/// Instruction-set levels the dispatcher can select.
enum class Level {
  kScalar,
  kAvx2,
};

/// Per-lane SNG scrambler wiring, mirrored from sim::StreamBank: the
/// comparator kernel applies XOR -> odd-multiply -> rotate -> XOR to the
/// shared LFSR state before the `< level` compare. identity models naive
/// RNG sharing (state passes through untouched).
struct CompareWiring {
  std::uint32_t pre_xor = 0;
  std::uint32_t post_xor = 0;
  std::uint32_t mask = 0xFFFFFFFFu;  ///< (1 << width) - 1 (all-ones at 32)
  unsigned rot = 0;                  ///< rotate amount, 0 <= rot < width
  unsigned width = 32;               ///< comparator width in bits
  bool identity = false;
};

/// The odd diffusion multiplier of the scrambler (bijective mod 2^width).
inline constexpr std::uint32_t kScrambleMul = 0x2545F491u;

/// Scalar reference scrambler — THE definition of the wiring every
/// compare_pack level must reproduce bit-for-bit (the vector levels apply
/// the same XOR/multiply/rotate/XOR per SIMD lane).
[[nodiscard]] inline std::uint32_t scramble_state(
    const CompareWiring& w, std::uint32_t state) noexcept {
  if (w.identity) {
    return state;
  }
  std::uint32_t x = state ^ w.pre_xor;
  x = (x * kScrambleMul) & w.mask;
  if (w.rot != 0) {
    x = ((x << w.rot) | (x >> (w.width - w.rot))) & w.mask;
  }
  return x ^ w.post_xor;
}

/// The kernel function table. All pointers are non-null for every level.
///
/// Word-span kernels follow one convention: `n` counts 64-bit words,
/// buffers do not alias unless stated, and tail bits beyond the logical
/// stream length are the caller's invariant (the kernels are pure word
/// operations).
struct KernelTable {
  /// Human-readable level tag ("scalar", "avx2").
  const char* name;
  Level level;

  /// Comparator packing: for j in [0, count), compute
  ///   bit = scramble(w, states[j]) < level
  /// and OR it into bit (bit0 + j) of the packed word buffer @p out.
  /// The destination bits [bit0, bit0 + count) must be pre-zeroed; words
  /// outside that range are never written. StreamBank::fill calls it once
  /// per window, at bit0 0, on one contiguous run of its stored sequence.
  void (*compare_pack)(const CompareWiring& w, const std::uint32_t* states,
                       std::size_t count, std::uint32_t level,
                       std::uint64_t* out, std::size_t bit0);

  /// out[i] = a[i] & b[i] (out may alias a).
  void (*and_words)(std::uint64_t* out, const std::uint64_t* a,
                    const std::uint64_t* b, std::size_t n);

  /// out[i] = a[i] | b[i] (out may alias a).
  void (*or_words)(std::uint64_t* out, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t n);

  /// out[i] = a[i] ^ b[i] (out may alias a).
  void (*xor_words)(std::uint64_t* out, const std::uint64_t* a,
                    const std::uint64_t* b, std::size_t n);

  /// out[i] = ~(a[i] ^ b[i]) — sc::xnor_multiply's bipolar product (out
  /// may alias a). Tail bits come out as 1 and must be cleared by the
  /// caller that owns the stream-length invariant (sc::BitStream does).
  void (*xnor_words)(std::uint64_t* out, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t n);

  /// Sum of set bits across n words.
  std::uint64_t (*popcount_words)(const std::uint64_t* words, std::size_t n);

  /// Fused product + count: acc[i] |= a[i] & b[i], returning the popcount
  /// of the updated acc words — the final product of an OR-accumulation
  /// chain folds its counter read into the same pass. No simulator path
  /// calls it; the kernel microbenches (`acoustic bench --suite kernels`,
  /// perfbench's sc.kernel.and_or_popcount) time the fused chain with it.
  std::uint64_t (*and_or_popcount)(std::uint64_t* acc, const std::uint64_t* a,
                                   const std::uint64_t* b, std::size_t n);

  /// One split-unipolar product group over segments of @p sw words,
  /// gathered and fused: for w < sw,
  ///   acc[w] = OR over e < n_ent of act[slot[e] * sw + w] & ww[e * sw + w]
  /// (acc is overwritten, not accumulated into), returning the popcount of
  /// acc[0, sw). The OR runs in registers; slot indices may repeat and come
  /// in any order. This is the planned conv body's wide-segment chain: a
  /// dead or padded slot holds zero activation words, so it needs no
  /// branch.
  std::uint64_t (*gather_and_or_popcount)(std::uint64_t* acc,
                                          const std::uint64_t* act,
                                          const std::uint32_t* slot,
                                          const std::uint64_t* ww,
                                          std::size_t n_ent, std::size_t sw);

  /// The stochastic maximum FSM over @p n_bits stream bits, as the circuit
  /// steps it bit-serially: with a running counter c starting at 0, bit t
  /// of @p out is a_t when c > 0 and b_t otherwise, then c += a_t - b_t.
  /// The body computes that word at a time: the counter moves only where
  /// a_t != b_t, so a word whose differing bits cannot flip the sign of c
  /// is copied whole. Every level registers the same portable body, so
  /// bit-identity across SIMD levels is structural, not tested luck.
  /// @p out may alias @p a (each word is read before it is written);
  /// input bits beyond n_bits are ignored and written as zero.
  void (*max_stream)(std::uint64_t* out, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t n_bits);
};

/// The table for @p level. Always safe to CALL table_for(kScalar); other
/// levels require hardware support (see level_supported) — the dispatcher
/// never hands out an unsupported table.
[[nodiscard]] const KernelTable& table_for(Level level) noexcept;

/// True when the running CPU can execute @p level. kScalar is always
/// true; kAvx2 needs an x86 build on a CPU with AVX2 and POPCNT.
[[nodiscard]] bool level_supported(Level level) noexcept;

/// Best level the running CPU supports (ignores the env override).
[[nodiscard]] Level detect_best() noexcept;

/// Maps an ACOUSTIC_SIMD-style request to the level the dispatcher would
/// activate: nullptr/""/"native"/unknown names resolve to detect_best();
/// a known level name resolves to that level when the CPU supports it and
/// falls back to detect_best() otherwise (the override can never SIGILL).
/// Pure — exposed separately from table() so tests can sweep it.
[[nodiscard]] Level resolve_level(const char* request) noexcept;

/// The process-wide active table: detect_best() unless ACOUSTIC_SIMD
/// selects otherwise. Resolved once on first call and cached.
[[nodiscard]] const KernelTable& table() noexcept;

/// Level of the active table.
[[nodiscard]] Level active_level() noexcept;

/// Tag string for @p level ("scalar", "avx2").
[[nodiscard]] const char* level_name(Level level) noexcept;

}  // namespace acoustic::sc::kernels
