// Property suite for the SIMD kernel layer: every level the running CPU
// supports must be bit-identical to the scalar reference for every
// operation, including empty inputs, single bits, word boundaries and
// unaligned pack offsets. This is the contract that lets the dispatcher
// pick any level at startup without changing a single output bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sc/kernels/kernels.hpp"
#include "sc/rng.hpp"

namespace kn = acoustic::sc::kernels;

namespace {

/// Every level the host can execute (always includes scalar).
std::vector<kn::Level> supported_levels() {
  std::vector<kn::Level> out;
  for (const kn::Level level : {kn::Level::kScalar, kn::Level::kAvx2}) {
    if (kn::level_supported(level)) {
      out.push_back(level);
    }
  }
  return out;
}

std::vector<std::uint64_t> random_words(std::size_t n, std::uint32_t seed) {
  acoustic::sc::XorShift32 rng(seed);
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) {
    w = (static_cast<std::uint64_t>(rng.next()) << 32) | rng.next();
  }
  return words;
}

/// Packs the expected comparator bits from the reference scrambler's
/// outputs (scramble_state of each state) — the oracle every compare_pack
/// level is held to.
std::vector<std::uint64_t> expected_pack(
    const std::vector<std::uint32_t>& scrambled, std::uint32_t level,
    std::size_t bit0, std::size_t total_words) {
  std::vector<std::uint64_t> out(total_words, 0);
  for (std::size_t j = 0; j < scrambled.size(); ++j) {
    if (scrambled[j] < level) {
      const std::size_t bit = bit0 + j;
      out[bit / 64] |= std::uint64_t{1} << (bit % 64);
    }
  }
  return out;
}

}  // namespace

TEST(Kernels, ScalarAlwaysSupportedAndActiveLevelIsSupported) {
  EXPECT_TRUE(kn::level_supported(kn::Level::kScalar));
  EXPECT_TRUE(kn::level_supported(kn::active_level()));
  EXPECT_TRUE(kn::level_supported(kn::detect_best()));
  EXPECT_STREQ(kn::table().name, kn::level_name(kn::active_level()));
}

TEST(Kernels, ResolveLevelMapsRequestsWithoutEverSigilling) {
  const kn::Level best = kn::detect_best();
  EXPECT_EQ(kn::resolve_level(nullptr), best);
  EXPECT_EQ(kn::resolve_level(""), best);
  EXPECT_EQ(kn::resolve_level("native"), best);
  EXPECT_EQ(kn::resolve_level("no-such-isa"), best);
  EXPECT_EQ(kn::resolve_level("scalar"), kn::Level::kScalar);
  // AVX2 exactly when the CPU has it, otherwise the safe best fallback.
  EXPECT_EQ(kn::resolve_level("avx2"), kn::level_supported(kn::Level::kAvx2)
                                           ? kn::Level::kAvx2
                                           : best);
  // Retired and never-built levels are unknown names.
  for (const char* name : {"sse42", "neon", "avx512"}) {
    EXPECT_EQ(kn::resolve_level(name), best) << name;
  }
}

TEST(Kernels, ComparePackMatchesScalarReferenceEverywhere) {
  // Every width, rotations across each width, counts on both sides of the
  // 8-state groups and of the 64-state words the AVX2 level packs in
  // 16-bit lanes up to width 16 from a word-aligned bit0, and levels on
  // both sides of 2^16, where it hands over to its 32-bit body.
  const auto levels = supported_levels();
  acoustic::sc::XorShift32 rng(12345);
  for (unsigned width = 3; width <= 32; ++width) {
    const std::uint32_t mask =
        width >= 32 ? ~std::uint32_t{0} : ((std::uint32_t{1} << width) - 1);
    std::vector<kn::CompareWiring> wirings;
    kn::CompareWiring identity;
    identity.identity = true;
    identity.mask = mask;
    identity.width = width;
    wirings.push_back(identity);
    std::vector<unsigned> rotations;
    for (unsigned rot = 0; rot < width - 1; rot += std::max(1u, width / 4)) {
      rotations.push_back(rot);
    }
    rotations.push_back(width - 1);
    for (const unsigned rot : rotations) {
      kn::CompareWiring scrambled;
      scrambled.pre_xor = rng.next() & mask;
      scrambled.post_xor = rng.next() & mask;
      scrambled.rot = rot;
      scrambled.mask = mask;
      scrambled.width = width;
      wirings.push_back(scrambled);
    }
    // XOR constants with bits above the width: the pre-XOR's drop out
    // with the multiply's high bits, and the post-XOR's lift every output
    // of a narrow wiring above 2^16.
    kn::CompareWiring wide_xor = wirings.back();
    wide_xor.pre_xor = 0x9E3779B9u;
    wide_xor.post_xor = 0x85EBCA6Bu;
    wirings.push_back(wide_xor);
    for (const kn::CompareWiring& wiring : wirings) {
      for (const std::size_t count :
           {0, 1, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129,
            512, 1000}) {
        // Scrambled wirings see states with bits above the width, which
        // the scrambler's mask drops; the identity compares the raw state.
        std::vector<std::uint32_t> states(count);
        std::vector<std::uint32_t> scrambled(count);
        for (std::size_t j = 0; j < count; ++j) {
          states[j] = wiring.identity ? (rng.next() & mask) : rng.next();
          scrambled[j] = kn::scramble_state(wiring, states[j]);
        }
        for (const std::size_t bit0 :
             {std::size_t{0}, std::size_t{1}, std::size_t{37},
              std::size_t{63}, std::size_t{64}}) {
          const std::size_t total_words = (bit0 + count + 63) / 64 + 1;
          for (const std::uint32_t cmp_level :
               {std::uint32_t{0}, std::uint32_t{1}, (mask >> 1) + 1, mask,
                mask + 1, std::uint32_t{0xFFFF}, std::uint32_t{0x10000},
                std::uint32_t{0x12345}}) {
            const std::vector<std::uint64_t> want =
                expected_pack(scrambled, cmp_level, bit0, total_words);
            for (const kn::Level level : levels) {
              std::vector<std::uint64_t> got(total_words, 0);
              kn::table_for(level).compare_pack(wiring, states.data(),
                                               count, cmp_level, got.data(),
                                               bit0);
              ASSERT_EQ(got, want)
                  << kn::level_name(level) << " width=" << width
                  << " rot=" << wiring.rot << " pre=" << wiring.pre_xor
                  << " post=" << wiring.post_xor << " count=" << count
                  << " bit0=" << bit0 << " level=" << cmp_level
                  << " identity=" << wiring.identity;
            }
          }
        }
      }
    }
  }
}

TEST(Kernels, WordKernelsMatchScalarOnAllLengths) {
  const auto levels = supported_levels();
  const kn::KernelTable& ref = kn::table_for(kn::Level::kScalar);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{8}, std::size_t{16}, std::size_t{33}}) {
    const std::vector<std::uint64_t> a = random_words(n, 7u + n);
    const std::vector<std::uint64_t> b = random_words(n, 99u + n);
    const std::vector<std::uint64_t> acc0 = random_words(n, 1234u + n);

    std::vector<std::uint64_t> want_and(n), want_or(n), want_xor(n),
        want_xnor(n);
    ref.and_words(want_and.data(), a.data(), b.data(), n);
    ref.or_words(want_or.data(), a.data(), b.data(), n);
    ref.xor_words(want_xor.data(), a.data(), b.data(), n);
    ref.xnor_words(want_xnor.data(), a.data(), b.data(), n);
    const std::uint64_t want_pop = ref.popcount_words(a.data(), n);
    std::vector<std::uint64_t> want_fused = acc0;
    const std::uint64_t want_fused_pop =
        ref.and_or_popcount(want_fused.data(), a.data(), b.data(), n);

    for (const kn::Level level : levels) {
      const kn::KernelTable& kt = kn::table_for(level);
      std::vector<std::uint64_t> out(n, 0);
      kt.and_words(out.data(), a.data(), b.data(), n);
      EXPECT_EQ(out, want_and) << kn::level_name(level) << " n=" << n;
      out.assign(n, 0);
      kt.or_words(out.data(), a.data(), b.data(), n);
      EXPECT_EQ(out, want_or) << kn::level_name(level) << " n=" << n;
      out.assign(n, 0);
      kt.xor_words(out.data(), a.data(), b.data(), n);
      EXPECT_EQ(out, want_xor) << kn::level_name(level) << " n=" << n;
      out.assign(n, 0);
      kt.xnor_words(out.data(), a.data(), b.data(), n);
      EXPECT_EQ(out, want_xnor) << kn::level_name(level) << " n=" << n;
      EXPECT_EQ(kt.popcount_words(a.data(), n), want_pop)
          << kn::level_name(level) << " n=" << n;
      out = acc0;
      EXPECT_EQ(kt.and_or_popcount(out.data(), a.data(), b.data(), n),
                want_fused_pop)
          << kn::level_name(level) << " n=" << n;
      EXPECT_EQ(out, want_fused) << kn::level_name(level) << " n=" << n;

      // Aliased first operand (documented as allowed for the elementwise
      // ops): out == a must behave like a copy of a was read first.
      out = a;
      kt.xor_words(out.data(), out.data(), b.data(), n);
      EXPECT_EQ(out, want_xor)
          << kn::level_name(level) << " aliased n=" << n;
      out = a;
      kt.xnor_words(out.data(), out.data(), b.data(), n);
      EXPECT_EQ(out, want_xnor)
          << kn::level_name(level) << " aliased n=" << n;
    }
  }
}

TEST(Kernels, GatherAndOrPopcountMatchesNaiveLoop) {
  // The planned conv body's wide-segment group: every level against a
  // naive word loop, over segment widths on both sides of the 4- and
  // 8-word register blocks, with repeated and unordered slot indices.
  constexpr std::size_t kSlots = 7;
  for (const std::size_t sw : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                               std::size_t{4}, std::size_t{5}, std::size_t{8},
                               std::size_t{9}, std::size_t{16}}) {
    const std::vector<std::uint64_t> act = random_words(kSlots * sw, 5u + sw);
    for (const std::size_t n_ent :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
          std::size_t{31}}) {
      acoustic::sc::XorShift32 rng(static_cast<std::uint32_t>(97 * sw + n_ent));
      std::vector<std::uint32_t> slot(n_ent);
      for (auto& s : slot) {
        s = rng.next() % kSlots;  // repeats and any order
      }
      const std::vector<std::uint64_t> ww =
          random_words(n_ent * sw, static_cast<std::uint32_t>(31 * sw + n_ent));
      std::vector<std::uint64_t> want(sw, 0);
      std::uint64_t want_pop = 0;
      for (std::size_t w = 0; w < sw; ++w) {
        for (std::size_t e = 0; e < n_ent; ++e) {
          want[w] |= act[slot[e] * sw + w] & ww[e * sw + w];
        }
        want_pop += static_cast<std::uint64_t>(std::popcount(want[w]));
      }
      for (const kn::Level level : supported_levels()) {
        // Stale contents must not leak into the result: acc is overwritten.
        std::vector<std::uint64_t> acc = random_words(sw, 77u);
        const std::uint64_t got = kn::table_for(level).gather_and_or_popcount(
            acc.data(), act.data(), slot.data(), ww.data(), n_ent, sw);
        EXPECT_EQ(acc, want) << kn::level_name(level) << " sw=" << sw
                             << " n_ent=" << n_ent;
        EXPECT_EQ(got, want_pop) << kn::level_name(level) << " sw=" << sw
                                 << " n_ent=" << n_ent;
      }
    }
  }
}
