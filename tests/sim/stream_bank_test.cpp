#include "sim/stream_bank.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sc/correlation.hpp"

namespace acoustic::sim {
namespace {

TEST(StreamBank, DeterministicAcrossInstances) {
  StreamBank a(8, 42, 256);
  StreamBank b(8, 42, 256);
  EXPECT_EQ(a.stream(100, 3), b.stream(100, 3));
}

TEST(StreamBank, LanesProduceDifferentStreams) {
  StreamBank bank(8, 42, 512);
  EXPECT_NE(bank.stream(128, 0), bank.stream(128, 1));
}

TEST(StreamBank, LanesAreDecorrelated) {
  // The whole point of the per-lane scrambler: lanes fed by one shared
  // LFSR must still look independent to OR/AND gates (paper III-A RNG
  // sharing without breaking II-B accumulation).
  StreamBank bank(16, 0xACE1, 8192);
  const auto half = bank.quantize(0.5);
  for (std::uint32_t lane = 1; lane < 12; ++lane) {
    const double corr = sc::scc(bank.stream(half, 0), bank.stream(half, lane));
    EXPECT_LT(std::abs(corr), 0.15) << "lane " << lane;
  }
}

TEST(StreamBank, EncodedValueIsAccurate) {
  StreamBank bank(16, 7, 4096);
  for (double v : {0.1, 0.5, 0.9}) {
    for (std::uint32_t lane : {0u, 5u, 17u}) {
      const double got = bank.stream(bank.quantize(v), lane).value();
      EXPECT_NEAR(got, v, 0.04) << "v=" << v << " lane=" << lane;
    }
  }
}

TEST(StreamBank, OffsetSlicesAreSegmentsOfTheFullStream) {
  StreamBank bank(8, 9, 256);
  const sc::BitStream full = bank.stream(77, 4, 0, 256);
  const sc::BitStream seg = bank.stream(77, 4, 64, 32);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(seg.bit(i), full.bit(64 + i));
  }
}

TEST(StreamBank, OutOfRangeWindowThrows) {
  StreamBank bank(8, 1, 128);
  EXPECT_THROW((void)bank.stream(10, 0, 100, 64), std::out_of_range);
}

TEST(StreamBank, OverflowingWindowThrows) {
  // offset + length past SIZE_MAX wraps to a small sum; the check must
  // not be fooled by it.
  StreamBank bank(8, 1, 128);
  std::vector<std::uint64_t> words(4);
  const std::size_t huge = std::numeric_limits<std::size_t>::max() - 1;
  EXPECT_THROW(bank.fill(10, 0, 2, huge, words), std::out_of_range);
  EXPECT_THROW(bank.fill(10, 0, huge, 2, words), std::out_of_range);
  EXPECT_THROW(bank.fill(10, 0, 129, 0, words), std::out_of_range);
  EXPECT_THROW(bank.fill(10, 0, 0, 129, words), std::out_of_range);
  EXPECT_NO_THROW(bank.fill(10, 0, 0, 128, words));
  EXPECT_NO_THROW(bank.fill(10, 0, 128, 0, words));
}

TEST(StreamBank, ShortWordSpanThrows) {
  StreamBank bank(8, 1, 256);
  const std::uint64_t stale = 0x5A5A5A5A5A5A5A5Aull;
  std::vector<std::uint64_t> words(3, stale);
  EXPECT_THROW(bank.fill(100, 0, 0, 193, words), std::invalid_argument);
  EXPECT_THROW(bank.fill(100, 0, 10, 129, std::span(words).first(2)),
               std::invalid_argument);
  EXPECT_THROW(bank.fill(0, 0, 0, 1, std::span<std::uint64_t>()),
               std::invalid_argument);
  for (const std::uint64_t w : words) {
    EXPECT_EQ(w, stale);  // nothing written before the throw
  }
  EXPECT_NO_THROW(bank.fill(100, 0, 0, 192, words));
  EXPECT_NO_THROW(bank.fill(100, 0, 0, 0, std::span<std::uint64_t>()));
}

TEST(StreamBank, FillMatchesThePerBitDefinition) {
  // Bit t of fill(level, lane, offset, length) is
  // scramble(state_at(offset + t, lane), lane) < level, the expression
  // BipolarNetwork evaluates bit by bit. Widths on both sides of the
  // 16-bit kernel lanes, levels up to full scale, and lanes whose tap
  // delay carries the window across the end of the shared sequence.
  std::size_t crossing = 0;
  for (const unsigned width : {3u, 8u, 15u, 16u, 17u, 32u}) {
    const std::uint64_t full = std::uint64_t{1} << width;
    std::vector<std::uint32_t> levels;
    for (const std::uint64_t level :
         {std::uint64_t{0}, std::uint64_t{1}, full / 2, full - 1, full}) {
      if (level <= std::numeric_limits<std::uint32_t>::max()) {
        levels.push_back(static_cast<std::uint32_t>(level));
      }
    }
    for (const std::size_t n : {1, 64, 200, 256, 1024}) {
      const std::pair<std::size_t, std::size_t> windows[] = {
          {0, n}, {1, n - 1}, {n - 1, 1}, {n / 3, n - n / 3}, {n / 5, n / 2}};
      for (const bool decorrelate : {true, false}) {
        const StreamBank bank(width, 0xACE1u + width, n, decorrelate);
        for (std::uint32_t lane = 0; lane <= 600; lane += 37) {
          for (const auto& [offset, length] : windows) {
            crossing += (offset + bank.lane_phase(lane)) % n + length > n;
            for (const std::uint32_t level : levels) {
              std::vector<std::uint64_t> want((length + 63) / 64, 0);
              for (std::size_t t = 0; t < length; ++t) {
                if (bank.scramble(bank.state_at(offset + t, lane), lane) <
                    level) {
                  want[t / 64] |= std::uint64_t{1} << (t % 64);
                }
              }
              std::vector<std::uint64_t> got(want.size(), ~std::uint64_t{0});
              bank.fill(level, lane, offset, length, got);
              ASSERT_EQ(got, want)
                  << "width=" << width << " n=" << n
                  << " decorrelate=" << decorrelate << " lane=" << lane
                  << " offset=" << offset << " length=" << length
                  << " level=" << level;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(crossing, 0u);
}

TEST(StreamBank, FillMatchesStream) {
  StreamBank bank(10, 33, 512);
  const sc::BitStream s = bank.stream(400, 9, 64, 128);
  std::vector<std::uint64_t> words(2);
  bank.fill(400, 9, 64, 128, words);
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_EQ((words[i / 64] >> (i % 64)) & 1u,
              static_cast<std::uint64_t>(s.bit(i)));
  }
}

TEST(StreamBank, FillClearsStaleWords) {
  StreamBank bank(8, 5, 128);
  std::vector<std::uint64_t> words(2, ~std::uint64_t{0});
  bank.fill(0, 0, 0, 128, words);  // level 0: all zero
  EXPECT_EQ(words[0], 0u);
  EXPECT_EQ(words[1], 0u);
}

TEST(StreamBank, ScrambleIsBijectivePerLane) {
  // A bijection preserves the uniform state distribution, hence encoding
  // accuracy on every lane.
  StreamBank bank(8, 1, 8);
  for (std::uint32_t lane : {0u, 1u, 7u, 31u}) {
    std::set<std::uint32_t> image;
    for (std::uint32_t s = 0; s < 256; ++s) {
      image.insert(bank.scramble(s, lane));
    }
    EXPECT_EQ(image.size(), 256u) << "lane " << lane;
  }
}

TEST(StreamBank, ZeroLevelAlwaysZeroFullLevelAlwaysOne) {
  StreamBank bank(8, 77, 300);
  EXPECT_EQ(bank.stream(0, 3).count_ones(), 0u);
  EXPECT_EQ(bank.stream(256, 3).count_ones(), 300u);
}

}  // namespace
}  // namespace acoustic::sim
