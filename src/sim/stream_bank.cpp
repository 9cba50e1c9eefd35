#include "sim/stream_bank.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sc/sng.hpp"

namespace acoustic::sim {

StreamBank::StreamBank(unsigned width, std::uint32_t seed, std::size_t length,
                       bool decorrelate)
    : width_(width),
      mask_((width >= 32) ? ~std::uint32_t{0}
                          : ((std::uint32_t{1} << width) - 1)),
      decorrelate_(decorrelate),
      kt_(&sc::kernels::table()) {
  sc::Lfsr lfsr(width, seed);
  base_.resize(length);
  for (std::size_t t = 0; t < length; ++t) {
    base_[t] = lfsr.next();
  }
  // The first resize rejected a length past max_size(), so 2 * length
  // cannot wrap here.
  base_.resize(2 * length);
  std::copy_n(base_.begin(), length, base_.begin() + length);
}

sc::kernels::CompareWiring StreamBank::lane_wiring(
    std::uint32_t lane) const noexcept {
  sc::kernels::CompareWiring w;
  w.mask = mask_;
  w.width = width_;
  if (!decorrelate_) {
    w.identity = true;  // naive RNG sharing: all lanes see the same sequence
    return w;
  }
  // Fixed per-lane wiring: XOR a lane constant, multiply by an odd
  // constant (bijective mod 2^width), rotate by a lane-dependent amount,
  // XOR a second lane constant. Every step is a bijection of the state
  // space, so each lane sees a uniform full-period sequence; the multiply
  // diffuses low-order LFSR structure across all comparator bits, which
  // keeps lanes decorrelated enough for wide OR accumulation (II-B).
  w.pre_xor = (lane * 0x9E3779B9u) & mask_;
  w.post_xor = (lane * 0x85EBCA6Bu) & mask_;
  w.rot = (lane * 7u + 3u) % width_;
  return w;
}

std::uint32_t StreamBank::scramble(std::uint32_t state,
                                   std::uint32_t lane) const noexcept {
  return sc::kernels::scramble_state(lane_wiring(lane), state);
}

sc::BitStream StreamBank::stream(std::uint32_t level, std::uint32_t lane,
                                 std::size_t offset,
                                 std::size_t length) const {
  sc::BitStream out(length);
  fill(level, lane, offset, length, out.mutable_words());
  return out;
}

std::size_t StreamBank::lane_phase(std::uint32_t lane) const noexcept {
  if (!decorrelate_) {
    return 0;
  }
  // Each SNG taps the shared LFSR at a lane-specific delay (standard RNG
  // sharing practice): phase offsets break the remaining time alignment
  // between lanes that scrambling alone cannot.
  return (static_cast<std::size_t>(lane) * 7919u) % length();
}

void StreamBank::fill(std::uint32_t level, std::uint32_t lane,
                      std::size_t offset, std::size_t length,
                      std::span<std::uint64_t> words) const {
  const std::size_t n = this->length();
  if (length > n || offset > n - length) {
    throw std::out_of_range("StreamBank::fill: window of " +
                            std::to_string(length) + " bits at offset " +
                            std::to_string(offset) + " exceeds bank length " +
                            std::to_string(n));
  }
  const std::size_t word_count = (length + 63) / 64;
  if (words.size() < word_count) {
    throw std::invalid_argument(
        "StreamBank::fill: " + std::to_string(words.size()) +
        " words cannot hold a window of " + std::to_string(length) + " bits");
  }
  std::fill_n(words.begin(), word_count, 0);
  if (level == 0 || length == 0) {
    return;  // comparator never fires: all-zero stream
  }
  // The lane's tap starts inside the first copy of the sequence and the
  // window is at most one copy long, so it is one contiguous state run.
  const std::size_t pos = (offset + lane_phase(lane)) % n;
  kt_->compare_pack(lane_wiring(lane), base_.data() + pos, length, level,
                    words.data(), 0);
}

std::uint32_t StreamBank::quantize(double value) const {
  return sc::quantize_unipolar(value, width_);
}

}  // namespace acoustic::sim
