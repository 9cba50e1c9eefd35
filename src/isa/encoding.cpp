#include "isa/encoding.hpp"

#include <stdexcept>

namespace acoustic::isa {

namespace {

constexpr std::uint64_t kOpcodeMask = 0xF;
constexpr unsigned kLoopShift = 4;
constexpr unsigned kMaskShift = 6;
constexpr unsigned kCountShift = 14;
constexpr unsigned kOperandShift = 38;
constexpr std::uint64_t kMantissaMax = (1ull << 24) - 1;
constexpr unsigned kMaxExp = 3;
/// The largest operand: the full mantissa at the largest exponent.
constexpr std::uint64_t kOperandMax = kMantissaMax << (8 * kMaxExp);

/// The smallest exponent at which @p value is exactly mantissa << (8*exp),
/// or kMaxExp + 1 when none is.
unsigned exact_exp(std::uint64_t value) {
  unsigned exp = 0;
  for (; exp <= kMaxExp; ++exp) {
    const unsigned shift = 8 * exp;
    if ((value >> shift) <= kMantissaMax &&
        ((value >> shift) << shift) == value) {
      break;
    }
  }
  return exp;
}

/// Packs an operand as mantissa(24) | exp(2), value = mantissa << (8*exp).
std::uint64_t pack_operand(std::uint64_t value) {
  const unsigned exp = exact_exp(value);
  if (exp <= kMaxExp) {
    return ((value >> (8 * exp)) << 2) | exp;
  }
  if (value > kOperandMax) {
    throw std::invalid_argument("isa::encode: operand too large");
  }
  // Round up to the representable grid at the largest exponent.
  const unsigned shift = 8 * kMaxExp;
  const std::uint64_t mantissa = (value + (1ull << shift) - 1) >> shift;
  return (mantissa << 2) | kMaxExp;
}

std::uint64_t unpack_operand(std::uint64_t packed) {
  const unsigned exp = static_cast<unsigned>(packed & 0x3);
  return (packed >> 2) << (8 * exp);
}

}  // namespace

OperandFit operand_fit(std::uint64_t value) noexcept {
  if (exact_exp(value) <= kMaxExp) {
    return OperandFit::kExact;
  }
  return value > kOperandMax ? OperandFit::kOverflow : OperandFit::kRounded;
}

std::uint64_t operand_of(const Instruction& instr) noexcept {
  return instr.op == Opcode::kMac || instr.op == Opcode::kWgtShift
             ? instr.cycles
             : instr.bytes;
}

std::uint64_t encode(const Instruction& instr) {
  std::uint64_t word = static_cast<std::uint64_t>(instr.op) & kOpcodeMask;
  word |= static_cast<std::uint64_t>(instr.loop) << kLoopShift;
  word |= static_cast<std::uint64_t>(instr.mask) << kMaskShift;
  if (instr.count > kMaxTripCount) {
    throw std::invalid_argument("isa::encode: trip count too large");
  }
  word |= static_cast<std::uint64_t>(instr.count) << kCountShift;
  word |= pack_operand(operand_of(instr)) << kOperandShift;
  return word;
}

Instruction decode(std::uint64_t word) {
  Instruction instr;
  instr.op = static_cast<Opcode>(word & kOpcodeMask);
  instr.loop = static_cast<LoopKind>((word >> kLoopShift) & 0x3);
  instr.mask = static_cast<std::uint8_t>((word >> kMaskShift) & 0xFF);
  instr.count =
      static_cast<std::uint32_t>((word >> kCountShift) & kMaxTripCount);
  const std::uint64_t operand = unpack_operand(word >> kOperandShift);
  if (instr.op == Opcode::kMac || instr.op == Opcode::kWgtShift) {
    instr.cycles = operand;
  } else {
    instr.bytes = operand;
  }
  return instr;
}

std::vector<std::uint64_t> encode(const Program& program) {
  std::vector<std::uint64_t> words;
  words.reserve(program.size());
  for (const Instruction& instr : program.instructions()) {
    words.push_back(encode(instr));
  }
  return words;
}

Program decode(std::span<const std::uint64_t> words) {
  Program program;
  for (std::uint64_t word : words) {
    program.push(decode(word));
  }
  return program;
}

std::size_t encoded_size_bytes(const Program& program) {
  return program.size() * sizeof(std::uint64_t);
}

}  // namespace acoustic::isa
