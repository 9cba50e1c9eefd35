// Binary instruction encoding.
//
// ACOUSTIC stores its program in an on-chip instruction memory (Fig. 2
// "ICode"); this module defines the 64-bit word format the Dispatcher
// would fetch, so instruction-memory footprints are measurable and
// programs can be shipped as binaries.
//
// Word layout (LSB first):
//   [3:0]   opcode
//   [5:4]   loop kind              (FOR/END)
//   [13:6]  barrier mask           (BARR)
//   [37:14] count                  (FOR trip count, 24 bits)
//   [39:38] operand exponent       (2 bits)
//   [63:40] operand mantissa       (24 bits; the operand, bytes or cycles,
//                                   is mantissa << (8 * exp), covering byte
//                                   counts up to about 2^48)
//
// Notes are not encoded (they are comments, not architecture).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "isa/program.hpp"

namespace acoustic::isa {

/// The largest FOR trip count the 24-bit count field holds.
inline constexpr std::uint64_t kMaxTripCount = (std::uint64_t{1} << 24) - 1;

/// How a bytes/cycles operand fits the mantissa/exponent operand field.
enum class OperandFit {
  kExact,     ///< some exponent represents it exactly
  kRounded,   ///< encode() rounds it up to the largest exponent's grid
  kOverflow,  ///< beyond the largest representable value: encode() throws
};
[[nodiscard]] OperandFit operand_fit(std::uint64_t value) noexcept;

/// The operand @p instr encodes: cycles for MAC and WGTSHIFT, bytes for
/// every other opcode.
[[nodiscard]] std::uint64_t operand_of(const Instruction& instr) noexcept;

/// Encodes one instruction. Throws std::invalid_argument when a field
/// exceeds the format (trip count above kMaxTripCount, or an operand
/// whose operand_fit is kOverflow).
[[nodiscard]] std::uint64_t encode(const Instruction& instr);

/// Decodes one word (note comes back empty).
[[nodiscard]] Instruction decode(std::uint64_t word);

/// Whole-program encode/decode.
[[nodiscard]] std::vector<std::uint64_t> encode(const Program& program);
[[nodiscard]] Program decode(std::span<const std::uint64_t> words);

/// Instruction-memory footprint of a program in bytes (8 per word).
[[nodiscard]] std::size_t encoded_size_bytes(const Program& program);

}  // namespace acoustic::isa
