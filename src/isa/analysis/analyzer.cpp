#include "isa/analysis/analyzer.hpp"

#include <string>
#include <vector>

#include "isa/encoding.hpp"

namespace acoustic::isa::analysis {

namespace {

std::size_t npos() { return static_cast<std::size_t>(-1); }

}  // namespace

Report analyze(const Program& program, const AnalyzerOptions& options) {
  Report report;
  const auto& instrs = program.instructions();
  const MachineLimits& limits = options.limits;
  const std::size_t n = instrs.size();

  // Backward pre-pass: for each index, whether any WGTRNG follows it, the
  // next MAC, and the next BARR covering the DMA unit. A DMA load is
  // "resident-intent" when the program synchronizes on it (BARR with the
  // DMA bit) before issuing any further MAC — only those loads must fit
  // on chip; streaming loads overlap compute double-buffered.
  std::vector<bool> wgtrng_after(n, false);
  std::vector<std::size_t> next_mac(n, npos());
  std::vector<std::size_t> next_dma_barr(n, npos());
  {
    bool seen_wgtrng = false;
    std::size_t mac_at = npos();
    std::size_t barr_at = npos();
    for (std::size_t i = n; i-- > 0;) {
      wgtrng_after[i] = seen_wgtrng;
      next_mac[i] = mac_at;
      next_dma_barr[i] = barr_at;
      const Instruction& instr = instrs[i];
      if (instr.op == Opcode::kWgtRng) {
        seen_wgtrng = true;
      } else if (instr.op == Opcode::kMac) {
        mac_at = i;
      } else if (instr.op == Opcode::kBarr &&
                 (instr.mask & unit_bit(Unit::kDma)) != 0) {
        barr_at = i;
      }
    }
  }

  struct LoopFrame {
    LoopKind kind;
    std::size_t index;
  };
  std::vector<LoopFrame> loops;

  bool seen_actrng = false;
  bool seen_wgtrng = false;
  bool scratchpad_written = false;  // ACTLD or CNTST so far
  bool counters_dirty = false;      // MAC since the last CNTST
  bool counters_fed = false;        // MAC or CNTLD since the last CNTST
  std::size_t unsynced_cntst = npos();  // CNTST with no BARR(CNT) yet

  for (std::size_t i = 0; i < n; ++i) {
    const Instruction& instr = instrs[i];

    // Operand representability in the 64-bit instruction word.
    if (instr.op != Opcode::kFor && instr.op != Opcode::kEnd &&
        instr.op != Opcode::kBarr) {
      const std::uint64_t operand = operand_of(instr);
      switch (operand_fit(operand)) {
        case OperandFit::kExact:
          break;
        case OperandFit::kRounded:
          report.add("operand-inexact", Severity::kWarning, i,
                     "operand " + std::to_string(operand) +
                         " is not exactly representable in the encoding's "
                         "mantissa/exponent format and would round up");
          break;
        case OperandFit::kOverflow:
          report.add("operand-range", Severity::kError, i,
                     "operand " + std::to_string(operand) +
                         " exceeds the instruction word's operand range");
          break;
      }
    }

    switch (instr.op) {
      case Opcode::kFor:
        if (instr.count == 0) {
          report.add("loop-trip-zero", Severity::kError, i,
                     "FOR with zero trip count (the dispatcher has no "
                     "zero-iteration path)");
        }
        if (instr.count > kMaxTripCount) {
          report.add("loop-trip-range", Severity::kError, i,
                     "trip count " + std::to_string(instr.count) +
                         " exceeds the encoding's 24-bit count field");
        }
        loops.push_back(LoopFrame{instr.loop, i});
        break;

      case Opcode::kEnd:
        if (loops.empty()) {
          report.add("loop-balance", Severity::kError, i,
                     std::string("END") + loop_suffix(instr.loop) +
                         " without an open FOR");
        } else if (loops.back().kind != instr.loop) {
          report.add("loop-balance", Severity::kError, i,
                     std::string("END") + loop_suffix(instr.loop) +
                         " closes FOR" + loop_suffix(loops.back().kind) +
                         " opened at #" + std::to_string(loops.back().index));
          loops.pop_back();
        } else {
          if (loops.back().index + 1 == i) {
            report.add("loop-empty", Severity::kWarning, loops.back().index,
                       "loop body is empty");
          }
          loops.pop_back();
        }
        break;

      case Opcode::kBarr:
        if (instr.mask == 0) {
          report.add("barr-noop", Severity::kWarning, i,
                     "barrier with an empty unit mask waits on nothing");
        }
        if ((instr.mask >> kUnitCount) != 0) {
          report.add("barr-unknown-unit", Severity::kWarning, i,
                     "barrier mask has bits beyond the defined units");
        }
        if ((instr.mask & unit_bit(Unit::kCnt)) != 0) {
          unsynced_cntst = npos();
        }
        break;

      case Opcode::kMac:
        if (!seen_actrng || !seen_wgtrng) {
          report.add("mac-uninit", Severity::kError, i,
                     std::string("MAC before any ") +
                         (!seen_actrng ? "ACTRNG" : "WGTRNG") +
                         " loaded the SNG buffers");
        }
        counters_dirty = true;
        counters_fed = true;
        break;

      case Opcode::kActRng:
        if (limits.has_dram && !scratchpad_written) {
          report.add("actrng-uninit", Severity::kWarning, i,
                     "ACTRNG reads the activation scratchpad before any "
                     "ACTLD or CNTST wrote it");
        }
        if (unsynced_cntst != npos()) {
          report.add("swap-unsync", Severity::kError, i,
                     "ACTRNG after the CNTST at #" +
                         std::to_string(unsynced_cntst) +
                         " with no barrier on the counter unit: the "
                         "scratchpad swap is unsynchronized");
        }
        seen_actrng = true;
        break;

      case Opcode::kWgtRng:
      case Opcode::kWgtShift:
        if (instr.op == Opcode::kWgtRng) {
          seen_wgtrng = true;
        }
        break;

      case Opcode::kCntLd:
        if (counters_dirty) {
          report.add("cnt-load-clobber", Severity::kError, i,
                     "CNTLD would overwrite MAC results not yet drained by "
                     "a CNTST");
        }
        counters_fed = true;
        break;

      case Opcode::kCntSt:
        if (!counters_fed) {
          report.add("cnt-store-empty", Severity::kWarning, i,
                     "CNTST with no MAC or CNTLD since the previous store "
                     "drains empty counters");
        }
        counters_dirty = false;
        counters_fed = false;
        scratchpad_written = true;
        unsynced_cntst = i;
        break;

      case Opcode::kActLd:
      case Opcode::kActSt:
      case Opcode::kWgtLd:
        if (!limits.has_dram) {
          report.add("dma-no-dram", Severity::kError, i,
                     mnemonic(instr.op) +
                         " on a configuration without external memory");
          break;
        }
        if (instr.op == Opcode::kActLd) {
          scratchpad_written = true;
        }
        if (instr.op == Opcode::kWgtLd && !wgtrng_after[i]) {
          report.add("wgt-dead-store", Severity::kWarning, i,
                     "weights are loaded but no later WGTRNG ever moves "
                     "them into SNG buffers");
        }
        // Address bounds for resident-intent loads.
        if (instr.op == Opcode::kActLd || instr.op == Opcode::kWgtLd) {
          const bool resident_intent = next_dma_barr[i] < next_mac[i];
          const std::uint64_t bound = instr.op == Opcode::kWgtLd
                                          ? limits.wgt_mem_bytes
                                          : limits.act_mem_bytes;
          if (resident_intent && bound > 0 && instr.bytes > bound) {
            report.add(instr.op == Opcode::kWgtLd ? "wgt-resident-overflow"
                                                  : "act-resident-overflow",
                       Severity::kError, i,
                       mnemonic(instr.op) + " of " +
                           std::to_string(instr.bytes) +
                           " bytes is synchronized before the next MAC but "
                           "exceeds the " +
                           std::to_string(bound) + "-byte memory");
          }
        }
        break;
    }
  }

  for (const LoopFrame& frame : loops) {
    report.add("loop-balance", Severity::kError, frame.index,
               std::string("FOR") + loop_suffix(frame.kind) +
                   " is never closed");
  }

  if (limits.inst_mem_bytes > 0) {
    const std::size_t bytes = n * sizeof(std::uint64_t);
    if (bytes > limits.inst_mem_bytes) {
      report.add("inst-mem-overflow", Severity::kWarning, kWholeProgram,
                 "encoded program (" + std::to_string(bytes) +
                     " bytes) exceeds the " +
                     std::to_string(limits.inst_mem_bytes) +
                     "-byte instruction memory");
    }
  }

  return report;
}

}  // namespace acoustic::isa::analysis
