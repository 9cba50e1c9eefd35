// Property-based / fuzz tests across module boundaries: randomized inputs
// exercising invariants no example-based test pins down.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/check.hpp"
#include "core/accelerator.hpp"
#include "core/cli.hpp"
#include "isa/analysis/analyzer.hpp"
#include "isa/assembler.hpp"
#include "isa/encoding.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/pool.hpp"
#include "nn/quantize.hpp"
#include "nn/residual.hpp"
#include "obs/span.hpp"
#include "perf/codegen.hpp"
#include "runtime/thread_pool.hpp"
#include "sc/gates.hpp"
#include "sc/kernels/kernels.hpp"
#include "sc/rng.hpp"
#include "sc/sng.hpp"
#include "sim/backend.hpp"
#include "sim/op_graph.hpp"
#include "sim/sc_network.hpp"
#include "sim/stream_bank.hpp"

namespace acoustic {
namespace {

// ---------------------------------------------------------------------
// Bitstream algebra laws on random streams.
// ---------------------------------------------------------------------

class StreamAlgebraTest : public ::testing::TestWithParam<std::uint32_t> {};

sc::BitStream random_stream(std::uint32_t seed, std::size_t len = 512) {
  sc::XorShift32 rng(seed);
  sc::BitStream s(len);
  for (std::size_t i = 0; i < len; ++i) {
    s.set_bit(i, rng.next() & 1u);
  }
  return s;
}

TEST_P(StreamAlgebraTest, DeMorganHolds) {
  const sc::BitStream a = random_stream(GetParam());
  const sc::BitStream b = random_stream(GetParam() * 31 + 7);
  EXPECT_EQ(~(a & b), (~a | ~b));
  EXPECT_EQ(~(a | b), (~a & ~b));
}

TEST_P(StreamAlgebraTest, AndOrAbsorption) {
  const sc::BitStream a = random_stream(GetParam() ^ 0x5555);
  const sc::BitStream b = random_stream(GetParam() * 101 + 3);
  EXPECT_EQ((a & (a | b)), a);
  EXPECT_EQ((a | (a & b)), a);
}

TEST_P(StreamAlgebraTest, XorIsAddWithoutCarry) {
  const sc::BitStream a = random_stream(GetParam() + 1);
  const sc::BitStream b = random_stream(GetParam() * 7 + 13);
  EXPECT_EQ((a ^ b).count_ones() + 2 * (a & b).count_ones(),
            a.count_ones() + b.count_ones());
}

TEST_P(StreamAlgebraTest, ConcatCountsAdd) {
  sc::BitStream a = random_stream(GetParam() + 17, 100);
  const sc::BitStream b = random_stream(GetParam() + 18, 77);
  const std::size_t total = a.count_ones() + b.count_ones();
  a.append(b);
  EXPECT_EQ(a.count_ones(), total);
  EXPECT_EQ(a.size(), 177u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamAlgebraTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1000u, 77777u));

// ---------------------------------------------------------------------
// Assembler/analyzer fuzz: random *well-formed* programs — well-formed in
// the static analyzer's sense, not just loop-balanced — must round-trip
// through text and binary encodings and lint clean throughout.
// ---------------------------------------------------------------------

/// Generates a random program that maintains every analyzer invariant:
/// the SNG buffers and scratchpad are initialized before use, counter
/// loads/stores are ordered, scratchpad swaps are barriered, weight loads
/// are eventually consumed, loops are balanced and non-empty, and every
/// operand is exactly encodable (< 2^24).
isa::Program random_program(std::uint32_t seed) {
  sc::XorShift32 rng(seed);
  isa::Program p;
  // Prologue: load and synchronize inputs, fill both SNG buffers.
  p.act_ld(1 + rng.next() % 100000, "input");
  p.wgt_ld(1 + rng.next() % 100000, "weights");
  p.barrier(isa::unit_bit(isa::Unit::kDma), "resident");
  p.act_rng(1 + rng.next() % 10000);
  p.wgt_rng(1 + rng.next() % 10000);

  std::vector<isa::LoopKind> open;   // kinds of open loops
  std::vector<bool> body_nonempty;   // per open loop
  bool counters_dirty = false;       // MAC since last CNTST
  bool counters_fed = false;         // MAC/CNTLD since last CNTST
  bool swap_unsynced = false;        // CNTST with no CNT barrier yet
  int pending_wgt_loads = 0;         // WGTLDs with no later WGTRNG yet

  const auto mark_body = [&] {
    if (!body_nonempty.empty()) {
      body_nonempty.back() = true;
    }
  };

  const int length = 5 + static_cast<int>(rng.next() % 40);
  for (int i = 0; i < length; ++i) {
    switch (rng.next() % 12) {
      case 0:
        p.act_ld(1 + rng.next() % 100000, "n" + std::to_string(i));
        mark_body();
        break;
      case 1:
        p.act_st(1 + rng.next() % 100000);
        mark_body();
        break;
      case 2:
        p.wgt_ld(1 + rng.next() % 100000);
        ++pending_wgt_loads;
        mark_body();
        break;
      case 3:
        p.mac(1 + rng.next() % 4096);
        counters_dirty = true;
        counters_fed = true;
        mark_body();
        break;
      case 4:
        if (swap_unsynced) {
          p.barrier(isa::unit_bit(isa::Unit::kCnt), "swap sync");
          swap_unsynced = false;
        }
        p.act_rng(1 + rng.next() % 10000);
        mark_body();
        break;
      case 5:
        p.wgt_rng(1 + rng.next() % 10000);
        pending_wgt_loads = 0;  // a WGTRNG retires every earlier WGTLD
        mark_body();
        break;
      case 6:
        if (counters_fed) {
          p.cnt_st(1 + rng.next() % 10000);
          counters_dirty = false;
          counters_fed = false;
          swap_unsynced = true;
        } else if (!counters_dirty) {
          p.cnt_ld(1 + rng.next() % 10000, "preload");
          counters_fed = true;
        }
        mark_body();
        break;
      case 7: {
        std::uint8_t mask =
            static_cast<std::uint8_t>(1 + rng.next() % 63);  // bits 0..5
        p.barrier(mask, "b" + std::to_string(i));
        if (mask & isa::unit_bit(isa::Unit::kCnt)) {
          swap_unsynced = false;
        }
        mark_body();
        break;
      }
      case 8:
        p.loop_begin(static_cast<isa::LoopKind>(rng.next() % 4),
                     1 + rng.next() % 16);
        mark_body();
        open.push_back(p[p.size() - 1].loop);
        body_nonempty.push_back(false);
        break;
      case 9:
        if (!open.empty()) {
          if (!body_nonempty.back()) {
            p.wgt_shift(1 + rng.next() % 8);  // avoid an empty body
          }
          p.loop_end(open.back());
          open.pop_back();
          body_nonempty.pop_back();
        } else {
          p.wgt_shift(1 + rng.next() % 8);
        }
        break;
      default:
        p.wgt_shift(1 + rng.next() % 8);
        mark_body();
        break;
    }
  }
  // Coda: close open loops and consume pending weight loads.
  while (!open.empty()) {
    if (!body_nonempty.back()) {
      p.wgt_shift(1);
    }
    p.loop_end(open.back());
    open.pop_back();
    body_nonempty.pop_back();
  }
  if (pending_wgt_loads > 0) {
    p.wgt_rng(1 + rng.next() % 10000, "retire weight loads");
  }
  return p;
}

class AssemblerFuzzTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(AssemblerFuzzTest, RandomProgramsRoundTrip) {
  const isa::Program original = random_program(GetParam());
  ASSERT_NO_THROW(original.validate());
  const isa::Program reparsed = isa::parse(isa::format(original));
  ASSERT_EQ(reparsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reparsed[i], original[i]) << "instruction " << i;
    EXPECT_EQ(reparsed[i].note, original[i].note) << "note " << i;
  }
}

TEST_P(AssemblerFuzzTest, RandomProgramsLintClean) {
  const isa::Program p = random_program(GetParam());
  const isa::analysis::Report report = isa::analysis::analyze(p);
  EXPECT_TRUE(report.clean()) << report.to_string(&p);
}

TEST_P(AssemblerFuzzTest, LintCleanProgramsSurviveEncodeDecode) {
  // assemble -> analyze -> encode -> decode: a lint-clean program encodes
  // without throwing (the analyzer subsumes the encoder's range checks),
  // decodes to the same instructions, and the decoded form lints clean
  // again.
  const isa::Program original = random_program(GetParam());
  ASSERT_TRUE(isa::analysis::analyze(original).clean());
  std::vector<std::uint64_t> words;
  ASSERT_NO_THROW(words = isa::encode(original));
  const isa::Program decoded = isa::decode(words);
  ASSERT_EQ(decoded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(decoded[i], original[i]) << "instruction " << i;
  }
  const isa::analysis::Report report = isa::analysis::analyze(decoded);
  EXPECT_TRUE(report.clean()) << report.to_string(&decoded);
}

/// Rebuilds a Program from a mutated instruction vector.
isa::Program rebuild(std::vector<isa::Instruction> instrs) {
  isa::Program p;
  for (auto& instr : instrs) {
    p.push(std::move(instr));
  }
  return p;
}

TEST_P(AssemblerFuzzTest, BreakingMutationsAreFlagged) {
  // Single-instruction mutations that violate an invariant must be caught
  // by the analyzer (never silently accepted).
  const isa::Program original = random_program(GetParam());
  const auto& instrs = original.instructions();

  for (std::size_t i = 0; i < instrs.size(); ++i) {
    if (instrs[i].op == isa::Opcode::kFor) {
      // Zeroing a trip count.
      auto mutated = instrs;
      mutated[i].count = 0;
      EXPECT_TRUE(isa::analysis::analyze(rebuild(mutated))
                      .has_rule("loop-trip-zero"));
      break;
    }
  }
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    if (instrs[i].op == isa::Opcode::kEnd) {
      // Deleting an END unbalances the loop.
      auto mutated = instrs;
      mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(i));
      EXPECT_TRUE(isa::analysis::analyze(rebuild(mutated))
                      .has_rule("loop-balance"));
      break;
    }
  }
  {
    // Prepending a MAC puts compute before the SNG loads.
    auto mutated = instrs;
    isa::Instruction mac;
    mac.op = isa::Opcode::kMac;
    mac.cycles = 16;
    mutated.insert(mutated.begin(), mac);
    EXPECT_TRUE(
        isa::analysis::analyze(rebuild(mutated)).has_rule("mac-uninit"));
  }
  {
    // Blowing up an operand beyond the encoding range.
    auto mutated = instrs;
    mutated[0].bytes = 1ull << 52;
    EXPECT_TRUE(
        isa::analysis::analyze(rebuild(mutated)).has_rule("operand-range"));
  }
}

TEST_P(AssemblerFuzzTest, NeutralMutationsStayClean) {
  // Mutations that preserve the invariants must not introduce findings:
  // notes are not architectural, and resizing a transfer to another
  // exactly-encodable size changes nothing structural.
  const isa::Program original = random_program(GetParam());
  sc::XorShift32 rng(GetParam() * 977 + 5);
  auto mutated = original.instructions();
  for (auto& instr : mutated) {
    instr.note = "relabeled";
    if (instr.op == isa::Opcode::kActLd || instr.op == isa::Opcode::kActSt) {
      instr.bytes = 1 + rng.next() % 100000;
    }
  }
  const isa::analysis::Report report =
      isa::analysis::analyze(rebuild(mutated));
  EXPECT_TRUE(report.clean()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssemblerFuzzTest,
                         ::testing::Range(1u, 21u));

// ---------------------------------------------------------------------
// Performance-model properties across the whole zoo.
// ---------------------------------------------------------------------

TEST(PerfProperties, LatencyMonotoneInClockUntilMemoryBound) {
  // Raising the clock never *increases* latency.
  for (const auto& net : nn::table3_workloads()) {
    double prev = 1e30;
    for (double mhz : {100.0, 200.0, 400.0, 800.0}) {
      perf::ArchConfig arch = perf::lp();
      arch.clock_mhz = mhz;
      const core::Accelerator accel(arch);
      const double latency = accel.run(net).latency_s;
      EXPECT_LE(latency, prev * 1.001) << net.name << " @ " << mhz;
      prev = latency;
    }
  }
}

TEST(PerfProperties, FasterDramNeverHurts) {
  for (const auto& net : {nn::alexnet(), nn::vgg16()}) {
    double prev = 1e30;
    for (const perf::DramSpec& dram : perf::figure4_interfaces()) {
      perf::ArchConfig arch = perf::lp();
      arch.dram = dram;
      const core::Accelerator accel(arch);
      const double latency = accel.run(net).latency_s;
      EXPECT_LE(latency, prev * 1.001) << net.name << " on " << dram.name;
      prev = latency;
    }
  }
}

TEST(PerfProperties, ShorterStreamsAreFasterAndCheaper) {
  for (const auto& net : nn::table3_workloads()) {
    perf::ArchConfig fast = perf::lp();
    fast.stream_length = 128;
    perf::ArchConfig slow = perf::lp();
    slow.stream_length = 512;
    const double fast_lat = core::Accelerator(fast).run(net).latency_s;
    const double slow_lat = core::Accelerator(slow).run(net).latency_s;
    EXPECT_LT(fast_lat, slow_lat) << net.name;
    const double fast_e =
        core::Accelerator(fast).run(net).on_chip_energy_j;
    const double slow_e =
        core::Accelerator(slow).run(net).on_chip_energy_j;
    EXPECT_LT(fast_e, slow_e) << net.name;
  }
}

TEST(PerfProperties, BiggerFabricNeverSlowerOnZoo) {
  for (const auto& net : nn::table3_workloads()) {
    perf::ArchConfig small = perf::lp();
    small.rows = 16;
    perf::ArchConfig big = perf::lp();
    big.rows = 64;
    const double small_lat = core::Accelerator(small).run(net).latency_s;
    const double big_lat = core::Accelerator(big).run(net).latency_s;
    EXPECT_LE(big_lat, small_lat * 1.01) << net.name;
  }
}

TEST(PerfProperties, EveryZooProgramTerminatesAndBalances) {
  for (const auto& net :
       {nn::lenet5(), nn::cifar10_cnn(), nn::alexnet(), nn::vgg16(),
        nn::resnet18()}) {
    const perf::CodegenResult r = perf::generate_program(net, perf::lp());
    EXPECT_NO_THROW(r.program.validate()) << net.name;
    const perf::PerfResult perf = perf::simulate(r.program, perf::lp());
    EXPECT_GT(perf.total_cycles, 0u) << net.name;
    // MAC work must match the mapping totals exactly.
    std::uint64_t expected_mac = 0;
    for (const auto& m : r.mappings) {
      expected_mac += m.mac_cycles;
    }
    EXPECT_EQ(perf.unit(isa::Unit::kMac).busy_cycles, expected_mac)
        << net.name;
  }
}

// ---------------------------------------------------------------------
// Quantization properties on random tensors.
// ---------------------------------------------------------------------

class QuantizeFuzzTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(QuantizeFuzzTest, ErrorBoundedByHalfStep) {
  sc::XorShift32 rng(GetParam());
  std::vector<float> values(200);
  for (float& v : values) {
    v = static_cast<float>(rng.next_double() * 4.0 - 2.0);
  }
  std::vector<float> original = values;
  const float scale = nn::fake_quantize(values, 8);
  const float step = scale / 127.0f;
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_LE(std::fabs(values[i] - original[i]), step / 2 + 1e-6f);
    EXPECT_LE(std::fabs(values[i]), scale + 1e-6f);
  }
}

TEST_P(QuantizeFuzzTest, Idempotent) {
  sc::XorShift32 rng(GetParam() * 3 + 1);
  std::vector<float> values(64);
  for (float& v : values) {
    v = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  }
  const float scale = nn::fake_quantize(values, 8);
  std::vector<float> again = values;
  (void)nn::fake_quantize(again, 8, scale);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(again[i], values[i], 1e-6f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantizeFuzzTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ---------------------------------------------------------------------
// OR algebra on random value sets.
// ---------------------------------------------------------------------

class OrPropertyTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(OrPropertyTest, OrExpectedBounds) {
  sc::XorShift32 rng(GetParam() * 7919);
  std::vector<double> values(1 + rng.next() % 64);
  double max_v = 0.0;
  double sum = 0.0;
  for (double& v : values) {
    v = rng.next_double() * 0.2;
    max_v = std::max(max_v, v);
    sum += v;
  }
  const double expected = sc::or_expected(values);
  // OR lies between the max input and the (capped) sum.
  EXPECT_GE(expected, max_v - 1e-12);
  EXPECT_LE(expected, std::min(1.0, sum) + 1e-12);
  // And the Eq. (1) approximation never exceeds 1 nor goes negative.
  const double approx = sc::or_approximation(sum);
  EXPECT_GE(approx, 0.0);
  EXPECT_LE(approx, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrPropertyTest, ::testing::Range(1u, 13u));

}  // namespace
}  // namespace acoustic

// ---------------------------------------------------------------------
// Figure-4 shape as an invariant: DDR3 latency flattens (memory-bound)
// while HBM keeps scaling with clock on the paper's conv workload.
// ---------------------------------------------------------------------

namespace acoustic {
namespace {

TEST(Figure4Shape, Ddr3FlattensHbmScales) {
  nn::LayerDesc layer;
  layer.kind = nn::OpKind::kConv2D;
  layer.label = "fig4";
  layer.in_h = 16;
  layer.in_w = 16;
  layer.in_c = 512;
  layer.kernel = 3;
  layer.padding = 1;
  layer.out_c = 512;

  const auto latency_at = [&](const perf::DramSpec& dram, double mhz) {
    perf::ArchConfig arch = perf::lp();
    arch.clock_mhz = mhz;
    arch.dram = dram;
    const perf::LayerMapping m = perf::map_layer(layer, arch, true, true);
    const isa::Program prog = perf::generate_layer_program(
        layer, arch, m, layer.weight_count(), true, true);
    return perf::simulate(prog, arch).latency_s;
  };

  // DDR3-800 is memory-bound by 500 MHz: doubling the clock changes
  // latency by < 2%.
  const double d800_500 = latency_at(perf::ddr3_800(), 500.0);
  const double d800_1000 = latency_at(perf::ddr3_800(), 1000.0);
  EXPECT_NEAR(d800_1000 / d800_500, 1.0, 0.02);

  // HBM stays compute-bound: doubling the clock nearly halves latency.
  const double hbm_500 = latency_at(perf::hbm(), 500.0);
  const double hbm_1000 = latency_at(perf::hbm(), 1000.0);
  EXPECT_LT(hbm_1000 / hbm_500, 0.62);

  // At low clocks all interfaces are compute-bound and agree closely.
  const double d800_100 = latency_at(perf::ddr3_800(), 100.0);
  const double hbm_100 = latency_at(perf::hbm(), 100.0);
  EXPECT_NEAR(d800_100 / hbm_100, 1.0, 0.35);
}

// ---------------------------------------------------------------------
// Stochastic max FSM (sc::kernels max_stream) properties on random and
// bank-generated streams.
// ---------------------------------------------------------------------

class MaxStreamTest : public ::testing::TestWithParam<std::uint32_t> {};

/// The specification max_stream is held to: the FSM stepped one bit at a
/// time, as the circuit does. With a running counter c starting at 0, out
/// bit t is a_t when c > 0 and b_t otherwise, then c += a_t - b_t. Bits
/// beyond n_bits are never read, and come out zero in the last word.
void bit_serial_max(std::uint64_t* out, const std::uint64_t* a,
                    const std::uint64_t* b, std::size_t n_bits) {
  std::int64_t c = 0;
  std::size_t bit = 0;
  for (std::size_t w = 0; bit < n_bits; ++w) {
    const std::uint64_t aw = a[w];
    const std::uint64_t bw = b[w];
    const std::size_t chunk = std::min<std::size_t>(64, n_bits - bit);
    std::uint64_t ow = 0;
    for (std::size_t t = 0; t < chunk; ++t) {
      const std::int64_t ab = static_cast<std::int64_t>((aw >> t) & 1u);
      const std::int64_t bb = static_cast<std::int64_t>((bw >> t) & 1u);
      ow |= static_cast<std::uint64_t>(c > 0 ? ab : bb) << t;
      c += ab - bb;
    }
    out[w] = ow;
    bit += chunk;
  }
}

/// @p n_words words whose bits are independently set with probability
/// @p p — including the bits past any stream length the caller picks.
std::vector<std::uint64_t> bernoulli_words(std::size_t n_words, double p,
                                           sc::XorShift32& rng) {
  std::vector<std::uint64_t> words(n_words, 0);
  for (std::uint64_t& w : words) {
    for (unsigned t = 0; t < 64; ++t) {
      if (rng.next_double() < p) {
        w |= std::uint64_t{1} << t;
      }
    }
  }
  return words;
}

TEST_P(MaxStreamTest, EveryLevelMatchesBitSerialSpecification) {
  // Equal densities keep the counter hovering near zero, so the body must
  // walk differing bits one by one; an all-zero or strongly skewed input
  // drives it into whole-word copies. Input bits beyond n_bits are set
  // at random (and, in the second pass, all set) and must not reach the
  // output.
  const std::pair<double, double> densities[] = {
      {0.5, 0.5}, {0.2, 0.2}, {0.0, 0.6}, {0.6, 0.0},
      {0.0, 0.0}, {0.02, 0.98}, {0.98, 0.02}, {0.3, 0.7}};
  sc::XorShift32 rng(GetParam() * 2654435761u + 1u);
  for (const auto& [pa, pb] : densities) {
    for (const std::size_t n_bits :
         {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
          std::size_t{100}, std::size_t{512}, std::size_t{1000},
          std::size_t{4096}}) {
      const std::size_t n_words = (n_bits + 63) / 64;
      std::vector<std::uint64_t> a = bernoulli_words(n_words, pa, rng);
      std::vector<std::uint64_t> b = bernoulli_words(n_words, pb, rng);
      for (const bool tail_ones : {false, true}) {
        if (tail_ones && n_bits % 64 != 0) {
          a.back() |= ~std::uint64_t{0} << (n_bits % 64);
          b.back() |= ~std::uint64_t{0} << (n_bits % 64);
        }
        std::vector<std::uint64_t> want(n_words);
        bit_serial_max(want.data(), a.data(), b.data(), n_bits);
        const std::string label = "pa=" + std::to_string(pa) +
                                  " pb=" + std::to_string(pb) +
                                  " n_bits=" + std::to_string(n_bits) +
                                  " tail_ones=" + std::to_string(tail_ones);
        for (const auto level :
             {sc::kernels::Level::kScalar, sc::kernels::Level::kAvx2}) {
          if (!sc::kernels::level_supported(level)) {
            continue;
          }
          const sc::kernels::KernelTable& kt = sc::kernels::table_for(level);
          std::vector<std::uint64_t> got(n_words, ~std::uint64_t{0});
          kt.max_stream(got.data(), a.data(), b.data(), n_bits);
          EXPECT_EQ(got, want) << kt.name << " " << label;
          if (n_bits % 64 != 0) {
            EXPECT_EQ(got.back() >> (n_bits % 64), 0u)
                << kt.name << " " << label;
          }
          std::vector<std::uint64_t> aliased = a;  // out == a
          kt.max_stream(aliased.data(), aliased.data(), b.data(), n_bits);
          EXPECT_EQ(aliased, want) << kt.name << " aliased " << label;
        }
      }
    }
  }
}

TEST_P(MaxStreamTest, IdempotentOnAnyStream) {
  // a == b keeps the FSM counter pinned at zero, so out bit t = b_t = a_t.
  const sc::BitStream a = random_stream(GetParam() + 211);
  std::vector<std::uint64_t> out(a.words().size());
  sc::kernels::table().max_stream(out.data(), a.words().data(),
                                  a.words().data(), a.size());
  for (std::size_t w = 0; w < out.size(); ++w) {
    EXPECT_EQ(out[w], a.words()[w]) << "word " << w;
  }
}

TEST_P(MaxStreamTest, OutputBoundedByAndAndOr) {
  // Every output bit is copied from a or from b, so bitwise
  // (a AND b) <= out <= (a OR b) — the stochastic max can never invent a
  // one both inputs lack, nor drop a one both inputs carry.
  const sc::BitStream a = random_stream(GetParam() + 223);
  const sc::BitStream b = random_stream(GetParam() * 13 + 227);
  std::vector<std::uint64_t> out(a.words().size());
  sc::kernels::table().max_stream(out.data(), a.words().data(),
                                  b.words().data(), a.size());
  for (std::size_t w = 0; w < out.size(); ++w) {
    const std::uint64_t both = a.words()[w] & b.words()[w];
    const std::uint64_t either = a.words()[w] | b.words()[w];
    EXPECT_EQ(out[w] & both, both) << "word " << w;
    EXPECT_EQ(out[w] & ~either, 0u) << "word " << w;
  }
}

TEST_P(MaxStreamTest, EverySimdLevelMatchesScalar) {
  // The FSM is registered as the same portable body at every level; pin
  // that down so a per-ISA max cannot silently fork behavior.
  const sc::BitStream a = random_stream(GetParam() + 229);
  const sc::BitStream b = random_stream(GetParam() * 7 + 233);
  std::vector<std::uint64_t> want(a.words().size());
  sc::kernels::table_for(sc::kernels::Level::kScalar)
      .max_stream(want.data(), a.words().data(), b.words().data(), a.size());
  if (sc::kernels::level_supported(sc::kernels::Level::kAvx2)) {
    std::vector<std::uint64_t> got(a.words().size());
    sc::kernels::table_for(sc::kernels::Level::kAvx2)
        .max_stream(got.data(), a.words().data(), b.words().data(), a.size());
    EXPECT_EQ(got, want);
  }
}

TEST_P(MaxStreamTest, TailBitsBeyondLengthAreZero) {
  const std::size_t n_bits = 100;  // partial last word
  const sc::BitStream a = random_stream(GetParam() + 239, n_bits);
  const sc::BitStream b = random_stream(GetParam() + 241, n_bits);
  std::vector<std::uint64_t> out(a.words().size(), ~std::uint64_t{0});
  sc::kernels::table().max_stream(out.data(), a.words().data(),
                                  b.words().data(), n_bits);
  EXPECT_EQ(out.back() >> (n_bits % 64), 0u);
}

TEST_P(MaxStreamTest, CorrelatedComparatorStreamsGiveExactMax) {
  // Same-lane comparator streams nest (bit t set iff rng_t < level), so
  // the lower stream is a subset of the higher one; the FSM counter then
  // never favors the subset and the output IS the larger stream — the
  // correlation regime the SC max-pool unit is designed for.
  sim::StreamBank bank(10, 0xBEEF ^ GetParam(), 1024);
  const std::uint32_t lo = bank.quantize(0.25 + (GetParam() % 7) * 0.05);
  const std::uint32_t hi = bank.quantize(0.6 + (GetParam() % 5) * 0.05);
  const sc::BitStream a = bank.stream(lo, /*lane=*/3);
  const sc::BitStream b = bank.stream(hi, /*lane=*/3);
  std::vector<std::uint64_t> out(a.words().size());
  sc::kernels::table().max_stream(out.data(), a.words().data(),
                                  b.words().data(), a.size());
  const std::uint64_t ones =
      sc::kernels::table().popcount_words(out.data(), out.size());
  EXPECT_EQ(ones, std::max(a.count_ones(), b.count_ones()));
}

TEST_P(MaxStreamTest, ConvergesToExactMaxAsStreamsLengthen) {
  // Against the exact oracle max(pa, pb): on decorrelated (different-lane)
  // streams the FSM is only approximate, but its value error must shrink
  // as the streams lengthen and be small in absolute terms at the long
  // end — the property that makes it a usable pooling unit.
  const double pa = 0.2 + (GetParam() % 5) * 0.12;
  const double pb = 0.35 + (GetParam() % 7) * 0.08;
  const double exact = std::max(pa, pb);
  const auto error_at = [&](std::size_t len) {
    sim::StreamBank bank(12, 0xC0FFEE ^ GetParam(), len);
    const sc::BitStream a = bank.stream(bank.quantize(pa), /*lane=*/0);
    const sc::BitStream b = bank.stream(bank.quantize(pb), /*lane=*/7);
    std::vector<std::uint64_t> out(a.words().size());
    sc::kernels::table().max_stream(out.data(), a.words().data(),
                                    b.words().data(), len);
    const double got =
        static_cast<double>(
            sc::kernels::table().popcount_words(out.data(), out.size())) /
        static_cast<double>(len);
    return std::abs(got - exact);
  };
  const double err_short = error_at(64);
  const double err_long = error_at(4096);
  EXPECT_LE(err_long, err_short + 1e-9);
  EXPECT_LT(err_long, 0.05) << "pa=" << pa << " pb=" << pb;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxStreamTest,
                         ::testing::Values(3u, 17u, 42u, 255u, 9001u));

TEST(StreamBankProperties, NaiveSharingIsMaximallyCorrelated) {
  sim::StreamBank naive(12, 0xACE1, 4096, /*decorrelate=*/false);
  const auto half = naive.quantize(0.5);
  // Same level on different lanes -> identical streams under naive sharing.
  EXPECT_EQ(naive.stream(half, 0), naive.stream(half, 5));
  sim::StreamBank good(12, 0xACE1, 4096, /*decorrelate=*/true);
  EXPECT_NE(good.stream(half, 0), good.stream(half, 5));
}

// ---------------------------------------------------------------------
// Command-line parser: any argv either parses or throws UsageError.
// ---------------------------------------------------------------------

class CliFuzzTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CliFuzzTest, RandomArgvParsesOrThrowsUsageError) {
  // Valid values of the rows below, then junk. No "--help": it prints.
  const std::vector<std::string> tokens = {
      "0", "1", "8", "128", "4294967295", "-1", "-0.5", "0.95", "2e2",
      "lp", "ulp", "hbm", "ddr3-800", "planned", "scalar", "float",
      "sc-mux", "lenet5", "-", "out.json", "", " ", "abc", "12x", "+3",
      "0x10", "99999999999", "1e999", "nan", "inf", "--", "-x", "--bogus",
      "--stream=8", "\xff", "1.5.2"};
  sc::XorShift32 rng(GetParam());
  int parsed = 0;
  int rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    perf::ArchConfig arch = perf::lp();
    sim::ScConfig sc;
    bool has_target = false;
    std::string backend = "sc";
    std::string path;
    std::vector<std::string> suites;
    double threshold = 0.95;
    bool werror = false;
    bool probe = true;
    namespace cli = core::cli;
    const cli::OptionTable table{
        "fuzz",
        "",
        {{"TARGET", "", [&](const std::string&) { has_target = true; }}},
        {cli::choice("--arch", "", arch,
                     {{"lp", perf::lp()}, {"ulp", perf::ulp()}}),
         cli::number("--batch", "N", "", arch.batch),
         cli::number("--clock", "MHZ", "", arch.clock_mhz),
         cli::number("--stream", "N", "", sc.stream_length),
         cli::number("--width", "N", "", sc.sng_width),
         cli::choice("--exec", "", sc.exec,
                     {{"planned", sim::ExecMode::kPlanned},
                      {"scalar", sim::ExecMode::kScalar}}),
         cli::choice("--backend", "", backend, sim::kBackendNames),
         cli::number("--threshold", "X", "", threshold),
         cli::list("--suite", "NAME", "", suites),
         cli::text("--json", "FILE", "", path),
         cli::flag("--werror", "", werror),
         cli::flag("--no-probe", "", probe, false)}};
    std::vector<std::string> argv;
    if (rng.next() % 4 != 0) {
      argv.push_back("lenet5");
    }
    const std::uint32_t words = rng.next() % 7;
    for (std::uint32_t w = 0; w < words; ++w) {
      const std::uint32_t pick = rng.next() % 8;
      if (pick < 5) {
        const cli::Option& row =
            table.options[rng.next() % table.options.size()];
        argv.push_back(row.flag);
        if (!row.value.empty() && pick < 4) {
          argv.push_back(tokens[rng.next() % tokens.size()]);
        }
      } else {
        argv.insert(argv.begin() + rng.next() % (argv.size() + 1),
                    tokens[rng.next() % tokens.size()]);
      }
    }
    try {
      if (cli::parse(table, argv)) {
        ++parsed;
        EXPECT_TRUE(has_target);
      }
    } catch (const cli::UsageError& e) {
      ++rejected;
      EXPECT_NE(std::string(e.what()), "");
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CliFuzzTest, ::testing::Range(1u, 9u));

// ---------------------------------------------------------------------
// Generated graphs the SC executor accepts: `acoustic check` reports no
// error on any of them, its plan-budget note fires exactly where the
// executor leaves a table unbuilt, and the planned executor matches the
// scalar oracle bit for bit. Seeds past 24 start from 1x1 or 2x2
// inputs, where padding decides which kernel taps are live.
// ---------------------------------------------------------------------

/// Node shapes a generated graph can contain (bit flags).
enum GraphFeature : unsigned {
  kConvWithBn = 1u << 0,
  kConvWithoutBn = 1u << 1,
  kTiledAvgPool = 1u << 2,
  kUntiledAvgPool = 1u << 3,
  kGroupedConv = 1u << 4,
  kIdentityBlock = 1u << 5,
  kProjectionBlock = 1u << 6,
  kMaxPool = 1u << 7,
  kFoldedAndFused = 1u << 8,  ///< conv -> BatchNorm -> tiled AvgPool
  kConvOn1x1 = 1u << 9,       ///< a conv fed a 1x1 map
  kConvOn2x2 = 1u << 10,      ///< a conv fed a 2x2 map
  kDepthwiseConv = 1u << 11,  ///< groups = channels, more than 2 of them
  kAllFeatures = (1u << 12) - 1,
};

/// Seeds of the tiny-map generator (1x1 / 2x2 inputs) follow the classic
/// ones, which keep their graphs.
constexpr std::uint32_t kClassicSeeds = 24;
constexpr std::uint32_t kSeeds = 32;

/// A small random network ending in a dense layer, with the volume each
/// weighted layer is fed and the features it contains.
struct GeneratedGraph {
  nn::Network net;
  nn::Shape input;
  std::map<const nn::Layer*, nn::Shape> fed;
  unsigned features = 0;
};

GeneratedGraph random_graph(std::uint32_t seed) {
  sc::XorShift32 rng(seed * 2654435761u + 1u);
  const auto pick = [&rng](std::uint32_t n) {
    return static_cast<int>(rng.next() % n);
  };
  std::uint32_t init = seed * 97u;
  GeneratedGraph g;
  const bool tiny = seed > kClassicSeeds;
  nn::Shape cur{tiny ? 1 + pick(2) : 6 + pick(5), 0, 1 + pick(3)};
  cur.w = cur.h;
  g.input = cur;
  const auto note_map = [&g](nn::Shape fed) {
    g.features |= fed.h == 1 ? kConvOn1x1 : fed.h == 2 ? kConvOn2x2 : 0u;
  };
  // conv [-> BatchNorm]; returns whether a BatchNorm follows.
  const auto conv = [&](nn::ConvSpec spec) {
    spec.in_channels = cur.c;
    spec.mode = nn::AccumMode::kOrApprox;
    auto& layer = g.net.add<nn::Conv2D>(spec);
    layer.initialize(init++);
    g.fed[&layer] = cur;
    note_map(cur);
    g.features |= spec.groups == 2  ? kGroupedConv
                  : spec.groups > 2 ? kDepthwiseConv
                                    : 0u;
    cur = layer.output_shape(cur);
    if (pick(2) == 0) {
      g.features |= kConvWithoutBn;
      return false;
    }
    g.net.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = spec.out_channels})
        .initialize(init++);
    g.features |= kConvWithBn;
    return true;
  };
  const int blocks = 2 + pick(3);
  for (int b = 0; b < blocks; ++b) {
    const int kind = pick(4);
    // Tiny maps may also stride, e.g. a 3x3 from 2x2 to 1x1.
    const int stride = cur.h >= (tiny ? 2 : 4) ? 1 + pick(2) : 1;
    if (kind == 1) {  // identity residual block
      auto state = std::make_shared<nn::SkipState>();
      g.net.add<nn::SkipSave>(state);
      conv(nn::ConvSpec{.out_channels = cur.c, .kernel = 3, .padding = 1});
      g.net.add<nn::ReLU>();
      conv(nn::ConvSpec{.out_channels = cur.c, .kernel = 3, .padding = 1});
      g.net.add<nn::SkipAdd>(state);
      g.net.add<nn::ReLU>();
      g.features |= kIdentityBlock;
    } else if (kind == 2) {  // projection residual block
      const int out_c = 2 + pick(4);
      auto state = std::make_shared<nn::SkipState>();
      g.net.add<nn::SkipSave>(state);
      auto& proj = g.net.add<nn::SkipProject>(
          state, nn::ConvSpec{.in_channels = cur.c, .out_channels = out_c,
                              .kernel = 1, .stride = stride,
                              .mode = nn::AccumMode::kOrApprox});
      proj.conv().initialize(init++);
      g.fed[&proj] = cur;
      note_map(cur);
      conv(nn::ConvSpec{.out_channels = out_c, .kernel = 3, .stride = stride,
                        .padding = 1});
      g.net.add<nn::ReLU>();
      conv(nn::ConvSpec{.out_channels = out_c, .kernel = 3, .padding = 1});
      g.net.add<nn::SkipAdd>(state);
      g.net.add<nn::ReLU>();
      g.features |= kProjectionBlock;
    } else if (kind == 3 && cur.h >= 2) {
      g.net.add<nn::MaxPool2D>(2);
      cur = nn::Shape{cur.h / 2, cur.w / 2, cur.c};
      g.features |= kMaxPool;
    } else {  // conv [-> BatchNorm] [-> AvgPool] -> ReLU
      const bool split = cur.c % 2 == 0 && pick(2) == 0;
      const int padding = cur.h >= 3 ? pick(2) : 1;
      const int out_c = 2 * (1 + pick(3));
      // A split conv is depthwise (one group per channel) when more than
      // two channels divide its output channels, else it has two groups.
      const int groups = !split                           ? 1
                         : cur.c > 2 && out_c % cur.c == 0 ? cur.c
                                                           : 2;
      const bool bn = conv(nn::ConvSpec{
          .out_channels = out_c, .kernel = 1 + 2 * pick(2), .stride = stride,
          .padding = padding, .groups = groups});
      const int window = 2 + pick(2);
      if (cur.h >= window && pick(3) != 0) {
        g.net.add<nn::AvgPool2D>(window);
        const bool tiled = cur.h % window == 0 && cur.w % window == 0;
        g.features |= tiled ? kTiledAvgPool : kUntiledAvgPool;
        g.features |= tiled && bn ? kFoldedAndFused : 0u;
        cur = nn::Shape{cur.h / window, cur.w / window, cur.c};
      }
      g.net.add<nn::ReLU>();
    }
  }
  auto& dense = g.net.add<nn::Dense>(
      nn::DenseSpec{.in_features = static_cast<int>(cur.size()),
                    .out_features = 3 + pick(3),
                    .mode = nn::AccumMode::kOrApprox});
  dense.initialize(init++);
  g.fed[&dense] = cur;
  return g;
}

class GeneratedGraphTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GeneratedGraphTest, CheckIsCleanAndPlanBudgetNoteMatchesTheExecutor) {
  GeneratedGraph g = random_graph(GetParam());
  analysis::CheckOptions opt;
  opt.probe = false;
  opt.sc.stream_length = 128;
  const core::Report clean =
      analysis::check_network(g.net, "generated", g.input, opt);
  EXPECT_TRUE(clean.ok()) << clean.to_string();

  // Every table a weighted node may build, its weight table and its
  // activation plan, at the node's own slot timetable.
  std::vector<std::size_t> tables;
  for (const sim::LoweredOp& op :
       sim::lower_graph(g.net, sim::sc_lower_options(opt.sc), "generated")) {
    if (!op.weighted()) {
      continue;
    }
    const nn::Shape in = g.fed.at(op.layer);
    const sim::ConvGeometry geo =
        sim::conv_geometry(op, in, opt.sc.phase_length());
    tables.push_back(sim::weight_table_bytes(geo.window.sched, geo.layout));
    tables.push_back(sim::plan_table_bytes(geo.window.sched, in.size()));
  }
  std::sort(tables.begin(), tables.end());
  nn::Tensor x(g.input);
  sc::XorShift32 rng(GetParam());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.next_double());
  }
  // One byte below every footprint, and at the largest.
  std::vector<std::size_t> budgets;
  for (const std::size_t bytes : tables) {
    budgets.push_back(bytes - 1);
  }
  budgets.push_back(tables.back());
  for (const std::size_t budget : budgets) {
    opt.sc.plan_budget_bytes = budget;
    const auto over = static_cast<std::size_t>(
        std::count_if(tables.begin(), tables.end(),
                      [budget](std::size_t bytes) { return bytes > budget; }));
    const core::Report r =
        analysis::check_network(g.net, "generated", g.input, opt);
    EXPECT_EQ(r.count_rule("plan-budget-exceeded"), over)
        << "budget " << budget << "\n"
        << r.to_string();
    if (budget < tables.front() || budget == tables.back()) {
      // Below the smallest footprint every table is unbuilt and the first
      // node always reads live inputs; at the largest every table is
      // built. In between, an unbuilt table misses only if a live product
      // reads it, so the executor side is pinned at the two ends.
      sim::ScNetwork exec(g.net, opt.sc);
      (void)exec.forward(x);
      EXPECT_EQ(exec.stats().plan_misses > 0, over > 0)
          << "budget " << budget;
    }
  }
}

/// The streams the planned executor is held to the oracle at: 1-word
/// segments at 128; at 200 an unfused node's 100-bit segment spans two
/// words, the last one partial; at 1024 segments are 8 words and a fused
/// 2x2 window's slots 2 words (WideStreamsReachMultiWordSegments).
constexpr std::size_t kOracleStreams[] = {128, 200, 1024};

TEST_P(GeneratedGraphTest, PlannedMatchesScalarOnEveryStat) {
  GeneratedGraph g = random_graph(GetParam());
  nn::Tensor x(g.input);
  sc::XorShift32 rng(GetParam() + 1000u);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.next_double());
  }
  for (const std::size_t stream : kOracleStreams) {
    sim::ScConfig cfg;
    cfg.stream_length = stream;
    sim::ScConfig scalar_cfg = cfg;
    scalar_cfg.exec = sim::ExecMode::kScalar;
    sim::ScNetwork scalar(g.net, scalar_cfg);
    obs::Profiler profiler;
    scalar.set_profiler(&profiler);
    const nn::Tensor want = scalar.forward(x);
    const sim::RunStats oracle = scalar.take_stats();
    // Per node of the oracle run: whether it fetched a live activation (it
    // generates bits exactly then) and whether it computed a product.
    std::map<std::uint32_t, bool> fetched;
    std::map<std::uint32_t, bool> computed;
    for (const obs::SpanRecord& span : profiler.take()) {
      for (const auto& [counter, value] : span.counters) {
        if (counter == "stream_bits_generated") {
          fetched[span.seq] = value > 0;
        } else if (counter == "product_bits") {
          computed[span.seq] = value > 0;
        }
      }
    }
    // In budget every fetch is served from a table; at a 1-byte budget
    // every node runs the oracle and every fetch is regenerated. One byte
    // below the activation plan of a node whose weight table is smaller,
    // that node serves weights from its table and regenerates activations
    // in place, while nodes with larger tables run the oracle, so one
    // forward can mix all three routes. On every route the fetches are
    // exactly the segments the oracle generates.
    std::vector<std::size_t> budgets{cfg.plan_budget_bytes, 1};
    const std::size_t in_place_from = budgets.size();
    struct NodeTables {
      std::uint32_t seq;
      std::size_t weight;  ///< weight ProductTable bytes
      std::size_t plan;    ///< activation plan bytes
    };
    std::vector<NodeTables> nodes;
    const std::vector<sim::LoweredOp> ops =
        sim::lower_graph(g.net, sim::sc_lower_options(cfg), "generated");
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (!ops[i].weighted()) {
        continue;
      }
      const nn::Shape in = g.fed.at(ops[i].layer);
      const sim::ConvGeometry geo =
          sim::conv_geometry(ops[i], in, cfg.phase_length());
      const NodeTables node{
          static_cast<std::uint32_t>(i),
          sim::weight_table_bytes(geo.window.sched, geo.layout),
          sim::plan_table_bytes(geo.window.sched, in.size())};
      nodes.push_back(node);
      if (node.weight < node.plan) {
        budgets.push_back(node.plan - 1);
      }
    }
    for (std::size_t b = 0; b < budgets.size(); ++b) {
      const std::size_t budget = budgets[b];
      // A node regenerates (plan misses) where the budget sends it to the
      // oracle or its activations in place, and only if it reads a live
      // activation. It is served from tables (plan hits) where its weight
      // table fits: its products, and with its activation plan in budget
      // its activation fetches too. A graph whose activations die after
      // its first node can so read no miss at an in-place budget.
      bool misses = false;
      bool hits = false;
      for (const NodeTables& node : nodes) {
        const bool table = !sim::over_plan_budget(node.weight, budget);
        const bool plan = !sim::over_plan_budget(node.plan, budget);
        misses |= (!table || !plan) && fetched[node.seq];
        hits |= table && (plan ? fetched[node.seq] : computed[node.seq]);
      }
      for (const unsigned threads : {1u, 3u}) {
        sim::ScConfig planned_cfg = cfg;
        planned_cfg.plan_budget_bytes = budget;
        planned_cfg.intra_threads = threads;
        sim::ScNetwork planned(g.net, planned_cfg);
        // As a task of a pool with that many workers, the way the batch
        // evaluator runs a forward: rows shard only on the enclosing pool.
        runtime::ThreadPool pool(threads);
        nn::Tensor got;
        pool.parallel_for(1, [&](std::size_t, unsigned) {
          got = planned.forward(x);
        });
        const sim::RunStats st = planned.take_stats();
        const std::string label = "stream " + std::to_string(stream) +
                                  " budget " + std::to_string(budget) +
                                  " threads " + std::to_string(threads);
        ASSERT_EQ(got.shape(), want.shape()) << label;
        EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                              got.size() * sizeof(float)),
                  0)
            << label;
        EXPECT_EQ(st.product_bits, oracle.product_bits) << label;
        EXPECT_EQ(st.skipped_operands, oracle.skipped_operands) << label;
        EXPECT_EQ(st.layers_run, oracle.layers_run) << label;
        // Every route counts each segment fetch once, as a hit or a miss;
        // the oracle serves none from a table.
        EXPECT_EQ(st.plan_hits + st.plan_misses, oracle.plan_misses)
            << label;
        EXPECT_EQ(oracle.plan_hits, 0u) << label;
        EXPECT_EQ(st.plan_misses > 0, misses) << label;
        EXPECT_EQ(st.plan_hits > 0, hits) << label;
        if (budget == 1) {
          EXPECT_EQ(st.plan_hits, 0u) << label;
          EXPECT_EQ(st.stream_bits_reused, 0u) << label;
          EXPECT_EQ(st.stream_bits_generated, oracle.stream_bits_generated)
              << label;
        } else if (b < in_place_from) {
          EXPECT_EQ(st.plan_misses, 0u) << label;
          EXPECT_EQ(st.stream_bits_reused, oracle.stream_bits_generated)
              << label;
        }
        const core::Report plans = planned.validate_plans();
        EXPECT_TRUE(plans.clean()) << label << "\n" << plans.to_string();
      }
    }
  }
}

TEST_P(GeneratedGraphTest, SnapshotBackendAndCloneMatchScalar) {
  // The executor `acoustic eval` and perfbench run: make_sc_backend's, on
  // a const snapshot, whose warm stages compare no weight. It runs two
  // images (every stage's first fetch, then a steady hit), then a clone of
  // it runs them in the other order (first fetches the store already
  // serves, then hits). Each forward must equal the oracle's.
  GeneratedGraph g = random_graph(GetParam());
  std::vector<nn::Tensor> images;
  for (const std::uint32_t salt : {3000u, 4000u}) {
    nn::Tensor x(g.input);
    sc::XorShift32 rng(GetParam() + salt);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<float>(rng.next_double());
    }
    images.push_back(std::move(x));
  }
  for (const std::size_t stream : kOracleStreams) {
    sim::ScConfig cfg;
    cfg.stream_length = stream;
    sim::ScConfig scalar_cfg = cfg;
    scalar_cfg.exec = sim::ExecMode::kScalar;
    sim::ScNetwork scalar(g.net, scalar_cfg);
    std::vector<nn::Tensor> want;
    std::vector<sim::RunStats> oracle;
    for (const nn::Tensor& x : images) {
      want.push_back(scalar.forward(x));
      oracle.push_back(scalar.take_stats());
    }
    const auto backend = sim::make_sc_backend(g.net, cfg);
    for (const bool cloned : {false, true}) {
      const auto clone = cloned ? backend->clone() : nullptr;
      sim::InferenceBackend& exec = cloned ? *clone : *backend;
      for (std::size_t k = 0; k < images.size(); ++k) {
        const std::size_t i = cloned ? images.size() - 1 - k : k;
        const nn::Tensor got = exec.forward(images[i]);
        const sim::RunStats st = exec.take_stats();
        const std::string label = "stream " + std::to_string(stream) +
                                  (cloned ? " clone" : " backend") +
                                  " image " + std::to_string(i);
        ASSERT_EQ(got.shape(), want[i].shape()) << label;
        EXPECT_EQ(std::memcmp(got.data().data(), want[i].data().data(),
                              got.size() * sizeof(float)),
                  0)
            << label;
        EXPECT_EQ(st.product_bits, oracle[i].product_bits) << label;
        EXPECT_EQ(st.skipped_operands, oracle[i].skipped_operands) << label;
        EXPECT_EQ(st.layers_run, oracle[i].layers_run) << label;
        EXPECT_EQ(st.plan_hits + st.plan_misses, oracle[i].plan_misses)
            << label;
      }
      const core::Report plans =
          dynamic_cast<sim::ScNetwork&>(exec).validate_plans();
      EXPECT_TRUE(plans.clean()) << plans.to_string();
    }
  }
}

TEST_P(GeneratedGraphTest, NonFiniteAndSaturatedValuesMatchScalar) {
  // The generated graph, poisoned after random_graph builds it by the
  // case's own RNG (so every case sees the same graph per seed): about 1 in
  // 16 values of the input, of every weighted layer's weights and of every
  // BatchNorm parameter and running statistic (Network::state) becomes NaN,
  // -NaN, +-Inf or a float denormal, or saturates (+-1.5 for a weight, 7.0
  // for an input). `acoustic check` flags exactly the nodes whose folded
  // weights hold a NaN or an Inf, every node given one among them, and the
  // planned executor matches the scalar oracle bit for bit.
  GeneratedGraph g = random_graph(GetParam());
  sc::XorShift32 rng(GetParam() * 40503u + 7u);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denormal = std::numeric_limits<float>::denorm_min();
  const float weight_values[] = {nan,      std::copysign(nan, -1.0f),
                                 inf,      -inf,
                                 denormal, 1.5f,
                                 -1.5f};
  const float input_values[] = {nan,  std::copysign(nan, -1.0f), inf, -inf,
                                denormal, 7.0f};
  const auto poison = [&rng](std::span<float> values,
                             std::span<const float> specials) {
    for (float& v : values) {
      if (rng.next() % 16 == 0) {
        v = specials[rng.next() % specials.size()];
      }
    }
  };
  for (const std::span<float> values : g.net.state()) {
    poison(values, weight_values);
  }
  nn::Tensor x(g.input);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.next_double());
  }
  poison(x.data(), input_values);

  const auto nonfinite = [](std::span<const float> values) {
    return std::any_of(values.begin(), values.end(),
                       [](float v) { return !std::isfinite(v); });
  };
  analysis::CheckOptions opt;
  opt.probe = false;
  opt.sc.stream_length = 128;
  const core::Report report =
      analysis::check_network(g.net, "generated", g.input, opt);
  std::multiset<std::string> flagged;
  for (const core::Diagnostic& d : report.diagnostics()) {
    if (d.rule == "nonfinite-weight") {
      flagged.insert(d.path);
    }
  }
  std::multiset<std::string> expected;
  for (const sim::LoweredOp& op :
       sim::lower_graph(g.net, sim::sc_lower_options(opt.sc), "generated")) {
    if (!op.weighted()) {
      continue;
    }
    std::vector<float> folded;
    const bool folded_nonfinite = nonfinite(sim::node_weights(op, folded));
    if (nonfinite(op.conv->weights())) {
      EXPECT_TRUE(folded_nonfinite) << op.name;
    }
    if (folded_nonfinite) {
      expected.insert("generated/" + op.name);
    }
  }
  EXPECT_EQ(flagged, expected) << report.to_string();

  for (const std::size_t stream : {std::size_t{128}, std::size_t{1024}}) {
    sim::ScConfig cfg;
    cfg.stream_length = stream;
    sim::ScConfig scalar_cfg = cfg;
    scalar_cfg.exec = sim::ExecMode::kScalar;
    sim::ScNetwork scalar(g.net, scalar_cfg);
    const nn::Tensor want = scalar.forward(x);
    const sim::RunStats oracle = scalar.take_stats();
    for (const std::size_t budget : {cfg.plan_budget_bytes, std::size_t{1}}) {
      for (const unsigned threads : {1u, 3u}) {
        sim::ScConfig planned_cfg = cfg;
        planned_cfg.plan_budget_bytes = budget;
        planned_cfg.intra_threads = threads;
        sim::ScNetwork planned(g.net, planned_cfg);
        runtime::ThreadPool pool(threads);
        nn::Tensor got;
        pool.parallel_for(1, [&](std::size_t, unsigned) {
          got = planned.forward(x);
        });
        const sim::RunStats st = planned.take_stats();
        const std::string label = "stream " + std::to_string(stream) +
                                  " budget " + std::to_string(budget) +
                                  " threads " + std::to_string(threads);
        ASSERT_EQ(got.shape(), want.shape()) << label;
        EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                              got.size() * sizeof(float)),
                  0)
            << label;
        if (budget == 1) {
          // Every weighted node runs the oracle: every stat is its own.
          EXPECT_EQ(st, oracle) << label;
        } else {
          // Every fetch is served from a table: the oracle's work and
          // fetches, as hits of reused bits. The generated bits (plan
          // builds) and the scratch high-water mark are the route's own.
          EXPECT_EQ(st.samples, oracle.samples) << label;
          EXPECT_EQ(st.layers_run, oracle.layers_run) << label;
          EXPECT_EQ(st.product_bits, oracle.product_bits) << label;
          EXPECT_EQ(st.skipped_operands, oracle.skipped_operands) << label;
          EXPECT_EQ(st.plan_hits, oracle.plan_misses) << label;
          EXPECT_EQ(st.plan_misses, 0u) << label;
          EXPECT_EQ(st.stream_bits_reused, oracle.stream_bits_generated)
              << label;
        }
        const core::Report plans = planned.validate_plans();
        EXPECT_TRUE(plans.clean()) << label << "\n" << plans.to_string();
      }
    }
  }
}

TEST_P(GeneratedGraphTest, EveryDatapathWalksOneNodeList) {
  // Every backend runs the one graph walk, so float, sc-mux and bipolar
  // report the same (seq, name, kind) node spans and layers_run; sc
  // differs only in naming a conv with a fused average pool "conv+pool".
  // The float backend's logits are nn::Network::forward's byte for byte.
  GeneratedGraph g = random_graph(GetParam());
  nn::Tensor x(g.input);
  sc::XorShift32 rng(GetParam() + 2000u);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.next_double());
  }
  sim::ScConfig cfg;
  cfg.stream_length = 64;
  sim::BipolarConfig bipolar_cfg;
  bipolar_cfg.stream_length = 64;
  using Node = std::tuple<std::uint32_t, std::string, std::string>;
  struct Run {
    nn::Tensor logits;
    std::vector<Node> nodes;
    std::uint64_t layers_run = 0;
  };
  const auto run = [&](const std::string& name) {
    const auto backend = sim::make_backend(name, g.net, cfg, bipolar_cfg);
    obs::Profiler profiler;
    backend->set_profiler(&profiler, 0);
    Run r;
    r.logits = backend->forward(x);
    for (const obs::SpanRecord& span : profiler.take()) {
      r.nodes.emplace_back(span.seq, span.name, span.kind);
    }
    r.layers_run = backend->stats().layers_run;
    return r;
  };
  const Run ref = run("float");
  const nn::Tensor want = g.net.forward(x);
  ASSERT_EQ(ref.logits.shape(), want.shape());
  EXPECT_EQ(std::memcmp(ref.logits.data().data(), want.data().data(),
                        want.size() * sizeof(float)),
            0);
  EXPECT_FALSE(ref.nodes.empty());
  for (const std::string name : {"sc", "sc-mux", "bipolar"}) {
    Run r = run(name);
    for (Node& node : r.nodes) {
      if (std::get<2>(node) == "conv+pool") {
        std::get<2>(node) = "conv";
      }
    }
    EXPECT_EQ(r.nodes, ref.nodes) << name;
    EXPECT_EQ(r.layers_run, ref.layers_run) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedGraphTest,
                         ::testing::Range(1u, kSeeds + 1));
// Seed 68, the first of 13 seeds in 1-400 that do: at an in-place budget
// no node routed in place or to the oracle reads a live activation, so
// the planned run reads no plan miss (PlannedMatchesScalarOnEveryStat).
INSTANTIATE_TEST_SUITE_P(NoMissInPlace, GeneratedGraphTest,
                         ::testing::Values(68u));

TEST(GeneratedGraphs, SeedsCoverEveryNodeShape) {
  unsigned seen = 0;
  for (std::uint32_t seed = 1; seed <= kSeeds; ++seed) {
    seen |= random_graph(seed).features;
  }
  EXPECT_EQ(seen, kAllFeatures);
}

TEST(GeneratedGraphs, WideStreamsReachMultiWordSegments) {
  // The planned body's multi-word chain (gather_and_or_popcount) and the
  // masked partial last word run only where a segment outgrows one word:
  // the seeds must reach both at the streams of kOracleStreams.
  bool partial = false;     // >= 2 words, the last one partial
  bool fused_wide = false;  // a fused window whose slots are >= 2 words
  for (std::uint32_t seed = 1; seed <= kSeeds; ++seed) {
    GeneratedGraph g = random_graph(seed);
    for (const std::size_t stream : kOracleStreams) {
      sim::ScConfig cfg;
      cfg.stream_length = stream;
      for (const sim::LoweredOp& op : sim::lower_graph(
               g.net, sim::sc_lower_options(cfg), "generated")) {
        if (!op.weighted()) {
          continue;
        }
        const sim::ConvGeometry geo =
            sim::conv_geometry(op, g.fed.at(op.layer), cfg.phase_length());
        const sim::SegmentSchedule& sched = geo.window.sched;
        partial |= sched.seg_words() >= 2 && sched.seg % 64 != 0;
        fused_wide |= geo.window.pool > 1 && sched.seg_words() >= 2;
      }
    }
  }
  EXPECT_TRUE(partial);
  EXPECT_TRUE(fused_wide);
}

}  // namespace
}  // namespace acoustic
