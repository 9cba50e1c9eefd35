// Configuration of the bit-level functional SC simulator (paper IV-A:
// "It is given the network model, test dataset, trained weights and SC
// configuration i.e. stream lengths, RNG scheme etc.").
#pragma once

#include <cstddef>
#include <cstdint>

namespace acoustic::sim {

/// Execution strategy of the bit-level simulator. Both modes are
/// bit-identical (the golden equivalence suite enforces it); they differ
/// only in speed.
enum class ExecMode {
  /// Reference scalar path: every stream segment is regenerated at its
  /// point of use. Slow; kept as the equivalence oracle and for bisecting
  /// fast-path regressions.
  kScalar,
  /// Fast path: per-layer packed stream plans (weight and activation
  /// segments generated once, reused across output positions) plus
  /// optional intra-image row parallelism. The default.
  kPlanned,
};

/// How MaxPool2D layers execute in the SC simulator.
enum class MaxPoolMode {
  /// Exact binary-domain max. The inter-layer binary conversion already
  /// exists (streams are regenerated per layer), so an exact max between
  /// conversions models a max unit in the binary datapath. The default.
  kExact,
  /// Stochastic maximum FSM over the regenerated activation streams (the
  /// bit-serial counter-based max circuit: output selects the stream whose
  /// running ones-count leads; simulated a word at a time, bit-identical).
  /// ~2x the cost of average pooling in hardware (paper II-C) and only
  /// approximate — provided so the max-vs-avg accuracy observation can be
  /// reproduced end to end.
  kStochastic,
};

/// How pooling layers execute in the stochastic domain.
enum class PoolingMode {
  /// Computation skipping (paper II-C): each output in a p x p window is
  /// computed over a stream_length/p^2 segment and the window's counter is
  /// never reset, so concatenation performs the scaled addition for free.
  kSkipping,
  /// Pooling without skipping (the "sc-mux" backend): the conv runs
  /// unfused over the full stream at every window position, then the
  /// exact binary AvgPool2D averages each window. No MUX select is
  /// modelled. p^2 times more conv work; baseline for the II-C experiment.
  kMux,
};

struct ScConfig {
  /// Total temporal split-unipolar stream length. The paper's convention
  /// (footnote 3): "256 long stream implies 128x2", i.e. the positive and
  /// negative phases are each stream_length/2 bits.
  std::size_t stream_length = 256;

  /// LFSR / comparator width of the SNGs (stream value resolution 2^-width).
  unsigned sng_width = 8;

  /// Seeds of the activation and weight SNG banks (distinct LFSR streams).
  std::uint32_t activation_seed = 0x5eed;
  std::uint32_t weight_seed = 0xbeef;

  PoolingMode pooling = PoolingMode::kSkipping;

  /// Execution policy for MaxPool2D layers (independent of `pooling`,
  /// which selects how *average* pooling fuses into the conv stream).
  MaxPoolMode max_pool = MaxPoolMode::kExact;

  /// Per-lane decorrelation of the shared SNG RNGs (scrambler + phase
  /// taps). Disable only to reproduce the naive-sharing failure mode.
  bool decorrelate_lanes = true;

  ExecMode exec = ExecMode::kPlanned;

  /// Intra-image sharding policy of the planned path (a weighted node's
  /// output rows x output-channel blocks): 0 = auto (the production
  /// default — a node shards only when the forward's outermost job leaves
  /// workers of its pool idle, runtime::ThreadPool::spare_workers, and
  /// the node's estimated word-level work reaches sim::kShardMinWords; a
  /// batch with an image per worker, and every node below the floor,
  /// stays serial), 1 = always serial, 2 or more = shard every node. The
  /// value sizes nothing: units run as nested jobs of the
  /// runtime::ThreadPool the forward already runs on (a batch-evaluator
  /// image task), on that pool's workers, so a forward called from
  /// outside any pool, or on a one-worker pool, runs serial.
  /// Results are bit-identical for any value. Ignored in scalar mode and
  /// by a node whose weight table is over plan_budget_bytes: the scalar
  /// oracle it runs never shards.
  unsigned intra_threads = 0;

  /// Byte budget per packed stream table (one shared weight ProductTable
  /// and one per-image activation plan per weighted node), measured by the
  /// footprint rules sim::weight_table_bytes and sim::plan_table_bytes
  /// (sim/stream_plan.hpp). Those count stream words only, so a weight
  /// table holds more than the budget measures: its slot index, tap
  /// offsets and bitmaps too (the words are 65% of ResNet-18's tables at
  /// side 16, stream 128). A node whose weight table is over it builds
  /// none and runs the scalar oracle; an activation plan over it is left
  /// unbuilt and the planned body regenerates its words in place. Bits
  /// never change. `acoustic check` notes the same nodes
  /// (plan-budget-exceeded). 0 = unlimited.
  std::size_t plan_budget_bytes = std::size_t{256} << 20;

  [[nodiscard]] std::size_t phase_length() const noexcept {
    return stream_length / 2;
  }
};

}  // namespace acoustic::sim
