#include "sim/sc_network.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "nn/activation.hpp"
#include "nn/pool.hpp"
#include "runtime/thread_pool.hpp"
#include "sc/bitstream.hpp"
#include "sc/kernels/kernels.hpp"
#include "sim/plan_check.hpp"

namespace acoustic::sim {

namespace {

/// Packed-word scratch for one stream segment.
using Words = std::vector<std::uint64_t>;

std::size_t word_count(std::size_t bits) { return (bits + 63) / 64; }

std::int64_t popcount_acc(const std::uint64_t* words, std::size_t count) {
  return static_cast<std::int64_t>(sc::popcount_words({words, count}));
}

/// Gathers the receptive field of conv output (oy, ox) in slot order
/// (ky, kx, ic) — slot s is also the weight offset the layout maps per
/// output channel. Returns the slot count; dead slots (zero padding or a
/// zero-quantized activation) are marked not-live.
std::size_t gather_rf(const ConvGeometry& g, const std::uint32_t* act_levels,
                      int oy, int ox, std::size_t* rf_act_index,
                      char* rf_live) {
  const nn::ConvSpec& spec = g.spec;
  std::size_t rf_size = 0;
  for (int ky = 0; ky < spec.kernel; ++ky) {
    const int iy = oy * spec.stride + ky - spec.padding;
    for (int kx = 0; kx < spec.kernel; ++kx) {
      const int ix = ox * spec.stride + kx - spec.padding;
      for (int ic = 0; ic < spec.in_channels; ++ic) {
        const std::size_t slot = rf_size++;
        if (iy < 0 || iy >= g.in.h || ix < 0 || ix >= g.in.w) {
          rf_live[slot] = 0;  // zero padding: operand-gated
          continue;
        }
        const std::size_t ai = g.index(iy, ix, ic);
        rf_act_index[slot] = ai;
        rf_live[slot] = act_levels[ai] != 0 ? 1 : 0;
      }
    }
  }
  return rf_size;
}

/// Quantizes all activations to SNG comparator levels once per layer.
void quantize_activations_into(const StreamBank& bank, const nn::Tensor& input,
                               std::span<std::uint32_t> levels) {
  for (std::size_t i = 0; i < input.size(); ++i) {
    levels[i] = bank.quantize(input[i]);
  }
}

/// Quantizes all weight magnitudes once per layer (the sign schedules the
/// product into the + or - phase instead).
std::vector<std::uint32_t> quantize_weights(const StreamBank& bank,
                                            std::span<const float> weights) {
  std::vector<std::uint32_t> levels(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    levels[i] = bank.quantize(std::fabs(weights[i]));
  }
  return levels;
}

/// Books @p fetches segment fetches of @p seg bits each: served from a
/// table (plan hits, reused bits) or regenerated from the bank (plan
/// misses, generated bits).
void charge(RunStats& run, bool planned, std::uint64_t fetches,
            std::size_t seg) {
  if (planned) {
    run.plan_hits += fetches;
    run.stream_bits_reused += fetches * seg;
  } else {
    run.plan_misses += fetches;
    run.stream_bits_generated += fetches * seg;
  }
}

/// The pool that shards a node's units, or nullptr for serial execution:
/// the pool the forward already runs on (idle workers steal the units as
/// nested jobs) when it has more than one worker and
/// ScConfig::intra_threads asks for sharding. Auto (0) asks only when the
/// forward's outermost job leaves workers idle
/// (ThreadPool::spare_workers: a batch that fills the pool keeps every
/// node serial) and the node's estimated work @p work_words reaches
/// kShardMinWords. Both read only the node, the config, the pool size and
/// that job's task count, never live idle counts, so the decision, and
/// RunStats::scratch_bytes with it, is the same on every run.
runtime::ThreadPool* intra_pool(const ScConfig& cfg, std::size_t work_words) {
  runtime::ThreadPool* pool = runtime::ThreadPool::current();
  if (cfg.intra_threads == 1 || pool == nullptr || pool->size() < 2) {
    return nullptr;
  }
  if (cfg.intra_threads == 0 &&
      (pool->spare_workers() == 0 || work_words < kShardMinWords)) {
    return nullptr;
  }
  return pool;
}

}  // namespace

ScNetwork::ScNetwork(nn::Network& net, ScConfig cfg)
    : GraphExecutor(net, sc_lower_options(cfg), "ScNetwork"),
      cfg_(cfg),
      act_bank_(cfg_.sng_width, cfg_.activation_seed, 2 * cfg_.phase_length(),
                cfg_.decorrelate_lanes),
      stage_scratch_(ops().size()) {
  if (cfg_.phase_length() == 0) {
    throw std::invalid_argument("ScNetwork: stream_length must be >= 2");
  }
  wgt_plans_ = std::make_shared<WeightPlanStore>(cfg_, ops().size());
}

ScNetwork::ScNetwork(const ScNetwork& proto)
    : GraphExecutor(proto),
      cfg_(proto.cfg_),
      act_bank_(proto.act_bank_),
      stage_scratch_(ops().size()),
      wgt_plans_(proto.wgt_plans_) {}

void ScNetwork::run_weighted(const LoweredOp& op, std::size_t node,
                             const nn::Tensor& input, nn::Tensor& out,
                             RunStats& run) {
  const ConvGeometry g =
      conv_geometry(op, input.shape(), cfg_.phase_length());
  if (g.window.sched.seg == 0) {
    throw std::invalid_argument(
        "ScNetwork: stream too short for the pooling window");
  }
  if (cfg_.exec == ExecMode::kScalar ||
      over_plan_budget(weight_table_bytes(g.window.sched, g.layout),
                       cfg_.plan_budget_bytes)) {
    run_conv_scalar(op, g, input, out, run);
  } else {
    run_conv_planned(op, node, g, input, out, run);
  }
  // A fused pool whose window does not tile this conv output ran unfused;
  // finish it in the binary domain (WindowSchedule's fallback).
  if (!g.window.fused) {
    nn::Tensor pooled;
    op.fused_pool->infer(out, pooled, nullptr);
    out = std::move(pooled);
  }
}

// Reference scalar path (the seed implementation): regenerates every
// stream segment at its point of use, each a plan miss. The equivalence
// oracle of the planned path below, for conv and dense (as a 1x1 conv)
// alike, and the route of a node whose weight table is over budget.
void ScNetwork::run_conv_scalar(const LoweredOp& op, const ConvGeometry& g,
                                const nn::Tensor& input, nn::Tensor& out,
                                RunStats& run) {
  const std::size_t oc_count = g.layout.oc_count;
  const std::size_t rf = g.layout.rf;
  const SegmentSchedule& sched = g.window.sched;
  const std::size_t seg = sched.seg;
  const std::size_t sw = sched.seg_words();
  const int win = g.window.pool;
  const StreamBank& wgt_bank = wgt_plans_->bank();
  std::vector<std::uint32_t> act_levels(input.size());
  quantize_activations_into(act_bank_, input, act_levels);
  std::vector<float> folded;
  const std::span<const float> weights = node_weights(op, folded);
  const std::vector<std::uint32_t> wgt_levels =
      quantize_weights(wgt_bank, weights);
  // Folded BatchNorm's per-channel shift, added post-counter (zeros when
  // no BN is absorbed so every output write shares one expression).
  std::vector<float> bias(oc_count, 0.0f);
  if (op.bn != nullptr) {
    for (std::size_t oc = 0; oc < oc_count; ++oc) {
      bias[oc] = op.bn->shift(static_cast<int>(oc));
    }
  }

  out.resize(g.out_shape);
  std::uint64_t product_bits = 0;
  std::uint64_t skipped = 0;
  std::uint64_t fetches = 0;

  // Receptive-field scratch: activation segment streams for one (output
  // position, window slot, phase), plus reusable weight/OR buffers.
  std::vector<Words> act_streams(rf, Words(sw));
  std::vector<std::size_t> rf_act_index(rf);
  std::vector<char> rf_live(rf);
  Words wgt_stream(sw);
  Words or_acc(sw);
  std::vector<std::int64_t> counters(oc_count);

  for (int py = 0; py < g.out_shape.h; ++py) {
    for (int px = 0; px < g.out_shape.w; ++px) {
      for (auto& c : counters) {
        c = 0;
      }
      for (int k = 0; k < static_cast<int>(sched.positions); ++k) {
        const int oy = py * win + k / win;
        const int ox = px * win + k % win;
        const std::size_t rf_size = gather_rf(
            g, act_levels.data(), oy, ox, rf_act_index.data(), rf_live.data());
        // Two phases: + (counts up), - (counts down). The activation SNGs
        // run continuously: phase+ uses cycles [k*seg, ...), phase- the
        // same slice offset by a full phase.
        for (int ph = 0; ph < 2; ++ph) {
          const bool positive = ph == 0;
          const std::size_t offset =
              sched.offset(positive, static_cast<std::size_t>(k));
          for (std::size_t s = 0; s < rf_size; ++s) {
            if (rf_live[s]) {
              act_bank_.fill(act_levels[rf_act_index[s]],
                             static_cast<std::uint32_t>(rf_act_index[s]),
                             offset, seg, act_streams[s]);
              ++fetches;
            }
          }
          for (std::size_t oc = 0; oc < oc_count; ++oc) {
            std::fill(or_acc.begin(), or_acc.end(), std::uint64_t{0});
            bool any = false;
            for (std::size_t s = 0; s < rf_size; ++s) {
              const std::size_t wi = g.layout.weight(oc, s);
              if (wi == WeightLayout::kNoWeight) {
                continue;  // grouped conv: no weight connects this pair
              }
              const float wv = weights[wi];
              const bool active_here = positive ? (wv > 0.0f) : (wv < 0.0f);
              if (!active_here) {
                continue;  // scheduled in the other sign phase
              }
              if (!rf_live[s] || wgt_levels[wi] == 0) {
                ++skipped;  // operand-gated: zero/padding input, zero weight
                continue;
              }
              wgt_bank.fill(wgt_levels[wi], static_cast<std::uint32_t>(wi),
                            offset, seg, wgt_stream);
              ++fetches;
              for (std::size_t w = 0; w < sw; ++w) {
                or_acc[w] |= act_streams[s][w] & wgt_stream[w];
              }
              any = true;
              product_bits += seg;
            }
            if (any) {
              const std::int64_t ones = popcount_acc(or_acc.data(), sw);
              counters[oc] += positive ? ones : -ones;
            }
          }
        }
      }
      for (std::size_t oc = 0; oc < oc_count; ++oc) {
        out.at(py, px, static_cast<int>(oc)) =
            static_cast<float>(static_cast<double>(counters[oc]) /
                               static_cast<double>(sched.counted())) +
            bias[oc];
      }
    }
  }
  run.product_bits += product_bits;
  run.skipped_operands += skipped;
  charge(run, false, fetches, seg);
}

// Planned path: ONE row body for conv and dense, driven by the stage's
// shared ProductTable and the per-image activation plan. Bit-identical to
// run_conv_scalar — every word it reads is the same pure function of
// (bank, lane, level, offset) the oracle regenerates, counter accumulation
// stays integer-exact, and parallel units write disjoint outputs, so the
// merge is independent of worker count and scheduling order. The weight
// table is always whole (see run_weighted); an activation plan over its
// budget regenerates the field's words in place (plan misses). All
// per-forward scratch comes from the arena (carved BEFORE the unit loop —
// the arena is single-owner), so a steady-state call allocates nothing.
void ScNetwork::run_conv_planned(const LoweredOp& op, std::size_t node,
                                 const ConvGeometry& g,
                                 const nn::Tensor& input, nn::Tensor& out,
                                 RunStats& run) {
  const nn::ConvSpec& spec = g.spec;
  const sc::kernels::KernelTable& kt = sc::kernels::table();
  const std::size_t oc_count = g.layout.oc_count;
  const SegmentSchedule& sched = g.window.sched;
  const std::size_t seg = sched.seg;
  const std::size_t sw = sched.seg_words();
  const int win = g.window.pool;
  // The live field: the node's live-tap rectangle x input channels.
  const TapRect& taps = g.layout.taps;
  const std::size_t tap_count = taps.count();
  const std::size_t live_rf = g.layout.live_rf();
  const int ty0 = static_cast<int>(taps.y0);
  const int tx0 = static_cast<int>(taps.x0);
  const int th = static_cast<int>(taps.h);
  const int tw = static_cast<int>(taps.w);

  const std::span<std::uint32_t> act_levels =
      arena_.alloc<std::uint32_t>(input.size());
  quantize_activations_into(act_bank_, input, act_levels);
  StageScratch& stage = stage_scratch_[node];
  // Folded BatchNorm shift per output channel (zeros without a BN), added
  // after the counter divide.
  const std::span<float> bias = arena_.alloc<float>(oc_count);
  for (std::size_t oc = 0; oc < oc_count; ++oc) {
    bias[oc] = op.bn != nullptr ? op.bn->shift(static_cast<int>(oc)) : 0.0f;
  }

  // Estimated word-level AND/OR work: output positions x window slots x
  // live field x output channels x segment words — the quantity the
  // auto-mode gate compares against kShardMinWords.
  const std::size_t work_words = static_cast<std::size_t>(g.out_shape.h) *
                                 static_cast<std::size_t>(g.out_shape.w) *
                                 sched.positions * oc_count * live_rf * sw;
  runtime::ThreadPool* pool = intra_pool(cfg_, work_words);

  // Weight table: shared across clones and images, fetched when the stage
  // holds none or an input size changes the schedule or the live taps
  // (StageScratch::table); only a fetch folds the node's weights. Its
  // build's kernel bits are amortized capital cost, excluded from per-run
  // stats so they stay a pure function of the sample set. Activation plan:
  // rebuilt per image into the stage's retained plan object — its
  // allocation depends only on (lanes, schedule). Building both before the
  // unit loop keeps them read-only while workers run.
  stage.input = input.shape();
  if (stage.table == nullptr || !stage.table->keyed_on(sched, g.layout)) {
    std::vector<float> folded;
    stage.table =
        wgt_plans_->get(node, sched, g.layout, node_weights(op, folded));
  }
  const ProductTable& tbl = *stage.table;
  if (stage.act_plan == nullptr || stage.act_plan->lanes() != input.size() ||
      !(stage.act_plan->sched() == sched)) {
    stage.act_plan = std::make_unique<LayerStreamPlan>(
        act_bank_, sched, input.size(), cfg_.plan_budget_bytes);
  }
  LayerStreamPlan& act_plan = *stage.act_plan;
  run.stream_bits_generated += act_plan.build(act_levels);
  const bool act_planned = act_plan.enabled();

  out.resize(g.out_shape);
  const auto counted = static_cast<double>(sched.counted());
  const unsigned workers = pool != nullptr ? pool->size() : 1u;
  const std::size_t bm_words = tbl.bm_words();
  // Parallel unit: one output row x one block of output channels. Rows
  // alone would leave a 1x1 map (every dense node) serial, so when a pool
  // runs with fewer rows than workers the channels split into blocks.
  const auto rows = static_cast<std::size_t>(g.out_shape.h);
  std::size_t oc_blocks = 1;
  if (pool != nullptr && rows < workers) {
    oc_blocks = std::min(oc_count, (workers + rows - 1) / rows);
  }
  const std::size_t oc_per_block = (oc_count + oc_blocks - 1) / oc_blocks;
  oc_blocks = (oc_count + oc_per_block - 1) / oc_per_block;

  // Per-worker scratch and accounting: disjoint outputs, and counters
  // merged into `run` after the loop (order-insensitive sums). Each state
  // fills whole cache lines, so workers never share one.
  struct alignas(64) WorkerState {
    std::uint64_t* act_w;    ///< [sign][slot][word] field words
    std::uint64_t* live_bm;  ///< live-slot bitmap of the field
    std::uint64_t* acc;      ///< multi-word OR accumulator
    std::int64_t* counters;
    RunStats stats;
  };
  const std::span<WorkerState> states = arena_.alloc<WorkerState>(workers);
  for (WorkerState& ws : states) {
    ws.act_w = arena_.alloc<std::uint64_t>(2 * live_rf * sw).data();
    ws.live_bm = arena_.alloc<std::uint64_t>(bm_words).data();
    ws.acc = arena_.alloc<std::uint64_t>(sw).data();
    ws.counters = arena_.alloc<std::int64_t>(oc_count).data();
  }

  // The row body. The live field is gathered once per window position as
  // plain activation WORDS in live-slot order (zero for padding and dead
  // activations — OR-ing a zero word is the identity, so gating needs no
  // branch), then every (sign phase, output channel) group of the table
  // runs as an AND/OR chain over its sequential weight words: the entries
  // from the position's first to its last live tap, found through the
  // group's tap offsets — the whole group at an interior position and at
  // every position of a kernel-1 node. Product and skip counts come from
  // the group x live-slot bitmaps, so the accounting matches the oracle's
  // per-product scan exactly.
  const auto run_unit = [&](std::size_t unit, unsigned worker) {
    WorkerState& ws = states[worker];
    const int py = static_cast<int>(unit / oc_blocks);
    const std::size_t oc_lo = (unit % oc_blocks) * oc_per_block;
    const std::size_t oc_hi = std::min(oc_count, oc_lo + oc_per_block);
    // Every block gathers the field, but only the first charges its
    // activation fetches: the counters must not scale with the block count.
    const bool charge_act = oc_lo == 0;
    std::uint64_t* const act_pos = ws.act_w;
    std::uint64_t* const act_neg = act_pos + live_rf * sw;
    std::uint64_t* const live_bm = ws.live_bm;
    // Signed weights of the block's groups per sign phase, the same at
    // every position: each is a product there or operand-gated, so a
    // position's skips are this minus its products.
    std::uint64_t signed_weights[2] = {0, 0};
    for (std::size_t ph = 0; ph < 2; ++ph) {
      for (std::size_t oc = oc_lo; oc < oc_hi; ++oc) {
        const std::size_t group = ph * oc_count + oc;
        const std::uint32_t* const to = tbl.taps_of(group);
        signed_weights[ph] += tbl.gated[group] + (to[tap_count] - to[0]);
      }
    }
    for (int px = 0; px < g.out_shape.w; ++px) {
      std::fill(ws.counters + oc_lo, ws.counters + oc_hi, 0);
      for (std::size_t k = 0; k < sched.positions; ++k) {
        const int oy = py * win + static_cast<int>(k) / win;
        const int ox = px * win + static_cast<int>(k) % win;
        const std::size_t sp = sched.slot_index(true, k);
        const std::size_t sn = sched.slot_index(false, k);
        // Input pixel of tap (ky, kx) is (iy0 + ky, ix0 + kx). The taps
        // this position reads are the rectangle's rows [ky_lo, ky_hi) and
        // columns [kx_lo, kx_hi) whose pixel lies inside the input.
        const int iy0 = oy * spec.stride - spec.padding;
        const int ix0 = ox * spec.stride - spec.padding;
        const int ky_lo = std::max(ty0, -iy0);
        const int ky_hi = std::min(ty0 + th, g.in.h - iy0);
        const int kx_lo = std::max(tx0, -ix0);
        const int kx_hi = std::min(tx0 + tw, g.in.w - ix0);
        // Gather the live rows (all rectangle columns: a border position's
        // tap range spans whole rows between its first and last live tap).
        std::fill_n(live_bm, bm_words, std::uint64_t{0});
        std::uint64_t live = 0;
        for (int ky = ky_lo; ky < ky_hi; ++ky) {
          const int iy = iy0 + ky;
          std::size_t slot = static_cast<std::size_t>((ky - ty0) * tw) *
                             static_cast<std::size_t>(spec.in_channels);
          for (int kx = tx0; kx < tx0 + tw; ++kx) {
            const int ix = ix0 + kx;
            const bool inside = ix >= 0 && ix < g.in.w;
            for (int ic = 0; ic < spec.in_channels; ++ic, ++slot) {
              std::uint64_t* const dp = act_pos + slot * sw;
              std::uint64_t* const dn = act_neg + slot * sw;
              const std::size_t ai = inside ? g.index(iy, ix, ic) : 0;
              if (!inside || act_levels[ai] == 0) {
                std::fill_n(dp, sw, std::uint64_t{0});
                std::fill_n(dn, sw, std::uint64_t{0});
                continue;
              }
              if (act_planned) {
                const std::uint64_t* const lane = act_plan.lane_words(ai);
                std::copy_n(lane + sp * sw, sw, dp);
                std::copy_n(lane + sn * sw, sw, dn);
              } else {
                const auto lane = static_cast<std::uint32_t>(ai);
                act_bank_.fill(act_levels[ai], lane, sched.offset(true, k),
                               seg, {dp, sw});
                act_bank_.fill(act_levels[ai], lane, sched.offset(false, k),
                               seg, {dn, sw});
              }
              live_bm[slot >> 6] |= std::uint64_t{1} << (slot & 63);
              ++live;
            }
          }
        }
        if (charge_act) {
          charge(ws.stats, act_planned, 2 * live, seg);
        }
        // The position's taps [tap_lo, tap_hi) in rectangle raster order
        // (meaningful only when it reads a tap at all: otherwise no group
        // has a product and none is walked).
        const std::size_t tap_lo = static_cast<std::size_t>(
            (ky_lo - ty0) * tw + (kx_lo - tx0));
        const std::size_t tap_hi = static_cast<std::size_t>(
            (ky_hi - 1 - ty0) * tw + (kx_hi - 1 - tx0) + 1);
        // Entries hold their own sign phase only: one slot-k table serves
        // both phases' groups.
        const std::uint64_t* const slot_words =
            tbl.words.data() + k * tbl.total() * sw;
        for (int ph = 0; ph < 2; ++ph) {
          const bool positive = ph == 0;
          const std::uint64_t* const act_w = positive ? act_pos : act_neg;
          std::uint64_t products_here = 0;
          for (std::size_t oc = oc_lo; oc < oc_hi; ++oc) {
            const std::size_t group =
                static_cast<std::size_t>(ph) * oc_count + oc;
            const std::uint64_t* const gbm =
                tbl.group_bm.data() + group * bm_words;
            std::uint64_t products = 0;
            for (std::size_t w = 0; w < bm_words; ++w) {
              products += static_cast<std::uint64_t>(
                  std::popcount(gbm[w] & live_bm[w]));
            }
            if (products == 0) {
              continue;  // every operand gated: the counter does not move
            }
            products_here += products;
            const std::uint32_t* const to = tbl.taps_of(group);
            const std::size_t off = to[tap_lo];
            const std::size_t n_ent = to[tap_hi] - off;
            const std::uint32_t* const sl = tbl.slot_of.data() + off;
            const std::uint64_t* const ww = slot_words + off * sw;
            std::int64_t ones = 0;
            if (sw == 1) {
              // Four independent accumulators break the OR dependency
              // chain; dead slots contribute zero words, no branch.
              std::uint64_t a0 = 0;
              std::uint64_t a1 = 0;
              std::uint64_t a2 = 0;
              std::uint64_t a3 = 0;
              std::size_t ei = 0;
              for (; ei + 4 <= n_ent; ei += 4) {
                a0 |= act_w[sl[ei]] & ww[ei];
                a1 |= act_w[sl[ei + 1]] & ww[ei + 1];
                a2 |= act_w[sl[ei + 2]] & ww[ei + 2];
                a3 |= act_w[sl[ei + 3]] & ww[ei + 3];
              }
              for (; ei < n_ent; ++ei) {
                a0 |= act_w[sl[ei]] & ww[ei];
              }
              ones = std::popcount((a0 | a1) | (a2 | a3));
            } else {
              // Wide segments: one fused gather over the walked entries,
              // accumulator in registers; dead slots again OR in zeros.
              ones = static_cast<std::int64_t>(kt.gather_and_or_popcount(
                  ws.acc, act_w, sl, ww, n_ent, sw));
            }
            ws.counters[oc] += positive ? ones : -ones;
          }
          ws.stats.skipped_operands += signed_weights[ph] - products_here;
          ws.stats.product_bits += products_here * seg;
          charge(ws.stats, true, products_here, seg);
        }
      }
      for (std::size_t oc = oc_lo; oc < oc_hi; ++oc) {
        out.at(py, px, static_cast<int>(oc)) =
            static_cast<float>(static_cast<double>(ws.counters[oc]) /
                               counted) +
            bias[oc];
      }
    }
  };

  const std::size_t units = rows * oc_blocks;
  if (pool != nullptr) {
    // By reference: a std::function holding the closure itself would
    // allocate on every sharded node of every forward.
    pool->parallel_for(units, std::ref(run_unit));
  } else {
    for (std::size_t unit = 0; unit < units; ++unit) {
      run_unit(unit, 0);
    }
  }
  for (const WorkerState& ws : states) {
    run.merge(ws.stats);
  }
}

void ScNetwork::run_max_pool(const LoweredOp& op, const nn::Tensor& input,
                             nn::Tensor& out, RunStats& run) {
  if (cfg_.max_pool == MaxPoolMode::kExact) {
    GraphExecutor::run_max_pool(op, input, out, run);
    return;
  }
  const int p = op.max_pool->window();
  const nn::Shape in = input.shape();
  const nn::Shape os = op.max_pool->output_shape(in);
  const std::size_t phase = cfg_.phase_length();
  const std::size_t words = word_count(phase);
  const sc::kernels::KernelTable& kt = sc::kernels::table();

  // Quantize once per layer; negative inputs clamp to level 0 (a unipolar
  // stream cannot go below zero, and the following ReLU would discard the
  // sign anyway), so the stochastic max saturates at 0 for all-negative
  // windows.
  const std::span<std::uint32_t> levels =
      arena_.alloc<std::uint32_t>(input.size());
  quantize_activations_into(act_bank_, input, levels);
  const std::span<std::uint64_t> acc = arena_.alloc<std::uint64_t>(words);
  const std::span<std::uint64_t> cand = arena_.alloc<std::uint64_t>(words);

  out.resize(os);
  std::uint64_t bits_generated = 0;
  for (int oy = 0; oy < os.h; ++oy) {
    for (int ox = 0; ox < os.w; ++ox) {
      for (int c = 0; c < os.c; ++c) {
        // Tournament over the window: acc starts as the first candidate's
        // phase stream, then the max FSM folds in the rest. One portable
        // FSM body (bit-serial semantics, simulated a word at a time)
        // serves every exec mode, thread count and SIMD level, so
        // bit-determinism is structural.
        bool first = true;
        for (int ky = 0; ky < p; ++ky) {
          for (int kx = 0; kx < p; ++kx) {
            const std::size_t ai =
                input.index(oy * p + ky, ox * p + kx, c);
            std::uint64_t* dst = first ? acc.data() : cand.data();
            std::fill_n(dst, words, std::uint64_t{0});
            if (levels[ai] != 0) {
              act_bank_.fill(levels[ai], static_cast<std::uint32_t>(ai), 0,
                             phase, {dst, words});
              bits_generated += phase;
            }
            if (!first) {
              kt.max_stream(acc.data(), acc.data(), cand.data(), phase);
            }
            first = false;
          }
        }
        out.at(oy, ox, c) = static_cast<float>(
            static_cast<double>(kt.popcount_words(acc.data(), words)) /
            static_cast<double>(phase));
      }
    }
  }
  run.stream_bits_generated += bits_generated;
}

core::Report ScNetwork::validate_plans() {
  core::Report report;
  if (cfg_.exec != ExecMode::kPlanned) {
    return report;  // scalar mode builds no tables; nothing to validate
  }
  const std::size_t phase = cfg_.phase_length();
  for (std::size_t s = 0; s < ops().size(); ++s) {
    const LoweredOp& op = ops()[s];
    const StageScratch& scratch = stage_scratch_[s];
    // Nodes that are unweighted or never ran the planned body hold no
    // table; skip them rather than force a build the run never exercised.
    if (!op.weighted() || scratch.table == nullptr) {
      continue;
    }
    // The table's schedule and layout need no comparison: the forward
    // re-fetches the table unless it is keyed on the ones it executes.
    // Re-derived: the live taps of the input the stage last ran on, and
    // the table against the node's folded weights.
    report.merge(check_live_taps(conv_geometry(op, scratch.input, phase),
                                 op.name + "/live-taps"));
    std::vector<float> folded;
    report.merge(check_product_table(*scratch.table, wgt_plans_->bank(),
                                     node_weights(op, folded),
                                     op.name + "/product-table"));
  }
  return report;
}

}  // namespace acoustic::sim
