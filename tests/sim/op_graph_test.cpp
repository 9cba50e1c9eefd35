// Unit tests for the op-graph lowering pass (DESIGN.md section 15): every
// nn::OpKind must lower, and the lowering contract (fusion, folding,
// post-op attachment, explicit skip nodes) must hold structurally —
// independent of any executor.
#include "sim/op_graph.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"

namespace acoustic::sim {
namespace {

TEST(OpGraph, EveryOpKindLowers) {
  // One network holding all ten kinds: a conv followed by every
  // binary-domain kind, then a projection block, a max pool and a dense.
  nn::Network net;
  auto state = std::make_shared<nn::SkipState>();
  net.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 1, .out_channels = 2,
                                   .kernel = 3, .padding = 1,
                                   .mode = nn::AccumMode::kOrExact});
  net.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = 2});
  net.add<nn::AvgPool2D>(2);
  net.add<nn::ReLU>();
  net.add<nn::OrSaturation>();
  net.add<nn::SkipSave>(state);
  net.add<nn::SkipProject>(
      state, nn::ConvSpec{.in_channels = 2, .out_channels = 4, .kernel = 1,
                          .stride = 2, .mode = nn::AccumMode::kOrExact});
  net.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 2, .out_channels = 4,
                                   .kernel = 3, .stride = 2, .padding = 1,
                                   .mode = nn::AccumMode::kOrExact});
  net.add<nn::SkipAdd>(state);
  net.add<nn::MaxPool2D>(2);
  net.add<nn::Dense>(nn::DenseSpec{.in_features = 4, .out_features = 3,
                                   .mode = nn::AccumMode::kOrExact});
  std::set<nn::OpKind> kinds;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    kinds.insert(net.layer(i).kind());
  }
  ASSERT_EQ(kinds.size(), 10u);

  const std::vector<nn::OpKind> node_kinds = {
      nn::OpKind::kConv2D,  nn::OpKind::kSkipSave, nn::OpKind::kSkipProject,
      nn::OpKind::kConv2D,  nn::OpKind::kSkipAdd,  nn::OpKind::kMaxPool2D,
      nn::OpKind::kDense};
  const auto post_op_kinds = [](const LoweredOp& op) {
    std::vector<nn::OpKind> out;
    for (const nn::Layer* layer : op.post_ops) {
      out.push_back(layer->kind());
    }
    return out;
  };
  // Node i's defining layer is layer layer_of[i] of the network.
  const auto expect_nodes = [&](const std::vector<LoweredOp>& ops,
                                const std::vector<std::size_t>& layer_of) {
    ASSERT_EQ(ops.size(), node_kinds.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(ops[i].kind, node_kinds[i]) << "node " << i;
      EXPECT_EQ(ops[i].layer, &net.layer(layer_of[i])) << "node " << i;
      EXPECT_EQ(ops[i].weighted(), nn::is_weighted(node_kinds[i]))
          << "node " << i;
      if (i > 0) {
        EXPECT_TRUE(ops[i].post_ops.empty()) << "node " << i;
      }
    }
    EXPECT_EQ(ops[0].conv, &net.layer(0));
    EXPECT_EQ(ops[2].conv,
              &static_cast<nn::SkipProject&>(net.layer(6)).conv());
    EXPECT_EQ(ops[3].conv, &net.layer(7));
    EXPECT_EQ(ops[5].max_pool, &net.layer(9));
    EXPECT_EQ(ops[6].conv, &static_cast<nn::Dense&>(net.layer(10)).conv());
    // The network's one skip connection is connection 0.
    EXPECT_EQ(ops[1].skip, 0u);
    EXPECT_EQ(ops[2].skip, 0u);
    EXPECT_EQ(ops[4].skip, 0u);
  };
  const std::vector<std::size_t> layer_of = {0, 5, 6, 7, 8, 9, 10};

  // The SC lowering absorbs the BatchNorm and fuses the pool into the
  // first conv; only the ReLU and the OR saturation stay post-ops.
  const std::vector<LoweredOp> sc =
      lower_graph(net, sc_lower_options(ScConfig{}), "test");
  expect_nodes(sc, layer_of);
  EXPECT_EQ(sc[0].bn, &net.layer(1));
  EXPECT_EQ(sc[0].fused_pool, &net.layer(2));
  EXPECT_EQ(post_op_kinds(sc[0]),
            (std::vector<nn::OpKind>{nn::OpKind::kReLU,
                                     nn::OpKind::kOrSaturation}));

  // Without options all four binary-domain kinds attach as post-ops.
  const std::vector<LoweredOp> plain =
      lower_graph(net, LowerOptions{}, "test");
  expect_nodes(plain, layer_of);
  EXPECT_EQ(plain[0].bn, nullptr);
  EXPECT_EQ(plain[0].fused_pool, nullptr);
  EXPECT_EQ(post_op_kinds(plain[0]),
            (std::vector<nn::OpKind>{
                nn::OpKind::kBatchNorm, nn::OpKind::kAvgPool2D,
                nn::OpKind::kReLU, nn::OpKind::kOrSaturation}));
}

TEST(OpGraph, ConvAbsorbsBatchNormAndPoolUnderOptions) {
  nn::Network net;
  net.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 2, .out_channels = 4,
                                   .kernel = 3, .padding = 1,
                                   .mode = nn::AccumMode::kOrExact});
  net.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = 4});
  net.add<nn::AvgPool2D>(2);
  net.add<nn::ReLU>();

  LowerOptions opt;
  opt.fold_batch_norm = true;
  opt.fuse_avg_pool = true;
  const std::vector<LoweredOp> ops = lower_graph(net, opt, "test");
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, nn::OpKind::kConv2D);
  EXPECT_TRUE(ops[0].weighted());
  EXPECT_NE(ops[0].bn, nullptr);
  EXPECT_NE(ops[0].fused_pool, nullptr);
  ASSERT_EQ(ops[0].post_ops.size(), 1u);  // the ReLU
  EXPECT_EQ(ops[0].post_ops[0]->kind(), nn::OpKind::kReLU);
}

TEST(OpGraph, WithoutOptionsBnAndPoolBecomePostOps) {
  nn::Network net;
  net.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 2, .out_channels = 4,
                                   .kernel = 3, .padding = 1,
                                   .mode = nn::AccumMode::kOrExact});
  net.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = 4});
  net.add<nn::AvgPool2D>(2);

  const std::vector<LoweredOp> ops = lower_graph(net, LowerOptions{}, "test");
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].bn, nullptr);
  EXPECT_EQ(ops[0].fused_pool, nullptr);
  EXPECT_EQ(ops[0].post_ops.size(), 2u);
}

TEST(OpGraph, SkipTripleBecomesExplicitNodes) {
  nn::Network net;
  auto state = std::make_shared<nn::SkipState>();
  net.add<nn::SkipSave>(state);
  net.add<nn::SkipProject>(
      state, nn::ConvSpec{.in_channels = 2, .out_channels = 4, .kernel = 1,
                          .stride = 2, .mode = nn::AccumMode::kOrExact});
  net.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 2, .out_channels = 4,
                                   .kernel = 3, .stride = 2, .padding = 1,
                                   .mode = nn::AccumMode::kOrExact});
  net.add<nn::SkipAdd>(state);

  const std::vector<LoweredOp> ops = lower_graph(net, LowerOptions{}, "test");
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0].kind, nn::OpKind::kSkipSave);
  EXPECT_EQ(ops[1].kind, nn::OpKind::kSkipProject);
  // The projection is a weighted node: its conv runs the SC datapath.
  EXPECT_TRUE(ops[1].weighted());
  EXPECT_EQ(ops[2].kind, nn::OpKind::kConv2D);
  EXPECT_EQ(ops[3].kind, nn::OpKind::kSkipAdd);
  // All three skip nodes share the one connection.
  EXPECT_EQ(ops[0].skip, ops[1].skip);
  EXPECT_EQ(ops[0].skip, ops[3].skip);
}

TEST(OpGraph, SkipConnectionsAreNumberedInSaveOrder) {
  // Two connections, the second nested in the first: each node carries
  // its own connection's index, whatever the order of the adds.
  nn::Network net;
  auto outer = std::make_shared<nn::SkipState>();
  auto inner = std::make_shared<nn::SkipState>();
  net.add<nn::SkipSave>(outer);
  net.add<nn::SkipSave>(inner);
  net.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 2, .out_channels = 2,
                                   .kernel = 3, .padding = 1});
  net.add<nn::SkipAdd>(inner);
  net.add<nn::SkipAdd>(outer);
  const std::vector<LoweredOp> ops = lower_graph(net, LowerOptions{}, "test");
  ASSERT_EQ(ops.size(), 5u);
  EXPECT_EQ(ops[0].skip, 0u);
  EXPECT_EQ(ops[1].skip, 1u);
  EXPECT_EQ(ops[3].skip, 1u);
  EXPECT_EQ(ops[4].skip, 0u);
}

TEST(OpGraph, SkipAddOrProjectionBeforeItsSaveThrows) {
  for (const bool project : {false, true}) {
    nn::Network net;
    auto state = std::make_shared<nn::SkipState>();
    net.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 2, .out_channels = 2,
                                     .kernel = 1});
    if (project) {
      net.add<nn::SkipProject>(
          state, nn::ConvSpec{.in_channels = 2, .out_channels = 2,
                              .kernel = 1});
    } else {
      net.add<nn::SkipAdd>(state);
    }
    net.add<nn::SkipSave>(state);
    EXPECT_THROW((void)lower_graph(net, LowerOptions{}, "test"),
                 std::invalid_argument)
        << (project ? "projection" : "add");
  }
}

TEST(OpGraph, MaxPoolIsItsOwnNode) {
  nn::Network net;
  net.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 1, .out_channels = 2,
                                   .kernel = 3, .padding = 1,
                                   .mode = nn::AccumMode::kOrExact});
  net.add<nn::ReLU>();
  net.add<nn::MaxPool2D>(2);

  const std::vector<LoweredOp> ops = lower_graph(net, LowerOptions{}, "test");
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[1].kind, nn::OpKind::kMaxPool2D);
  EXPECT_NE(ops[1].max_pool, nullptr);
  EXPECT_FALSE(ops[1].weighted());
}

TEST(OpGraph, BinaryDomainFirstLayerThrows) {
  nn::Network net;
  net.add<nn::ReLU>();
  EXPECT_THROW((void)lower_graph(net, LowerOptions{}, "test"),
               std::invalid_argument);
}

TEST(WindowSchedule, TimetableCoversBothPhasesInsideTheBank) {
  // window_schedule is the one definition of a weighted node's slot
  // timetable. A window that does not tile the conv output falls back to
  // pool 1, and each of the pool^2 positions counts phase / pool^2 bits.
  // Every timetable the executor runs (seg > 0; a shorter phase throws
  // before any table is built) gives each (sign, k) its own slot, and
  // lays each sign phase's windows out in order inside that phase: the +
  // phase in [0, phase), the - phase in [phase, 2 * phase), which is the
  // length of the activation and weight banks.
  for (std::size_t phase = 1; phase <= 200; ++phase) {
    for (int pool = 1; pool <= 4; ++pool) {
      for (int h = 1; h <= 9; ++h) {
        for (int w = 1; w <= 9; ++w) {
          const auto where = [&] {
            return "phase " + std::to_string(phase) + " pool " +
                   std::to_string(pool) + " map " + std::to_string(h) + "x" +
                   std::to_string(w);
          };
          const WindowSchedule ws = window_schedule(phase, pool, h, w);
          const bool tiles = h % pool == 0 && w % pool == 0;
          ASSERT_EQ(ws.fused, tiles) << where();
          ASSERT_EQ(ws.pool, tiles ? pool : 1) << where();
          const SegmentSchedule& s = ws.sched;
          const auto positions = static_cast<std::size_t>(ws.pool * ws.pool);
          ASSERT_EQ(s.phase, phase) << where();
          ASSERT_EQ(s.positions, positions) << where();
          ASSERT_EQ(s.seg, phase / positions) << where();
          if (s.seg == 0) {
            continue;
          }
          std::vector<bool> seen(s.slots(), false);
          for (const bool positive : {true, false}) {
            std::size_t end = positive ? 0 : phase;  // last window's end
            for (std::size_t k = 0; k < s.positions; ++k) {
              const std::size_t idx = s.slot_index(positive, k);
              ASSERT_LT(idx, s.slots()) << where();
              ASSERT_FALSE(seen[idx]) << where() << " slot " << idx;
              seen[idx] = true;
              const std::size_t begin = s.offset(positive, k);
              ASSERT_GE(begin, end) << where() << " k " << k;
              end = begin + s.seg;
            }
            ASSERT_LE(end, positive ? phase : 2 * phase) << where();
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace acoustic::sim
