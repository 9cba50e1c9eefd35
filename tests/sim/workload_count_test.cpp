// One workload count for both simulators (paper IV-A): every MAC the
// performance model charges a layer (nn::LayerDesc::macs) is, in the
// functional executor, an AND product of one window slot, a product
// skipped by operand gating, or the product of a weight that is scheduled
// in neither sign phase (exactly zero, or non-finite, after the BatchNorm
// fold).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/model_zoo.hpp"
#include "nn/zoo_build.hpp"
#include "obs/span.hpp"
#include "sc/rng.hpp"
#include "sim/op_graph.hpp"
#include "sim/sc_network.hpp"

namespace acoustic::sim {
namespace {

TEST(WorkloadCount, EveryDescriptorMacIsAProductASkipOrAnInactiveWeight) {
  for (const nn::NetworkDesc& desc :
       {nn::lenet5(), nn::cifar10_cnn(), nn::svhn_cnn()}) {
    nn::Network net = nn::build_from_descriptor(desc);
    nn::Tensor x(nn::zoo_input_shape(desc));
    sc::XorShift32 rng(17);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<float>(rng.next_double());
    }
    ScConfig cfg;
    cfg.stream_length = 256;
    ScNetwork exec(net, cfg);
    obs::Profiler profiler;
    exec.set_profiler(&profiler);
    (void)exec.forward(x);

    // The executor's nodes, and one profile row per node, in node order.
    const std::vector<LoweredOp> ops =
        lower_graph(net, sc_lower_options(cfg), "WorkloadCount");
    const std::vector<obs::ProfileRow> rows =
        obs::aggregate_profile(profiler.take(), "layer");
    ASSERT_EQ(rows.size(), ops.size()) << desc.name;

    // The weighted nodes are the descriptor's layers, in order.
    std::size_t next = 0;
    std::vector<float> folded;
    for (std::size_t s = 0; s < ops.size(); ++s) {
      const LoweredOp& op = ops[s];
      if (!op.weighted()) {
        continue;
      }
      ASSERT_LT(next, desc.layers.size()) << desc.name;
      const nn::LayerDesc& layer = desc.layers[next++];
      const std::uint64_t positions =
          static_cast<std::uint64_t>(layer.out_h()) * layer.out_w();
      const std::size_t seg =
          window_schedule(cfg.phase_length(), op.pool_window(),
                          layer.out_h(), layer.out_w())
              .sched.seg;
      std::uint64_t inactive = 0;
      for (const float w : node_weights(op, folded)) {
        inactive += w == 0.0f || !std::isfinite(w) ? 1 : 0;
      }
      const std::uint64_t products = rows[s].counter("product_bits");
      const std::uint64_t skipped = rows[s].counter("skipped_operands");
      ASSERT_GT(seg, 0u);
      EXPECT_EQ(products % seg, 0u) << desc.name << "/" << layer.label;
      EXPECT_EQ(products / seg + skipped + inactive * positions,
                layer.macs())
          << desc.name << "/" << layer.label << " (" << op.name << ")";
    }
    EXPECT_EQ(next, desc.layers.size()) << desc.name;
  }
}

}  // namespace
}  // namespace acoustic::sim
