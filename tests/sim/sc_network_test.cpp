#include "sim/sc_network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "obs/span.hpp"
#include "sc/rng.hpp"
#include "train/models.hpp"

namespace acoustic::sim {
namespace {

nn::Tensor random_unit(nn::Shape shape, std::uint32_t seed) {
  nn::Tensor t(shape);
  sc::XorShift32 rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.next_double());
  }
  return t;
}

ScConfig accurate_config() {
  ScConfig cfg;
  cfg.stream_length = 8192;
  cfg.sng_width = 12;
  return cfg;
}

TEST(ScNetwork, ConvMatchesOrExactReference) {
  // The bit-level executor must converge to the kOrExact float semantics
  // as streams lengthen — that equivalence is what makes training with
  // OR-aware arithmetic transfer to the accelerator.
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 2, .out_channels = 3, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kOrExact});
  conv.initialize(5);
  const nn::Tensor x = random_unit(nn::Shape{5, 5, 2}, 11);
  const nn::Tensor reference = net.forward(x);

  ScNetwork executor(net, accurate_config());
  const nn::Tensor got = executor.forward(x);
  ASSERT_EQ(got.shape(), reference.shape());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], reference[i], 0.05f) << "output " << i;
  }
}

TEST(ScNetwork, DenseMatchesOrExactReference) {
  nn::Network net;
  auto& dense = net.add<nn::Dense>(nn::DenseSpec{
      .in_features = 12, .out_features = 4, .mode = nn::AccumMode::kOrExact});
  dense.initialize(7);
  const nn::Tensor x = random_unit(nn::Shape{1, 1, 12}, 3);
  const nn::Tensor reference = net.forward(x);
  ScNetwork executor(net, accurate_config());
  const nn::Tensor got = executor.forward(x);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], reference[i], 0.05f);
  }
}

TEST(ScNetwork, ReluRunsInBinaryDomain) {
  nn::Network net;
  auto& dense = net.add<nn::Dense>(nn::DenseSpec{
      .in_features = 2, .out_features = 2, .mode = nn::AccumMode::kOrExact});
  net.add<nn::ReLU>();
  dense.weights()[dense.weight_index(0, 0)] = -0.9f;
  dense.weights()[dense.weight_index(0, 1)] = -0.9f;
  dense.weights()[dense.weight_index(1, 0)] = 0.9f;
  dense.weights()[dense.weight_index(1, 1)] = 0.9f;
  nn::Tensor x = nn::Tensor::vector(2);
  x[0] = 0.8f;
  x[1] = 0.8f;
  ScNetwork executor(net, accurate_config());
  const nn::Tensor y = executor.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);  // negative counter clamped by ReLU
  EXPECT_GT(y[1], 0.5f);
}

TEST(ScNetwork, SkippingPoolMatchesFullPoolingInExpectation) {
  // Computation skipping must be an unbiased implementation of average
  // pooling: compare against the same conv with kMux pooling (full-length
  // streams, binary averaging).
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 1, .out_channels = 2, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kOrExact});
  net.add<nn::AvgPool2D>(2);
  conv.initialize(9);
  const nn::Tensor x = random_unit(nn::Shape{8, 8, 1}, 17);

  ScConfig skip = accurate_config();
  skip.pooling = PoolingMode::kSkipping;
  ScConfig mux = accurate_config();
  mux.pooling = PoolingMode::kMux;

  ScNetwork skip_exec(net, skip);
  ScNetwork mux_exec(net, mux);
  const nn::Tensor ys = skip_exec.forward(x);
  const nn::Tensor ym = mux_exec.forward(x);
  ASSERT_EQ(ys.shape(), ym.shape());
  for (std::size_t i = 0; i < ys.size(); ++i) {
    EXPECT_NEAR(ys[i], ym[i], 0.06f) << "output " << i;
  }
}

TEST(ScNetwork, SkippingReducesProductBitsByWindowSize) {
  // The headline II-C claim: conv work drops by the pooling window area
  // (4x for 2x2).
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 1, .out_channels = 2, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kOrExact});
  net.add<nn::AvgPool2D>(2);
  conv.initialize(2);
  nn::Tensor x(nn::Shape{8, 8, 1});
  x.fill(0.5f);

  ScConfig skip;
  skip.stream_length = 256;
  ScConfig mux;
  mux.stream_length = 256;
  mux.pooling = PoolingMode::kMux;

  ScNetwork skip_exec(net, skip);
  ScNetwork mux_exec(net, mux);
  (void)skip_exec.forward(x);
  (void)mux_exec.forward(x);
  const double ratio =
      static_cast<double>(mux_exec.stats().product_bits) /
      static_cast<double>(skip_exec.stats().product_bits);
  EXPECT_NEAR(ratio, 4.0, 0.01);
}

TEST(ScNetwork, OperandGatingSkipsZeroActivations) {
  nn::Network net;
  auto& dense = net.add<nn::Dense>(nn::DenseSpec{
      .in_features = 4, .out_features = 1, .mode = nn::AccumMode::kOrExact});
  for (std::size_t i = 0; i < 4; ++i) {
    dense.weights()[i] = 0.5f;
  }
  nn::Tensor x = nn::Tensor::vector(4);
  x[0] = 0.5f;  // other three inputs are zero
  ScConfig cfg;
  cfg.stream_length = 128;
  ScNetwork executor(net, cfg);
  (void)executor.forward(x);
  EXPECT_EQ(executor.stats().product_bits, 64u);  // one lane, one phase
}

TEST(ScNetwork, StatsAccumulateAcrossCalls) {
  nn::Network net;
  auto& dense = net.add<nn::Dense>(nn::DenseSpec{
      .in_features = 2, .out_features = 1, .mode = nn::AccumMode::kOrExact});
  dense.weights()[0] = 0.5f;
  dense.weights()[1] = 0.5f;
  nn::Tensor x = nn::Tensor::vector(2);
  x.fill(0.5f);
  ScConfig cfg;
  cfg.stream_length = 64;
  ScNetwork executor(net, cfg);
  (void)executor.forward(x);
  const auto first = executor.stats().product_bits;
  (void)executor.forward(x);
  EXPECT_EQ(executor.stats().product_bits, 2 * first);
  EXPECT_EQ(executor.stats().layers_run, 2u);
  (void)executor.take_stats();
  EXPECT_EQ(executor.stats().product_bits, 0u);
}

TEST(ScNetwork, RejectsTooShortStreams) {
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 1, .out_channels = 1, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kOrExact});
  net.add<nn::AvgPool2D>(4);
  conv.initialize(1);
  nn::Tensor x(nn::Shape{8, 8, 1});
  ScConfig cfg;
  cfg.stream_length = 16;  // phase 8 < 4*4 window
  ScNetwork executor(net, cfg);
  EXPECT_THROW((void)executor.forward(x), std::invalid_argument);
}

TEST(ScNetwork, RejectsMalformedNodes) {
  // A folded BatchNorm(2) after a 64-channel conv would read its
  // per-channel scale and shift out of bounds; a 1-channel input fed to a
  // 3-channel conv would gather past the input. Both exec modes reject
  // them, naming the layer and both counts.
  nn::Network bn;
  bn.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 1, .out_channels = 64,
                                  .kernel = 3, .padding = 1,
                                  .mode = nn::AccumMode::kOrExact})
      .initialize(1);
  bn.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = 2});
  nn::Network rgb;
  rgb.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 3, .out_channels = 2,
                                   .kernel = 3, .padding = 1,
                                   .mode = nn::AccumMode::kOrExact})
      .initialize(1);
  const std::pair<nn::Network*, const char*> cases[] = {
      {&bn, "batch-norm(2): expects 2 channels but receives 64"},
      {&rgb, "conv3x3(3->2): expects 3 input channels but receives 1"}};
  const nn::Tensor x = random_unit(nn::Shape{4, 4, 1}, 2);
  for (const auto& [net, message] : cases) {
    for (const ExecMode mode : {ExecMode::kScalar, ExecMode::kPlanned}) {
      ScConfig cfg;
      cfg.exec = mode;
      ScNetwork executor(*net, cfg);
      try {
        (void)executor.forward(x);
        ADD_FAILURE() << "forward accepted: " << message;
      } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(), message);
      }
    }
  }
}

TEST(ScNetwork, RejectsNetworkStartingWithPool) {
  nn::Network net;
  net.add<nn::AvgPool2D>(2);
  ScConfig cfg;
  EXPECT_THROW(ScNetwork(net, cfg), std::invalid_argument);
}

TEST(ScNetwork, LongerStreamsReduceError) {
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 2, .out_channels = 2, .kernel = 3,
      .mode = nn::AccumMode::kOrExact});
  conv.initialize(21);
  const nn::Tensor x = random_unit(nn::Shape{6, 6, 2}, 77);
  const nn::Tensor reference = net.forward(x);

  double err_short = 0.0;
  double err_long = 0.0;
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    ScConfig cfg;
    cfg.activation_seed = seed;
    cfg.weight_seed = seed * 31;
    cfg.stream_length = 64;
    ScNetwork short_exec(net, cfg);
    const nn::Tensor ys = short_exec.forward(x);
    cfg.stream_length = 4096;
    ScNetwork long_exec(net, cfg);
    const nn::Tensor yl = long_exec.forward(x);
    for (std::size_t i = 0; i < reference.size(); ++i) {
      err_short += std::fabs(ys[i] - reference[i]);
      err_long += std::fabs(yl[i] - reference[i]);
    }
  }
  EXPECT_LT(err_long, err_short);
}

/// What perfbench's node ledger reads of one "layer" span.
struct NodeSpan {
  std::uint32_t seq = 0;
  std::string name;
  std::string kind;
  std::uint64_t product_bits = 0;
  std::uint64_t skipped_operands = 0;
  std::uint64_t stream_bits_generated = 0;
  std::uint64_t stream_bits_reused = 0;

  bool operator==(const NodeSpan&) const = default;
};

std::vector<NodeSpan> node_spans(nn::Network& net, const nn::Tensor& x) {
  ScConfig cfg;
  cfg.stream_length = 128;
  cfg.max_pool = MaxPoolMode::kStochastic;
  ScNetwork exec(net, cfg);
  obs::Profiler profiler;
  exec.set_profiler(&profiler);
  (void)exec.forward(x);
  std::vector<NodeSpan> spans;
  for (const obs::SpanRecord& rec : profiler.take()) {
    EXPECT_EQ(rec.category, "layer");
    NodeSpan span{rec.seq, rec.name, rec.kind};
    for (const auto& [key, value] : rec.counters) {
      std::uint64_t* const field =
          key == "product_bits"            ? &span.product_bits
          : key == "skipped_operands"      ? &span.skipped_operands
          : key == "stream_bits_generated" ? &span.stream_bits_generated
          : key == "stream_bits_reused"    ? &span.stream_bits_reused
                                           : nullptr;
      if (field == nullptr) {
        ADD_FAILURE() << "unexpected counter " << key;
        continue;
      }
      *field = value;
    }
    spans.push_back(span);
  }
  return spans;
}

/// Prints a span as the initializer the test compares against.
void PrintTo(const NodeSpan& s, std::ostream* os) {
  *os << "{" << s.seq << ", \"" << s.name << "\", \"" << s.kind << "\", "
      << s.product_bits << ", " << s.skipped_operands << ", "
      << s.stream_bits_generated << ", " << s.stream_bits_reused << "}";
}

TEST(ScNetwork, NodeSpansUnchanged) {
  // Absolute pin of the SC node spans: one per lowered node with its
  // counter deltas, the node list and per-node work the perfbench ledger
  // keys on. The stochastic max puts cifar-max's max-pool nodes on the SC
  // datapath.
  nn::Network resnet = train::build_resnet_tiny(nn::AccumMode::kOrApprox);
  nn::Network cifar =
      train::build_cifar_small_maxpool(nn::AccumMode::kOrApprox);
  const nn::Tensor x = random_unit(nn::Shape{16, 16, 3}, 5);
  const std::vector<NodeSpan> want_resnet = {
      {0, "conv3x3(3->8)", "conv+pool", 807664, 4817, 98048, 1010480},
      {1, "skip-save", "skip-save", 0, 0, 0, 0},
      {2, "conv3x3(8->8)", "conv", 1274496, 16950, 41984, 1593600},
      {3, "conv3x3(8->8)", "conv", 1068864, 20163, 35712, 1337152},
      {4, "skip-add", "skip-add", 0, 0, 0, 0},
      {5, "dense(512->10)", "dense", 233536, 1471, 47616, 281152},
  };
  const std::vector<NodeSpan> want_cifar = {
      {0, "conv5x5(3->8)", "conv", 8371968, 22788, 98048, 10471680},
      {1, "maxpool2x2", "max-pool", 0, 0, 77376, 0},
      {2, "conv5x5(8->16)", "conv", 7593408, 86153, 53248, 8551616},
      {3, "maxpool2x2", "max-pool", 0, 0, 33344, 0},
      {4, "dense(256->10)", "dense", 126144, 589, 25600, 151744},
  };
  EXPECT_EQ(node_spans(resnet, x), want_resnet);
  EXPECT_EQ(node_spans(cifar, x), want_cifar);
}

}  // namespace
}  // namespace acoustic::sim
