#include "sim/bipolar_network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>

#include "nn/activation.hpp"
#include "nn/residual.hpp"
#include "sc/rng.hpp"
#include "sim/sc_network.hpp"

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

TEST(BipolarNetwork, RejectsZeroStreams) {
  nn::Network net;
  net.add<nn::Dense>(nn::DenseSpec{.in_features = 2, .out_features = 1});
  BipolarConfig cfg;
  cfg.stream_length = 0;
  EXPECT_THROW(BipolarNetwork(net, cfg), std::invalid_argument);
}

TEST(BipolarNetwork, DenseConvergesToPlainSum) {
  // Bipolar-MUX computes the conventional (non-saturating) dot product, so
  // it should converge to the kSum reference for long streams.
  nn::Network net;
  auto& dense = net.add<nn::Dense>(nn::DenseSpec{
      .in_features = 8, .out_features = 3, .mode = nn::AccumMode::kSum});
  dense.initialize(3);
  const nn::Tensor x = random_unit(nn::Shape{1, 1, 8}, 7);
  const nn::Tensor reference = net.forward(x);
  BipolarConfig cfg;
  cfg.stream_length = 1 << 17;
  cfg.sng_width = 12;
  BipolarNetwork exec(net, cfg);
  const nn::Tensor got = exec.forward(x);
  for (std::size_t i = 0; i < got.size(); ++i) {
    // MUX noise scales with fan-in; 8-wide is benign at this length.
    EXPECT_NEAR(got[i], reference[i], 0.25f) << "output " << i;
  }
}

TEST(BipolarNetwork, ConvRunsAndHasRightShape) {
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 2, .out_channels = 3, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kSum});
  net.add<nn::ReLU>();
  conv.initialize(5);
  const nn::Tensor x = random_unit(nn::Shape{5, 5, 2}, 9);
  BipolarConfig cfg;
  cfg.stream_length = 4096;
  BipolarNetwork exec(net, cfg);
  const nn::Tensor y = exec.forward(x);
  EXPECT_EQ(y.shape(), (nn::Shape{5, 5, 3}));
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_GE(y[i], 0.0f);  // ReLU ran in the binary domain
    EXPECT_TRUE(std::isfinite(y[i]));
  }
}

TEST(BipolarNetwork, NoiseShrinksWithStreamLength) {
  nn::Network net;
  auto& dense = net.add<nn::Dense>(nn::DenseSpec{
      .in_features = 32, .out_features = 4, .mode = nn::AccumMode::kSum});
  dense.initialize(21);
  const nn::Tensor x = random_unit(nn::Shape{1, 1, 32}, 13);
  const nn::Tensor reference = net.forward(x);

  const auto total_error = [&](std::size_t len) {
    BipolarConfig cfg;
    cfg.stream_length = len;
    cfg.sng_width = 12;
    double err = 0.0;
    for (std::uint32_t seed = 1; seed <= 4; ++seed) {
      BipolarConfig c = cfg;
      c.activation_seed = seed;
      c.weight_seed = seed * 97;
      c.select_seed = seed * 1009;
      BipolarNetwork exec(net, c);
      const nn::Tensor y = exec.forward(x);
      for (std::size_t i = 0; i < y.size(); ++i) {
        err += std::fabs(y[i] - reference[i]);
      }
    }
    return err;
  };
  EXPECT_LT(total_error(1 << 14), total_error(1 << 8));
}

TEST(BipolarNetwork, MuxNoiseExceedsSplitUnipolarOrAtEqualLength) {
  // The representation ablation in miniature (paper II-A/II-B): at equal
  // stream length the bipolar-MUX error on a wide accumulation is much
  // larger than the split-unipolar OR error, because the MUX recovers the
  // sum by multiplying the stream noise by the fan-in.
  nn::Network net;
  auto& dense = net.add<nn::Dense>(nn::DenseSpec{
      .in_features = 64, .out_features = 4, .mode = nn::AccumMode::kSum});
  dense.initialize(31);
  // Small weights so the OR path's saturation bias stays negligible and
  // the comparison isolates the statistical noise.
  for (std::size_t i = 0; i < dense.weights().size(); ++i) {
    dense.weights()[i] *= 0.1f;
  }
  const nn::Tensor x = random_unit(nn::Shape{1, 1, 64}, 17);
  const nn::Tensor reference = net.forward(x);

  double bipolar_err = 0.0;
  double split_err = 0.0;
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    BipolarConfig bcfg;
    bcfg.stream_length = 256;
    bcfg.activation_seed = seed;
    bcfg.weight_seed = seed * 7;
    BipolarNetwork bip(net, bcfg);
    const nn::Tensor yb = bip.forward(x);

    ScConfig scfg;
    scfg.stream_length = 256;
    scfg.activation_seed = seed;
    scfg.weight_seed = seed * 7;
    ScNetwork split(net, scfg);
    const nn::Tensor ys = split.forward(x);

    for (std::size_t i = 0; i < reference.size(); ++i) {
      bipolar_err += std::fabs(yb[i] - reference[i]);
      split_err += std::fabs(ys[i] - reference[i]);
    }
  }
  EXPECT_GT(bipolar_err, 2.0 * split_err);
}

TEST(BipolarNetwork, DigestUnchanged) {
  // Absolute pin of the MUX datapath: FNV-1a over the logits' float bytes
  // of a padded conv, a grouped strided conv, a projection skip block and
  // a dense head that reads a spatial volume.
  nn::Network net;
  net.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 2, .out_channels = 4,
                                   .kernel = 3, .padding = 1})
      .initialize(71);
  net.add<nn::ReLU>();
  net.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 4, .out_channels = 6,
                                   .kernel = 3, .stride = 2, .padding = 1,
                                   .groups = 2})
      .initialize(73);
  net.add<nn::ReLU>();
  const auto skip = std::make_shared<nn::SkipState>();
  net.add<nn::SkipSave>(skip);
  net.add<nn::SkipProject>(skip, nn::ConvSpec{.in_channels = 6,
                                              .out_channels = 4,
                                              .kernel = 1})
      .conv()
      .initialize(75);
  net.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 6, .out_channels = 4,
                                   .kernel = 3, .padding = 1})
      .initialize(77);
  net.add<nn::SkipAdd>(skip);
  net.add<nn::ReLU>();
  net.add<nn::Dense>(nn::DenseSpec{.in_features = 3 * 3 * 4,
                                   .out_features = 5})
      .initialize(79);
  BipolarConfig cfg;
  cfg.stream_length = 64;
  BipolarNetwork exec(net, cfg);
  const nn::Tensor logits = exec.forward(random_unit(nn::Shape{6, 6, 2}, 81));
  ASSERT_EQ(logits.shape(), (nn::Shape{1, 1, 5}));
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* bytes =
      reinterpret_cast<const unsigned char*>(logits.data().data());
  for (std::size_t i = 0; i < logits.size() * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  EXPECT_EQ(h, 0x0eecf87123b48c1full);
}

}  // namespace
}  // namespace acoustic::sim
