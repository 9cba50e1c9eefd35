#include "nn/conv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>

#include "sc/rng.hpp"

namespace acoustic::nn {
namespace {

Tensor random_input(Shape shape, std::uint32_t seed, float lo = 0.0f,
                    float hi = 1.0f) {
  Tensor t(shape);
  sc::XorShift32 rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = lo + (hi - lo) * static_cast<float>(rng.next_double());
  }
  return t;
}

TEST(Conv2D, RejectsInvalidSpec) {
  EXPECT_THROW(Conv2D(ConvSpec{.in_channels = 0}), std::invalid_argument);
  EXPECT_THROW(Conv2D(ConvSpec{.kernel = -1}), std::invalid_argument);
}

TEST(Conv2D, OutputShape) {
  Conv2D conv(ConvSpec{.in_channels = 3, .out_channels = 8, .kernel = 3,
                       .stride = 1, .padding = 1});
  EXPECT_EQ(conv.output_shape(Shape{16, 16, 3}), (Shape{16, 16, 8}));
  Conv2D strided(ConvSpec{.in_channels = 3, .out_channels = 8, .kernel = 3,
                          .stride = 2, .padding = 0});
  EXPECT_EQ(strided.output_shape(Shape{17, 17, 3}), (Shape{8, 8, 8}));
}

TEST(Conv2D, IdentityKernelCopiesInput) {
  Conv2D conv(ConvSpec{.in_channels = 1, .out_channels = 1, .kernel = 1});
  conv.weights()[0] = 1.0f;
  const Tensor x = random_input(Shape{4, 4, 1}, 5);
  const Tensor y = conv.forward(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_FLOAT_EQ(y[i], x[i]);
  }
}

TEST(Conv2D, HandComputedThreeByThree) {
  Conv2D conv(ConvSpec{.in_channels = 1, .out_channels = 1, .kernel = 3});
  for (int ky = 0; ky < 3; ++ky) {
    for (int kx = 0; kx < 3; ++kx) {
      conv.weights()[conv.weight_index(0, ky, kx, 0)] =
          static_cast<float>(ky * 3 + kx);
    }
  }
  Tensor x(Shape{3, 3, 1});
  x.fill(1.0f);
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 36.0f);  // 0+1+...+8
}

TEST(Conv2D, ZeroPaddingContributesNothing) {
  Conv2D conv(ConvSpec{.in_channels = 1, .out_channels = 1, .kernel = 3,
                       .padding = 1});
  for (std::size_t i = 0; i < conv.weights().size(); ++i) {
    conv.weights()[i] = 1.0f;
  }
  Tensor x(Shape{3, 3, 1});
  x.fill(1.0f);
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{3, 3, 1}));
  EXPECT_FLOAT_EQ(y.at(1, 1, 0), 9.0f);  // full overlap
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), 4.0f);  // corner: only 2x2 inside
  EXPECT_FLOAT_EQ(y.at(0, 1, 0), 6.0f);  // edge: 2x3 inside
}

TEST(Conv2D, BiasAddsInSumMode) {
  Conv2D conv(ConvSpec{.in_channels = 1, .out_channels = 2, .kernel = 1,
                       .bias = true});
  conv.weights()[0] = 1.0f;
  conv.weights()[1] = 1.0f;
  conv.bias()[0] = 0.5f;
  conv.bias()[1] = -0.25f;
  Tensor x(Shape{1, 1, 1});
  x[0] = 1.0f;
  const Tensor y = conv.forward(x);
  EXPECT_FLOAT_EQ(y[0], 1.5f);
  EXPECT_FLOAT_EQ(y[1], 0.75f);
}

TEST(Conv2D, OrExactMatchesClosedForm) {
  // One output, two positive weights and one negative: out =
  // (1 - (1-a0*w0)(1-a1*w1)) - (1 - (1-a2*|w2|)).
  Conv2D conv(ConvSpec{.in_channels = 3, .out_channels = 1, .kernel = 1,
                       .mode = AccumMode::kOrExact});
  conv.weights()[0] = 0.5f;
  conv.weights()[1] = 0.25f;
  conv.weights()[2] = -0.5f;
  Tensor x(Shape{1, 1, 3});
  x[0] = 0.75f;
  x[1] = 0.5f;
  x[2] = 0.3f;
  const Tensor y = conv.forward(x);
  const double pos = 1.0 - (1.0 - 0.75 * 0.5) * (1.0 - 0.5 * 0.25);
  const double neg = 1.0 - (1.0 - 0.3 * 0.5);
  EXPECT_NEAR(y[0], pos - neg, 1e-6);
}

TEST(Conv2D, OrApproxMatchesClosedForm) {
  Conv2D conv(ConvSpec{.in_channels = 2, .out_channels = 1, .kernel = 1,
                       .mode = AccumMode::kOrApprox});
  conv.weights()[0] = 0.6f;
  conv.weights()[1] = -0.4f;
  Tensor x(Shape{1, 1, 2});
  x[0] = 0.5f;
  x[1] = 0.25f;
  const Tensor y = conv.forward(x);
  const double expected = std::exp(-0.25 * 0.4) - std::exp(-0.5 * 0.6);
  EXPECT_NEAR(y[0], expected, 1e-6);
}

TEST(Conv2D, OrModesAgreeWithSumForSmallProducts) {
  // For small |a*w| the OR saturation is negligible and all three modes
  // converge (first-order Taylor: 1-e^{-s} ~ s).
  const Shape in{5, 5, 2};
  const Tensor x = random_input(in, 77, 0.0f, 0.02f);
  ConvSpec spec{.in_channels = 2, .out_channels = 3, .kernel = 3};
  Conv2D conv(spec);
  conv.initialize(3);
  const Tensor sum = conv.forward(x);
  conv.set_mode(AccumMode::kOrApprox);
  const Tensor approx = conv.forward(x);
  conv.set_mode(AccumMode::kOrExact);
  const Tensor exact = conv.forward(x);
  for (std::size_t i = 0; i < sum.size(); ++i) {
    EXPECT_NEAR(approx[i], sum[i], 3e-3);
    EXPECT_NEAR(exact[i], sum[i], 3e-3);
  }
}

TEST(Conv2D, OrApproxTracksOrExact) {
  // The paper's Eq. (1) claim: < 5% approximation error. The error is
  // relative to the full output range here because an output is the
  // *difference* of two saturations, which amplifies relative error near
  // zero.
  const Shape in{6, 6, 3};
  const Tensor x = random_input(in, 13, 0.0f, 1.0f);
  ConvSpec spec{.in_channels = 3, .out_channels = 4, .kernel = 3,
                .mode = AccumMode::kOrExact};
  Conv2D conv(spec);
  conv.initialize(17);
  const Tensor exact = conv.forward(x);
  conv.set_mode(AccumMode::kOrApprox);
  const Tensor approx = conv.forward(x);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(approx[i], exact[i], 0.05f);
  }
}

/// Finite-difference gradient check over all accumulation modes.
class ConvGradientTest : public ::testing::TestWithParam<AccumMode> {};

TEST_P(ConvGradientTest, WeightAndInputGradientsMatchFiniteDifferences) {
  const AccumMode mode = GetParam();
  ConvSpec spec{.in_channels = 2, .out_channels = 2, .kernel = 3,
                .stride = 1, .padding = 1, .mode = mode};
  Conv2D conv(spec);
  conv.initialize(99);
  const Shape in{4, 4, 2};
  // OR modes require non-negative activations.
  Tensor x = random_input(in, 31, 0.05f, 0.9f);

  // Scalar objective: sum of outputs weighted by a fixed pattern.
  const auto objective = [&](const Tensor& input) {
    const Tensor y = conv.forward(input);
    double total = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      total += y[i] * (0.3 + 0.07 * static_cast<double>(i % 5));
    }
    return total;
  };

  const Tensor y = conv.forward(x);
  Tensor grad_out(y.shape());
  for (std::size_t i = 0; i < y.size(); ++i) {
    grad_out[i] = 0.3f + 0.07f * static_cast<float>(i % 5);
  }
  conv.zero_gradients();
  const Tensor grad_in = conv.backward(grad_out);
  auto params = conv.parameters();

  const double eps = 1e-3;
  for (std::size_t wi = 0; wi < params[0].values.size(); wi += 7) {
    const float saved = params[0].values[wi];
    // Skip finite-difference points near the w=0 sign kink of the OR modes.
    if (mode != AccumMode::kSum && std::fabs(saved) < 2 * eps) {
      continue;
    }
    params[0].values[wi] = saved + static_cast<float>(eps);
    const double up = objective(x);
    params[0].values[wi] = saved - static_cast<float>(eps);
    const double down = objective(x);
    params[0].values[wi] = saved;
    const double fd = (up - down) / (2.0 * eps);
    EXPECT_NEAR(params[0].gradients[wi], fd, 2e-2 + 0.02 * std::fabs(fd))
        << "weight " << wi;
  }
  for (std::size_t xi = 0; xi < x.size(); xi += 5) {
    const float saved = x[xi];
    x[xi] = saved + static_cast<float>(eps);
    const double up = objective(x);
    x[xi] = saved - static_cast<float>(eps);
    const double down = objective(x);
    x[xi] = saved;
    const double fd = (up - down) / (2.0 * eps);
    EXPECT_NEAR(grad_in[xi], fd, 2e-2 + 0.02 * std::fabs(fd))
        << "input " << xi;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ConvGradientTest,
                         ::testing::Values(AccumMode::kSum,
                                           AccumMode::kOrApprox,
                                           AccumMode::kOrExact));

TEST(Conv2D, ZeroGradientsClears) {
  Conv2D conv(ConvSpec{.in_channels = 1, .out_channels = 1, .kernel = 1});
  conv.weights()[0] = 1.0f;
  Tensor x(Shape{2, 2, 1});
  x.fill(1.0f);
  (void)conv.forward(x);
  Tensor g(Shape{2, 2, 1});
  g.fill(1.0f);
  (void)conv.backward(g);
  conv.zero_gradients();
  // Keep the parameter views alive: the range-for would otherwise iterate a
  // span member of a destroyed temporary vector.
  const auto params = conv.parameters();
  for (float grad : params[0].gradients) {
    EXPECT_EQ(grad, 0.0f);
  }
}

TEST(Conv2D, ChannelMismatchThrows) {
  Conv2D conv(ConvSpec{.in_channels = 2, .out_channels = 1, .kernel = 1});
  Tensor x(Shape{2, 2, 3});
  EXPECT_THROW((void)conv.forward(x), std::invalid_argument);
}

/// FNV-1a over the float bytes of @p values, continuing from @p h.
std::uint64_t fnv1a(std::span<const float> values,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

TEST(Conv2D, GroupedStridedDigestUnchanged) {
  // Absolute pins of the float arithmetic on the paths the trainable
  // models never take (groups, stride, a kSum bias): the forward output,
  // the input gradient and every parameter gradient, in each mode.
  const struct {
    AccumMode mode;
    std::uint64_t digest;
  } cases[] = {{AccumMode::kSum, 0x9a0c7cba59f03f42ull},
               {AccumMode::kOrApprox, 0x4dd32230cb0f1615ull},
               {AccumMode::kOrExact, 0xc04eaf857afcc7c7ull}};
  for (const auto& c : cases) {
    Conv2D conv(ConvSpec{.in_channels = 4, .out_channels = 6, .kernel = 3,
                         .stride = 2, .padding = 1, .groups = 2,
                         .bias = true, .mode = c.mode});
    conv.initialize(61);
    for (std::size_t oc = 0; oc < conv.bias().size(); ++oc) {
      conv.bias()[oc] = 0.05f * static_cast<float>(oc) - 0.1f;
    }
    const Tensor y = conv.forward(random_input(Shape{7, 7, 4}, 63));
    const Tensor grad_in =
        conv.backward(random_input(y.shape(), 65, -1.0f, 1.0f));
    std::uint64_t h = fnv1a(grad_in.data(), fnv1a(y.data()));
    for (const ParamView& p : conv.parameters()) {
      h = fnv1a(p.gradients, h);
    }
    EXPECT_EQ(h, c.digest) << "mode " << static_cast<int>(c.mode);
  }
}

TEST(Conv2D, InitializeIsDeterministicAndClipped) {
  ConvSpec spec{.in_channels = 4, .out_channels = 4, .kernel = 3};
  Conv2D a(spec);
  Conv2D b(spec);
  a.initialize(42);
  b.initialize(42);
  for (std::size_t i = 0; i < a.weights().size(); ++i) {
    EXPECT_EQ(a.weights()[i], b.weights()[i]);
    EXPECT_LE(std::fabs(a.weights()[i]), 1.0f);
  }
}

}  // namespace
}  // namespace acoustic::nn
