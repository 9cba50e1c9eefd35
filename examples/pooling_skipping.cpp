// Computation-skipping average pooling, demonstrated at the bit level
// (paper section II-C).
//
// A conv layer followed by 2x2 average pooling is executed twice on the
// functional simulator: once conventionally (the conv unfused on full-
// length streams at every window position, then the exact binary average
// pool; no MUX select is modelled) and once with computation skipping
// (each pooled window position computed on a quarter-length time slice,
// counter never reset).
// The outputs agree statistically while the skipped version evaluates 4x
// fewer product bits — the source of the paper's 4x-9x conv-layer saving.
//
// Build & run:  ./build/examples/pooling_skipping
#include <cmath>
#include <cstdio>

#include "nn/pool.hpp"
#include "sim/sc_network.hpp"

using namespace acoustic;

int main() {
  // A small conv + pool stage with fixed weights.
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 2, .out_channels = 4, .kernel = 3, .stride = 1,
      .padding = 1, .bias = false, .mode = nn::AccumMode::kOrExact});
  net.add<nn::AvgPool2D>(2);
  conv.initialize(2024);

  nn::Tensor image(nn::Shape{12, 12, 2});
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i] = 0.5f + 0.4f * std::sin(static_cast<float>(i) * 0.37f);
  }

  sim::ScConfig skip_cfg;
  skip_cfg.stream_length = 2048;
  skip_cfg.pooling = sim::PoolingMode::kSkipping;
  sim::ScConfig mux_cfg = skip_cfg;
  mux_cfg.pooling = sim::PoolingMode::kMux;

  sim::ScNetwork skipped(net, skip_cfg);
  sim::ScNetwork conventional(net, mux_cfg);

  const nn::Tensor y_skip = skipped.forward(image);
  const nn::Tensor y_mux = conventional.forward(image);

  double max_diff = 0.0;
  for (std::size_t i = 0; i < y_skip.size(); ++i) {
    max_diff = std::max(max_diff,
                        std::fabs(static_cast<double>(y_skip[i]) -
                                  static_cast<double>(y_mux[i])));
  }

  std::printf("conv 3x3 (2->4 ch) + 2x2 avg pool on 12x12 input, "
              "%zu-bit streams\n\n", skip_cfg.stream_length);
  std::printf("                       skipping      conventional\n");
  std::printf("product bits           %-12llu  %llu\n",
              static_cast<unsigned long long>(skipped.stats().product_bits),
              static_cast<unsigned long long>(
                  conventional.stats().product_bits));
  std::printf("reduction              %.2fx\n",
              static_cast<double>(conventional.stats().product_bits) /
                  static_cast<double>(skipped.stats().product_bits));
  std::printf("max |output diff|      %.4f (statistical, not systematic)\n\n",
              max_diff);

  std::printf("first pooled outputs (skipping vs conventional):\n");
  for (int i = 0; i < 6; ++i) {
    std::printf("  %+.4f  vs  %+.4f\n",
                static_cast<double>(y_skip[static_cast<std::size_t>(i)]),
                static_cast<double>(y_mux[static_cast<std::size_t>(i)]));
  }
  std::printf("\nWhy it works: the pooling MUX's select pattern is known a"
              " priori, so the\nbits it would discard are never computed; "
              "concatenating the surviving\nquarter-length slices in the "
              "(non-reset) counter performs the scaled\naddition for free "
              "(paper II-C).\n");
  return 0;
}
