#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "sc/rng.hpp"

namespace acoustic::nn {

namespace {

constexpr float kProdEps = 1e-6f;

const ConvSpec& validate(const ConvSpec& spec) {
  if (spec.in_channels <= 0 || spec.out_channels <= 0 || spec.kernel <= 0 ||
      spec.stride <= 0 || spec.padding < 0 || spec.groups <= 0) {
    throw std::invalid_argument("Conv2D: invalid spec");
  }
  if (spec.in_channels % spec.groups != 0 ||
      spec.out_channels % spec.groups != 0) {
    throw std::invalid_argument(
        "Conv2D: groups must divide in_channels and out_channels");
  }
  return spec;
}

/// Calls @p body with @p mode as a compile-time constant, so the product
/// loops test the mode once per call rather than once per product.
template <class Body>
void with_mode(AccumMode mode, Body&& body) {
  switch (mode) {
    case AccumMode::kSum:
      return body(std::integral_constant<AccumMode, AccumMode::kSum>{});
    case AccumMode::kOrApprox:
      return body(std::integral_constant<AccumMode, AccumMode::kOrApprox>{});
    case AccumMode::kOrExact:
      return body(std::integral_constant<AccumMode, AccumMode::kOrExact>{});
  }
  throw std::logic_error("Conv2D: bad mode");
}

/// Calls @p fn(input index, weight index) for each product that output
/// (@p oy, @p ox, @p oc) of @p conv accumulates over @p input, in
/// (ky, kx, ic) order: taps that read zero padding are skipped, and ic
/// runs over oc's group slice.
template <class Fn>
void for_each_product(const Conv2D& conv, const Tensor& input, int oy, int ox,
                      int oc, Fn&& fn) {
  const ConvSpec& spec = conv.spec();
  const Shape in = input.shape();
  const auto cpg = static_cast<std::size_t>(conv.channels_per_group());
  const int ic0 = conv.group_base(oc);
  for (int ky = 0; ky < spec.kernel; ++ky) {
    const int iy = oy * spec.stride + ky - spec.padding;
    if (iy < 0 || iy >= in.h) {
      continue;
    }
    for (int kx = 0; kx < spec.kernel; ++kx) {
      const int ix = ox * spec.stride + kx - spec.padding;
      if (ix < 0 || ix >= in.w) {
        continue;
      }
      const std::size_t a0 = input.index(iy, ix, ic0);
      const std::size_t w0 = conv.weight_index(oc, ky, kx, ic0);
      for (std::size_t i = 0; i < cpg; ++i) {
        fn(a0 + i, w0 + i);
      }
    }
  }
}

/// One output's accumulator in mode M (see nn/layer.hpp). kSum is the
/// float dot product, started from the bias. The OR modes keep each sign
/// phase of the split-unipolar MAC in double: products with positive
/// weights feed `pos`, negative weights `neg`, zero weights neither.
/// kOrApprox sums s = a*|w| per phase and outputs e^{-s_n} - e^{-s_p};
/// kOrExact multiplies (1 - a*|w|) per phase and outputs prod_n - prod_p.
template <AccumMode M>
struct Accumulator {
  static constexpr bool kExact = M == AccumMode::kOrExact;
  float sum = 0.0f;
  double pos = kExact ? 1.0 : 0.0;
  double neg = kExact ? 1.0 : 0.0;

  void add(float a, float w) noexcept {
    if constexpr (M == AccumMode::kSum) {
      sum += a * w;
    } else {
      const float term = a * std::fabs(w);
      if (w > 0.0f) {
        pos = kExact ? pos * (1.0 - term) : pos + term;
      } else if (w < 0.0f) {
        neg = kExact ? neg * (1.0 - term) : neg + term;
      }
    }
  }

  [[nodiscard]] float output() const noexcept {
    if constexpr (M == AccumMode::kSum) {
      return sum;
    }
    // (1 - e^{-s_p}) - (1 - e^{-s_n}) = e^{-s_n} - e^{-s_p}
    return static_cast<float>(kExact ? neg - pos
                                     : std::exp(-neg) - std::exp(-pos));
  }
};

/// One output's per-product gradient in mode M, scaled by the output's
/// gradient g. kSum: d/dw = a, d/da = w. The OR modes differentiate
/// term = a*|w| (d/dw = a*sign(w), d/da = |w|; w = 0 counts as positive)
/// through its phase: d out/d term is dpos for a positive weight and
/// -dneg for a negative one, and kOrExact divides it by the product's own
/// factor 1 - term (floored at kProdEps).
template <AccumMode M>
struct ProductGradient {
  float g = 0.0f;
  float dpos = 0.0f;  ///< e^{-s_p} (kOrApprox) or prod_p (kOrExact)
  float dneg = 0.0f;  ///< e^{-s_n} (kOrApprox) or prod_n (kOrExact)

  /// Adds product (@p a, @p w)'s gradient to @p gw (the weight's) and
  /// @p ga (the input's).
  void add(float a, float w, float& gw, float& ga) const noexcept {
    if constexpr (M == AccumMode::kSum) {
      gw += g * a;
      ga += g * w;
    } else {
      float dterm = w >= 0.0f ? dpos : -dneg;
      if constexpr (M == AccumMode::kOrExact) {
        dterm /= std::max(1.0f - a * std::fabs(w), kProdEps);
      }
      const float sign = (w >= 0.0f) ? 1.0f : -1.0f;
      gw += g * dterm * a * sign;
      ga += g * dterm * std::fabs(w);
    }
  }
};

}  // namespace

Conv2D::Conv2D(const ConvSpec& spec)
    : spec_(validate(spec)),
      weights_(static_cast<std::size_t>(spec.out_channels) * spec.kernel *
               spec.kernel * (spec.in_channels / spec.groups)),
      bias_(spec.bias ? static_cast<std::size_t>(spec.out_channels) : 0) {}

std::size_t Conv2D::weight_index(int oc, int ky, int kx,
                                 int ic) const noexcept {
  return ((static_cast<std::size_t>(oc) * spec_.kernel + ky) * spec_.kernel +
          kx) *
             channels_per_group() +
         (ic - group_base(oc));
}

Shape Conv2D::output_shape(Shape input) const {
  if (input.c != spec_.in_channels) {
    throw std::invalid_argument(
        name() + ": expects " + std::to_string(spec_.in_channels) +
        " input channels but receives " + std::to_string(input.c));
  }
  const int oh = (input.h + 2 * spec_.padding - spec_.kernel) / spec_.stride + 1;
  const int ow = (input.w + 2 * spec_.padding - spec_.kernel) / spec_.stride + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument(
        name() + ": kernel " + std::to_string(spec_.kernel) + " (stride " +
        std::to_string(spec_.stride) + ", padding " +
        std::to_string(spec_.padding) + ") does not fit the " +
        std::to_string(input.h) + "x" + std::to_string(input.w) + " input");
  }
  return Shape{oh, ow, spec_.out_channels};
}

std::string Conv2D::name() const {
  return "conv" + std::to_string(spec_.kernel) + "x" +
         std::to_string(spec_.kernel) + "(" +
         std::to_string(spec_.in_channels) + "->" +
         std::to_string(spec_.out_channels) +
         (spec_.groups > 1 ? "/g" + std::to_string(spec_.groups) : "") + ")";
}

void Conv2D::initialize(std::uint32_t seed) {
  sc::XorShift32 rng(seed);
  const float fan_in = static_cast<float>(spec_.kernel) * spec_.kernel *
                       static_cast<float>(channels_per_group());
  const float bound = std::min(1.0f, std::sqrt(6.0f / fan_in));
  for (float& w : weights_) {
    w = (static_cast<float>(rng.next_double()) * 2.0f - 1.0f) * bound;
  }
  for (float& b : bias_) {
    b = 0.0f;
  }
}

std::vector<ParamView> Conv2D::parameters() {
  std::vector<ParamView> out;
  out.push_back(ParamView{weights_, weight_grads_});
  if (!bias_.empty()) {
    out.push_back(ParamView{bias_, bias_grads_});
  }
  return out;
}

void Conv2D::zero_gradients() {
  weight_grads_.assign(weights_.size(), 0.0f);
  bias_grads_.assign(bias_.size(), 0.0f);
}

Tensor Conv2D::forward(const Tensor& input) {
  Tensor out;
  compute(input, out, &sum_pos_, &sum_neg_);
  input_ = input;
  return out;
}

void Conv2D::infer(const Tensor& input, Tensor& out, Tensor*) const {
  compute(input, out, nullptr, nullptr);
}

void Conv2D::compute(const Tensor& input, Tensor& out, Tensor* pos,
                     Tensor* neg) const {
  const Shape out_shape = output_shape(input.shape());  // rejects a mismatch
  out.resize(out_shape);
  with_mode(spec_.mode, [&](auto mode) {
    constexpr AccumMode M = decltype(mode)::value;
    const bool record = M != AccumMode::kSum && pos != nullptr;
    if (record) {
      pos->resize(out_shape);
      neg->resize(out_shape);
    }
    std::size_t o = 0;  // out.index(oy, ox, oc)
    for (int oy = 0; oy < out_shape.h; ++oy) {
      for (int ox = 0; ox < out_shape.w; ++ox) {
        for (int oc = 0; oc < out_shape.c; ++oc, ++o) {
          Accumulator<M> acc{.sum = bias_.empty() ? 0.0f : bias_[oc]};
          for_each_product(*this, input, oy, ox, oc,
                           [&](std::size_t ai, std::size_t wi) {
                             acc.add(input[ai], weights_[wi]);
                           });
          out[o] = acc.output();
          if (record) {
            (*pos)[o] = static_cast<float>(acc.pos);
            (*neg)[o] = static_cast<float>(acc.neg);
          }
        }
      }
    }
  });
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  const Shape out_shape = grad_output.shape();
  Tensor grad_input(input_.shape());
  weight_grads_.resize(weights_.size());  // zero-filled on first use
  bias_grads_.resize(bias_.size());
  with_mode(spec_.mode, [&](auto mode) {
    constexpr AccumMode M = decltype(mode)::value;
    std::size_t o = 0;  // grad_output.index(oy, ox, oc)
    for (int oy = 0; oy < out_shape.h; ++oy) {
      for (int ox = 0; ox < out_shape.w; ++ox) {
        for (int oc = 0; oc < out_shape.c; ++oc, ++o) {
          ProductGradient<M> grad{.g = grad_output[o]};
          if constexpr (M == AccumMode::kSum) {
            if (!bias_.empty()) {
              bias_grads_[oc] += grad.g;
            }
          } else if constexpr (M == AccumMode::kOrApprox) {
            grad.dpos = std::exp(-sum_pos_[o]);
            grad.dneg = std::exp(-sum_neg_[o]);
          } else {
            grad.dpos = sum_pos_[o];
            grad.dneg = sum_neg_[o];
          }
          for_each_product(*this, input_, oy, ox, oc,
                           [&](std::size_t ai, std::size_t wi) {
                             grad.add(input_[ai], weights_[wi],
                                      weight_grads_[wi], grad_input[ai]);
                           });
        }
      }
    }
  });
  return grad_input;
}

}  // namespace acoustic::nn
