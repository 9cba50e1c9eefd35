#include "nn/pool.hpp"

#include <stdexcept>

namespace acoustic::nn {

AvgPool2D::AvgPool2D(int window) : window_(window) {
  if (window <= 0) {
    throw std::invalid_argument("AvgPool2D: window must be positive");
  }
}

Shape AvgPool2D::output_shape(Shape input) const {
  return Shape{input.h / window_, input.w / window_, input.c};
}

std::string AvgPool2D::name() const {
  return "avgpool" + std::to_string(window_) + "x" + std::to_string(window_);
}

Tensor AvgPool2D::forward(const Tensor& input) {
  input_shape_ = input.shape();
  return inferred(input, nullptr);
}

void AvgPool2D::infer(const Tensor& input, Tensor& out, Tensor*) const {
  const Shape out_shape = output_shape(input.shape());
  out.resize(out_shape);
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  for (int oy = 0; oy < out_shape.h; ++oy) {
    for (int ox = 0; ox < out_shape.w; ++ox) {
      for (int c = 0; c < out_shape.c; ++c) {
        float acc = 0.0f;
        for (int dy = 0; dy < window_; ++dy) {
          for (int dx = 0; dx < window_; ++dx) {
            acc += input.at(oy * window_ + dy, ox * window_ + dx, c);
          }
        }
        out.at(oy, ox, c) = acc * inv;
      }
    }
  }
}

Tensor AvgPool2D::backward(const Tensor& grad_output) {
  Tensor grad_input(input_shape_);
  const Shape out_shape = grad_output.shape();
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  for (int oy = 0; oy < out_shape.h; ++oy) {
    for (int ox = 0; ox < out_shape.w; ++ox) {
      for (int c = 0; c < out_shape.c; ++c) {
        const float g = grad_output.at(oy, ox, c) * inv;
        for (int dy = 0; dy < window_; ++dy) {
          for (int dx = 0; dx < window_; ++dx) {
            grad_input.at(oy * window_ + dy, ox * window_ + dx, c) += g;
          }
        }
      }
    }
  }
  return grad_input;
}

MaxPool2D::MaxPool2D(int window) : window_(window) {
  if (window <= 0) {
    throw std::invalid_argument("MaxPool2D: window must be positive");
  }
}

Shape MaxPool2D::output_shape(Shape input) const {
  return Shape{input.h / window_, input.w / window_, input.c};
}

std::string MaxPool2D::name() const {
  return "maxpool" + std::to_string(window_) + "x" + std::to_string(window_);
}

namespace {

/// MaxPool2D's body over @p window x @p window tiles into an @p out_shape
/// output; forward() also records each output's winning input index in
/// @p argmax.
void max_pool(int window, Shape out_shape, const Tensor& input, Tensor& out,
              std::vector<std::size_t>* argmax) {
  out.resize(out_shape);
  if (argmax != nullptr) {
    argmax->assign(out_shape.size(), 0);
  }
  std::size_t oi = 0;
  for (int oy = 0; oy < out_shape.h; ++oy) {
    for (int ox = 0; ox < out_shape.w; ++ox) {
      for (int c = 0; c < out_shape.c; ++c, ++oi) {
        float best = input.at(oy * window, ox * window, c);
        std::size_t best_idx = input.index(oy * window, ox * window, c);
        for (int dy = 0; dy < window; ++dy) {
          for (int dx = 0; dx < window; ++dx) {
            const float v = input.at(oy * window + dy, ox * window + dx, c);
            if (v > best) {
              best = v;
              best_idx = input.index(oy * window + dy, ox * window + dx, c);
            }
          }
        }
        out.at(oy, ox, c) = best;
        if (argmax != nullptr) {
          (*argmax)[oi] = best_idx;
        }
      }
    }
  }
}

}  // namespace

Tensor MaxPool2D::forward(const Tensor& input) {
  input_shape_ = input.shape();
  Tensor out;
  max_pool(window_, output_shape(input_shape_), input, out, &argmax_);
  return out;
}

void MaxPool2D::infer(const Tensor& input, Tensor& out, Tensor*) const {
  max_pool(window_, output_shape(input.shape()), input, out, nullptr);
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  Tensor grad_input(input_shape_);
  for (std::size_t oi = 0; oi < grad_output.size(); ++oi) {
    grad_input[argmax_[oi]] += grad_output[oi];
  }
  return grad_input;
}

}  // namespace acoustic::nn
