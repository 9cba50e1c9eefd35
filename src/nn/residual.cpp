#include "nn/residual.hpp"

#include <stdexcept>
#include <string>

namespace acoustic::nn {

SkipLayer::SkipLayer(std::shared_ptr<SkipState> state, const char* who)
    : state_(std::move(state)) {
  if (state_ == nullptr) {
    throw std::invalid_argument(std::string(who) + ": null state");
  }
}

Tensor SkipSave::forward(const Tensor& input) {
  return inferred(input, &state_->saved);
}

void SkipSave::infer(const Tensor& input, Tensor& out, Tensor* skip) const {
  *skip = input;
  out = input;
}

Tensor SkipSave::backward(const Tensor& grad_output) {
  // Gradients from the main path plus whatever flowed through the skip.
  if (!state_->grad_valid) {
    return grad_output;
  }
  state_->grad_valid = false;
  Tensor combined = grad_output;
  for (std::size_t i = 0; i < combined.size(); ++i) {
    combined[i] += state_->skip_grad[i];
  }
  return combined;
}

Tensor SkipProject::forward(const Tensor& input) {
  if (state_->saved.size() == 0) {
    throw std::logic_error(
        "SkipProject: no saved skip tensor (missing SkipSave?)");
  }
  state_->saved = proj_.forward(state_->saved);
  return input;
}

void SkipProject::infer(const Tensor& input, Tensor& out,
                        Tensor* skip) const {
  Tensor projected;
  proj_.infer(*skip, projected, nullptr);
  *skip = std::move(projected);
  out = input;
}

Tensor SkipProject::backward(const Tensor& grad_output) {
  // The main path passes straight through; the skip gradient the paired
  // SkipAdd recorded flows backward through the projection conv before
  // SkipSave folds it into the block input's gradient.
  if (state_->grad_valid) {
    state_->skip_grad = proj_.backward(state_->skip_grad);
  }
  return grad_output;
}

Tensor SkipAdd::forward(const Tensor& input) {
  return inferred(input, &state_->saved);
}

void SkipAdd::infer(const Tensor& input, Tensor& out, Tensor* skip) const {
  if (skip->shape() != input.shape()) {
    throw std::invalid_argument(
        "SkipAdd: skip tensor shape does not match block output (is the "
        "skip-path projection missing?)");
  }
  out = input;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] += (*skip)[i];
  }
}

Tensor SkipAdd::backward(const Tensor& grad_output) {
  // d(out)/d(input) = 1 and d(out)/d(skip) = 1: the gradient forks.
  state_->skip_grad = grad_output;
  state_->grad_valid = true;
  return grad_output;
}

}  // namespace acoustic::nn
