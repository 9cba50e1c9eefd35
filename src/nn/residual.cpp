#include "nn/residual.hpp"

#include <stdexcept>

namespace acoustic::nn {

SkipSave::SkipSave(std::shared_ptr<SkipState> state)
    : state_(std::move(state)) {
  if (state_ == nullptr) {
    throw std::invalid_argument("SkipSave: null state");
  }
}

Tensor SkipSave::forward(const Tensor& input) {
  Tensor out = input;
  (void)forward_in_place(out);
  return out;
}

bool SkipSave::forward_in_place(Tensor& x) {
  state_->saved = x;
  return true;
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

SkipProject::SkipProject(std::shared_ptr<SkipState> state,
                         const ConvSpec& spec)
    : state_(std::move(state)), proj_(spec) {
  if (state_ == nullptr) {
    throw std::invalid_argument("SkipProject: null state");
  }
}

Tensor SkipProject::forward(const Tensor& input) {
  if (state_->saved.size() == 0) {
    throw std::logic_error(
        "SkipProject: no saved skip tensor (missing SkipSave?)");
  }
  state_->saved = proj_.forward(state_->saved);
  return input;
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

SkipAdd::SkipAdd(std::shared_ptr<SkipState> state)
    : state_(std::move(state)) {
  if (state_ == nullptr) {
    throw std::invalid_argument("SkipAdd: null state");
  }
}

Tensor SkipAdd::forward(const Tensor& input) {
  Tensor out = input;
  (void)forward_in_place(out);
  return out;
}

bool SkipAdd::forward_in_place(Tensor& x) {
  const Tensor& saved = state_->saved;
  if (saved.shape() != x.shape()) {
    throw std::invalid_argument(
        "SkipAdd: skip tensor shape does not match block output (is the "
        "skip-path projection missing?)");
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] += saved[i];
  }
  return true;
}

Tensor SkipAdd::backward(const Tensor& grad_output) {
  // d(out)/d(input) = 1 and d(out)/d(skip) = 1: the gradient forks.
  state_->skip_grad = grad_output;
  state_->grad_valid = true;
  return grad_output;
}

}  // namespace acoustic::nn
