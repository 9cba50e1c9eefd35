#include "sim/backend.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

namespace acoustic::sim {

namespace {

/// Float reference: every weighted node runs its layer's own infer (see
/// make_float_backend).
class FloatNetwork final : public GraphExecutor {
 public:
  explicit FloatNetwork(nn::Network& net)
      : GraphExecutor(net, LowerOptions{}, "FloatNetwork") {}

  [[nodiscard]] std::string name() const override { return "float"; }

  [[nodiscard]] std::unique_ptr<InferenceBackend> clone() const override {
    return std::make_unique<FloatNetwork>(*this);
  }

 private:
  void run_weighted(const LoweredOp& op, std::size_t /*node*/,
                    const nn::Tensor& input, nn::Tensor& out,
                    RunStats& /*run*/) override {
    // A dense layer's infer flattens its input for the 1x1 conv.
    (op.kind == nn::OpKind::kDense ? *op.layer : *op.conv)
        .infer(input, out, nullptr);
  }
};

}  // namespace

std::unique_ptr<InferenceBackend> make_float_backend(nn::Network& net) {
  return std::make_unique<FloatNetwork>(net);
}

std::unique_ptr<InferenceBackend> make_sc_backend(nn::Network& net,
                                                  const ScConfig& cfg) {
  return std::make_unique<ScNetwork>(net, cfg);
}

std::unique_ptr<InferenceBackend> make_bipolar_backend(
    nn::Network& net, const BipolarConfig& cfg) {
  return std::make_unique<BipolarNetwork>(net, cfg);
}

std::unique_ptr<InferenceBackend> make_backend(
    const std::string& name, nn::Network& net, const ScConfig& sc_cfg,
    const BipolarConfig& bipolar_cfg) {
  if (name == "float") {
    return make_float_backend(net);
  }
  if (name == "sc") {
    ScConfig cfg = sc_cfg;
    cfg.pooling = PoolingMode::kSkipping;
    return make_sc_backend(net, cfg);
  }
  if (name == "sc-mux") {
    ScConfig cfg = sc_cfg;
    cfg.pooling = PoolingMode::kMux;
    return make_sc_backend(net, cfg);
  }
  if (name == "bipolar") {
    return make_bipolar_backend(net, bipolar_cfg);
  }
  std::string expected;
  for (const std::string_view known : kBackendNames) {
    expected += (expected.empty() ? "" : ", ") + std::string(known);
  }
  throw std::invalid_argument("make_backend: unknown backend '" + name +
                              "' (expected one of " + expected + ")");
}

}  // namespace acoustic::sim
