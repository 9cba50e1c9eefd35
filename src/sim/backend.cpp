#include "sim/backend.hpp"

#include <stdexcept>
#include <utility>

namespace acoustic::sim {

namespace {

/// The InferenceBackend of a GraphExecutor run on the backend's own
/// network snapshot: every call goes to the executor's walk.
template <class Exec>
class GraphBackend : public InferenceBackend {
 public:
  [[nodiscard]] nn::Tensor forward(const nn::Tensor& input) override {
    return exec_.forward(input);
  }

  void forward_into(const nn::Tensor& input, nn::Tensor& out) override {
    exec_.forward_into(input, out);
  }

  [[nodiscard]] RunStats stats() const override { return exec_.stats(); }
  [[nodiscard]] RunStats take_stats() override { return exec_.take_stats(); }

  void set_profiler(obs::Profiler* profiler, std::uint32_t track) override {
    exec_.set_profiler(profiler, track);
  }

 protected:
  template <class... Args>
  explicit GraphBackend(nn::Network& net, Args&&... args)
      : net_(std::make_unique<nn::Network>(net.clone())),
        exec_(*net_, std::forward<Args>(args)...) {}

  std::unique_ptr<nn::Network> net_;
  Exec exec_;
};

/// Float reference: the walk over the unfused, unfolded lowering, every
/// weighted node running its layer's own (binary-arithmetic) forward, so
/// the logits are nn::Network::forward's bit for bit.
class FloatNetwork final : public GraphExecutor {
 public:
  explicit FloatNetwork(nn::Network& net)
      : GraphExecutor(net, LowerOptions{}, "FloatBackend") {}

 private:
  void run_weighted(const LoweredOp& op, std::size_t node,
                    const nn::Tensor& input, nn::Tensor& out,
                    RunStats& run) override {
    (void)node;
    (void)run;
    // A dense layer's forward flattens its input for the 1x1 conv.
    out = op.kind == nn::OpKind::kDense ? op.layer->forward(input)
                                        : op.conv->forward(input);
  }
};

class FloatBackend final : public GraphBackend<FloatNetwork> {
 public:
  explicit FloatBackend(nn::Network& net) : GraphBackend(net) {}

  [[nodiscard]] std::string name() const override { return "float"; }

  [[nodiscard]] std::unique_ptr<InferenceBackend> clone() const override {
    return std::make_unique<FloatBackend>(*net_);
  }
};

/// Bit-level split-unipolar execution via ScNetwork.
class ScBackend final : public GraphBackend<ScNetwork> {
 public:
  ScBackend(nn::Network& net, const ScConfig& cfg,
            std::shared_ptr<WeightPlanStore> shared_plans = nullptr)
      : GraphBackend(net, cfg, std::move(shared_plans)) {}

  [[nodiscard]] std::string name() const override {
    return exec_.config().pooling == PoolingMode::kSkipping ? "sc"
                                                            : "sc-mux";
  }

  [[nodiscard]] std::unique_ptr<InferenceBackend> clone() const override {
    // Clones share the weight-table store: the per-stage ProductTables are
    // pure functions of (config, schedule, weights), so N workers build
    // each table once between them and the merged stats stay thread-count
    // invariant.
    return std::make_unique<ScBackend>(*net_, exec_.config(),
                                       exec_.shared_plans());
  }
};

/// Conventional bipolar-MUX execution via BipolarNetwork.
class BipolarBackend final : public GraphBackend<BipolarNetwork> {
 public:
  BipolarBackend(nn::Network& net, const BipolarConfig& cfg)
      : GraphBackend(net, cfg) {}

  [[nodiscard]] std::string name() const override { return "bipolar"; }

  [[nodiscard]] std::unique_ptr<InferenceBackend> clone() const override {
    return std::make_unique<BipolarBackend>(*net_, exec_.config());
  }
};

}  // namespace

std::unique_ptr<InferenceBackend> make_float_backend(nn::Network& net) {
  return std::make_unique<FloatBackend>(net);
}

std::unique_ptr<InferenceBackend> make_sc_backend(nn::Network& net,
                                                  const ScConfig& cfg) {
  return std::make_unique<ScBackend>(net, cfg);
}

std::unique_ptr<InferenceBackend> make_bipolar_backend(
    nn::Network& net, const BipolarConfig& cfg) {
  return std::make_unique<BipolarBackend>(net, cfg);
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
