#include "sim/backend.hpp"

#include <stdexcept>
#include <utility>

namespace acoustic::sim {

namespace {

/// Lowercase tag for the float backend's per-layer span kinds.
std::string kind_tag(nn::Layer::Kind kind) {
  switch (kind) {
    case nn::Layer::Kind::kConv2D:
      return "conv";
    case nn::Layer::Kind::kDense:
      return "dense";
    default:
      return "post";
  }
}

/// Layers that own streamed weights, skip projections included: the
/// layers_run ScNetwork counts per image.
std::uint64_t count_weighted_layers(nn::Network& net) {
  std::uint64_t weighted = 0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    weighted += nn::is_weighted(net.layer(i).kind()) ? 1 : 0;
  }
  return weighted;
}

/// Float reference: the network's own (binary-arithmetic) forward pass.
class FloatBackend final : public InferenceBackend {
 public:
  explicit FloatBackend(nn::Network& net)
      : net_(std::make_unique<nn::Network>(net.clone())),
        weighted_layers_(count_weighted_layers(*net_)) {}

  [[nodiscard]] std::string name() const override { return "float"; }

  [[nodiscard]] std::unique_ptr<InferenceBackend> clone() const override {
    return std::make_unique<FloatBackend>(*net_);
  }

  [[nodiscard]] nn::Tensor forward(const nn::Tensor& input) override {
    ++stats_.samples;
    stats_.layers_run += weighted_layers_;
    if (profiler_ == nullptr) {
      return net_->forward(input);
    }
    // Profiled path: run layer by layer so every layer (weighted and
    // post-op alike) gets its own span.
    nn::Tensor x = input;
    for (std::size_t i = 0; i < net_->layer_count(); ++i) {
      nn::Layer& layer = net_->layer(i);
      obs::Span span(profiler_, layer.name(), "layer", track_,
                     static_cast<std::uint32_t>(i));
      span.kind(kind_tag(layer.kind()));
      x = layer.forward(x);
    }
    return x;
  }

  [[nodiscard]] RunStats stats() const override { return stats_; }
  [[nodiscard]] RunStats take_stats() override {
    return std::exchange(stats_, RunStats{});
  }

  void set_profiler(obs::Profiler* profiler, std::uint32_t track) override {
    profiler_ = profiler;
    track_ = track;
  }

 private:
  std::unique_ptr<nn::Network> net_;
  std::uint64_t weighted_layers_;
  RunStats stats_;
  obs::Profiler* profiler_ = nullptr;
  std::uint32_t track_ = 0;
};

/// Bit-level split-unipolar execution via ScNetwork.
class ScBackend final : public InferenceBackend {
 public:
  ScBackend(nn::Network& net, const ScConfig& cfg,
            std::shared_ptr<WeightPlanStore> shared_plans = nullptr)
      : net_(std::make_unique<nn::Network>(net.clone())),
        exec_(*net_, cfg, std::move(shared_plans)) {}

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

 private:
  std::unique_ptr<nn::Network> net_;
  ScNetwork exec_;
};

/// Conventional bipolar-MUX execution via BipolarNetwork.
class BipolarBackend final : public InferenceBackend {
 public:
  BipolarBackend(nn::Network& net, const BipolarConfig& cfg)
      : net_(std::make_unique<nn::Network>(net.clone())),
        exec_(*net_, cfg),
        weighted_layers_(count_weighted_layers(*net_)) {}

  [[nodiscard]] std::string name() const override { return "bipolar"; }

  [[nodiscard]] std::unique_ptr<InferenceBackend> clone() const override {
    return std::make_unique<BipolarBackend>(*net_, exec_.config());
  }

  [[nodiscard]] nn::Tensor forward(const nn::Tensor& input) override {
    ++stats_.samples;
    stats_.layers_run += weighted_layers_;
    return exec_.forward(input);
  }

  [[nodiscard]] RunStats stats() const override { return stats_; }
  [[nodiscard]] RunStats take_stats() override {
    return std::exchange(stats_, RunStats{});
  }

  void set_profiler(obs::Profiler* profiler, std::uint32_t track) override {
    exec_.set_profiler(profiler, track);
  }

 private:
  std::unique_ptr<nn::Network> net_;
  BipolarNetwork exec_;
  std::uint64_t weighted_layers_;
  RunStats stats_;
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
