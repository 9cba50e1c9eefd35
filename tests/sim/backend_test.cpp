// The backends are the executors: each factory must build exactly what
// the executor's constructor builds, every executor snapshots the weights
// at construction, and clones are independent twins that share that one
// snapshot — the contract sim::BatchEvaluator builds on.
#include "sim/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/diagnostics.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "sim/bipolar_network.hpp"
#include "sim/sc_network.hpp"
#include "train/dataset.hpp"
#include "train/models.hpp"

namespace acoustic::sim {
namespace {

nn::Network make_net() {
  return train::build_lenet_small(nn::AccumMode::kOrApprox, 16);
}

train::Dataset make_data(std::size_t count) {
  return train::make_synth_digits(count, 1234, 16);
}

ScConfig small_sc() {
  ScConfig cfg;
  cfg.stream_length = 32;
  return cfg;
}

void expect_same_tensor(const nn::Tensor& a, const nn::Tensor& b) {
  ASSERT_EQ(a.data().size(), b.data().size());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

TEST(Backend, FloatMatchesNetworkForward) {
  nn::Network net = make_net();
  nn::Network reference = net.clone();
  const auto backend = make_float_backend(net);
  EXPECT_EQ(backend->name(), "float");
  for (const train::Sample& s : make_data(3).samples) {
    expect_same_tensor(backend->forward(s.image),
                       reference.forward(s.image));
  }
}

TEST(Backend, ScMatchesRawScNetwork) {
  nn::Network net = make_net();
  ScNetwork raw(net, small_sc());
  const auto backend = make_sc_backend(net, small_sc());
  EXPECT_EQ(backend->name(), "sc");
  for (const train::Sample& s : make_data(2).samples) {
    expect_same_tensor(backend->forward(s.image), raw.forward(s.image));
  }
}

TEST(Backend, ScMuxNameReflectsPooling) {
  nn::Network net = make_net();
  ScConfig cfg = small_sc();
  cfg.pooling = PoolingMode::kMux;
  EXPECT_EQ(make_sc_backend(net, cfg)->name(), "sc-mux");
}

TEST(Backend, BipolarMatchesRawBipolarNetwork) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kSum, 16);
  BipolarConfig cfg;
  cfg.stream_length = 32;
  BipolarNetwork raw(net, cfg);
  const auto backend = make_bipolar_backend(net, cfg);
  EXPECT_EQ(backend->name(), "bipolar");
  for (const train::Sample& s : make_data(2).samples) {
    expect_same_tensor(backend->forward(s.image), raw.forward(s.image));
  }
}

bool same_bytes(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

TEST(Backend, SnapshotsWeightsAtConstruction) {
  // Every executor runs a snapshot of the network it is given, taken at
  // construction. So an edit to the caller's network reaches neither an
  // executor built before it (warm: two forwards, so the SC stages already
  // hold their tables) nor that executor's clone, while one built after it
  // runs the edited weights: the SC datapath then matches the scalar
  // oracle on the edited network with clean plans. The edits are the
  // writes a caller can make: a ParamView write-back (every third value of
  // every parameter halved and negated, as train::evaluate_quantized
  // writes in place) and its restore, a dense weight, a sign flip of a
  // folded BatchNorm's gamma (its channel's products change phase) and
  // its running variance.
  const train::Sample sample = make_data(1).samples.front();
  // Long enough that the MUX selects the edited dense weight's product.
  BipolarConfig bipolar_cfg;
  bipolar_cfg.stream_length = 1024;
  const auto build = [&](std::string_view name, nn::Network& source)
      -> std::unique_ptr<InferenceBackend> {
    if (name == "float") {
      return make_float_backend(source);
    }
    if (name == "bipolar") {
      return std::make_unique<BipolarNetwork>(source, bipolar_cfg);
    }
    ScConfig cfg = small_sc();
    cfg.pooling = name == "sc" ? PoolingMode::kSkipping : PoolingMode::kMux;
    return std::make_unique<ScNetwork>(source, cfg);
  };
  // conv -> BatchNorm -> 2x2 average pool -> ReLU -> dense: sc folds the
  // BatchNorm into the conv node and fuses the pool, sc-mux only folds.
  nn::Network net;
  net.add<nn::Conv2D>(nn::ConvSpec{.in_channels = 1, .out_channels = 4,
                                   .kernel = 3, .padding = 1,
                                   .mode = nn::AccumMode::kOrApprox})
      .initialize(91);
  auto& bn = net.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = 4});
  bn.initialize(93);
  net.add<nn::AvgPool2D>(2);
  net.add<nn::ReLU>();
  auto& dense = net.add<nn::Dense>(nn::DenseSpec{
      .in_features = 8 * 8 * 4, .out_features = 5,
      .mode = nn::AccumMode::kOrApprox});
  dense.initialize(95);
  // The dense edit flips output 0's weight from the most active dense
  // input to full magnitude, so every datapath's logits move.
  std::size_t hottest = 0;
  (void)net.forward_with_hook(sample.image, [&](nn::Tensor& t,
                                                std::size_t layer) {
    if (layer == 3) {
      hottest = t.argmax();
    }
  });
  std::vector<nn::ParamView> params = net.parameters();
  std::vector<std::vector<float>> saved;
  for (const nn::ParamView& p : params) {
    saved.emplace_back(p.values.begin(), p.values.end());
  }
  struct Edit {
    const char* name;
    std::function<void()> apply;
  };
  const Edit edits[] = {
      {"ParamView write-back",
       [&] {
         for (nn::ParamView& p : params) {
           for (std::size_t i = 0; i < p.values.size(); i += 3) {
             p.values[i] = -0.5f * p.values[i];
           }
         }
       }},
      {"ParamView restore",
       [&] {
         for (std::size_t p = 0; p < params.size(); ++p) {
           std::copy(saved[p].begin(), saved[p].end(),
                     params[p].values.begin());
         }
       }},
      {"dense weight",
       [&] {
         float& w = dense.weights()[hottest];
         w = w > 0.0f ? -1.0f : 1.0f;
       }},
      {"gamma sign flip", [&] { bn.gamma()[1] = -1.5f * bn.gamma()[1]; }},
      {"variance", [&] { bn.variance()[2] *= 4.0f; }},
  };
  std::map<std::string_view, nn::Tensor> original;
  for (const Edit& edit : edits) {
    SCOPED_TRACE(edit.name);
    std::map<std::string_view, std::unique_ptr<InferenceBackend>> built;
    std::map<std::string_view, nn::Tensor> before;
    for (const std::string_view name : kBackendNames) {
      built[name] = build(name, net);
      before[name] = built[name]->forward(sample.image);
      expect_same_tensor(built[name]->forward(sample.image), before[name]);
      original.emplace(name, before[name]);
    }
    edit.apply();
    for (const std::string_view name : kBackendNames) {
      SCOPED_TRACE(std::string(name));
      expect_same_tensor(built[name]->forward(sample.image), before[name]);
      expect_same_tensor(built[name]->clone()->forward(sample.image),
                         before[name]);
      const nn::Tensor after = build(name, net)->forward(sample.image);
      EXPECT_FALSE(same_bytes(after, before[name]));
      if (std::string_view(edit.name) == "ParamView restore") {
        expect_same_tensor(after, original[name]);
      }
    }
    for (const PoolingMode pooling :
         {PoolingMode::kSkipping, PoolingMode::kMux}) {
      ScConfig cfg = small_sc();
      cfg.pooling = pooling;
      ScNetwork planned(net, cfg);
      cfg.exec = ExecMode::kScalar;
      ScNetwork oracle(net, cfg);
      EXPECT_TRUE(same_bytes(planned.forward(sample.image),
                             oracle.forward(sample.image)));
      const core::Report plans = planned.validate_plans();
      EXPECT_TRUE(plans.clean()) << plans.to_string();
    }
  }
}

TEST(Backend, CloneProducesIdenticalOutputs) {
  nn::Network net = make_net();
  const auto backend = make_sc_backend(net, small_sc());
  const auto clone = backend->clone();
  EXPECT_EQ(clone->name(), backend->name());
  for (const train::Sample& s : make_data(2).samples) {
    expect_same_tensor(clone->forward(s.image),
                       backend->forward(s.image));
  }
}

TEST(Backend, ClonesShareTheirPrototypesNetwork) {
  // One deep copy per make_backend call, none per clone(): a clone (and a
  // clone of a clone) reads the very nn::Network object its prototype
  // reads, a snapshot distinct from the caller's network.
  nn::Network net = make_net();
  BipolarConfig bipolar_cfg;
  bipolar_cfg.stream_length = 32;
  for (const std::string_view name : kBackendNames) {
    const auto backend =
        make_backend(std::string(name), net, small_sc(), bipolar_cfg);
    const auto clone = backend->clone();
    const auto grandchild = clone->clone();
    const nn::Network& snapshot =
        dynamic_cast<const GraphExecutor&>(*backend).network();
    EXPECT_NE(&snapshot, &net) << name;
    EXPECT_EQ(&dynamic_cast<const GraphExecutor&>(*clone).network(),
              &snapshot)
        << name;
    EXPECT_EQ(&dynamic_cast<const GraphExecutor&>(*grandchild).network(),
              &snapshot)
        << name;
    EXPECT_EQ(clone->name(), name);
  }
}

TEST(Backend, ConcurrentClonesMatchASerialRun) {
  // Four clones of each backend run at once on one shared snapshot, each
  // starting at another image: skip nodes (resnet-tiny) and max pools
  // (cifar-max) keep their state in the walk, not in the network, so every
  // clone's logits equal a serial run's byte for byte.
  const train::Dataset data = train::make_synth_objects(3, 4321, 16);
  BipolarConfig bipolar_cfg;
  bipolar_cfg.stream_length = 32;
  for (const bool residual : {true, false}) {
    nn::Network net =
        residual ? train::build_resnet_tiny(nn::AccumMode::kOrApprox, 16)
                 : train::build_cifar_small_maxpool(nn::AccumMode::kOrApprox,
                                                    16);
    for (const std::string_view name : kBackendNames) {
      const auto backend =
          make_backend(std::string(name), net, small_sc(), bipolar_cfg);
      std::vector<nn::Tensor> serial;
      for (const train::Sample& s : data.samples) {
        serial.push_back(backend->forward(s.image));
      }
      constexpr std::size_t kClones = 4;
      std::vector<std::unique_ptr<InferenceBackend>> clones;
      std::vector<std::vector<nn::Tensor>> got(
          kClones, std::vector<nn::Tensor>(serial.size()));
      std::vector<std::string> errors(kClones);
      for (std::size_t c = 0; c < kClones; ++c) {
        clones.push_back(backend->clone());
      }
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < kClones; ++c) {
        threads.emplace_back([&, c] {
          try {
            for (std::size_t k = 0; k < serial.size(); ++k) {
              const std::size_t i = (k + c) % serial.size();
              got[c][i] = clones[c]->forward(data.samples[i].image);
            }
          } catch (const std::exception& e) {
            errors[c] = e.what();
          }
        });
      }
      for (std::thread& t : threads) {
        t.join();
      }
      for (std::size_t c = 0; c < kClones; ++c) {
        ASSERT_EQ(errors[c], "") << name << " clone " << c;
        for (std::size_t i = 0; i < serial.size(); ++i) {
          ASSERT_EQ(got[c][i].shape(), serial[i].shape());
          EXPECT_EQ(std::memcmp(got[c][i].data().data(),
                                serial[i].data().data(),
                                serial[i].size() * sizeof(float)),
                    0)
              << name << (residual ? " resnet-tiny" : " cifar-max")
              << " clone " << c << " image " << i;
        }
      }
    }
  }
}

TEST(Backend, StatsCountSamplesAndWork) {
  nn::Network net = make_net();
  const auto backend = make_sc_backend(net, small_sc());
  const train::Dataset data = make_data(3);
  for (const train::Sample& s : data.samples) {
    (void)backend->forward(s.image);
  }
  const RunStats stats = backend->stats();
  EXPECT_EQ(stats.samples, 3u);
  EXPECT_GT(stats.layers_run, 0u);
  EXPECT_GT(stats.product_bits, 0u);
  EXPECT_GT(stats.skipped_operands, 0u);
}

TEST(Backend, TakeStatsReturnsAndResets) {
  nn::Network net = make_net();
  const auto backend = make_float_backend(net);
  const train::Sample sample = make_data(1).samples.front();
  (void)backend->forward(sample.image);
  (void)backend->forward(sample.image);
  const RunStats taken = backend->take_stats();
  EXPECT_EQ(taken.samples, 2u);
  const RunStats after = backend->stats();
  EXPECT_EQ(after.samples, 0u);
  EXPECT_EQ(after.layers_run, 0u);
  EXPECT_EQ(after.product_bits, 0u);
  EXPECT_EQ(after.skipped_operands, 0u);
}

TEST(Backend, TakeStatsResetsScExecutorToo) {
  nn::Network net = make_net();
  const auto backend = make_sc_backend(net, small_sc());
  const train::Sample sample = make_data(1).samples.front();
  (void)backend->forward(sample.image);
  const RunStats first = backend->take_stats();
  EXPECT_GT(first.product_bits, 0u);
  (void)backend->forward(sample.image);
  const RunStats second = backend->take_stats();
  // Same sample, freshly reset counters: the second run's stats must equal
  // the first run's, not accumulate on top of them.
  EXPECT_EQ(second.samples, first.samples);
  EXPECT_EQ(second.layers_run, first.layers_run);
  EXPECT_EQ(second.product_bits, first.product_bits);
  EXPECT_EQ(second.skipped_operands, first.skipped_operands);
}

TEST(Backend, EveryBackendRejectsABinaryDomainFirstLayer) {
  // Every backend lowers the network into the same node list, and a
  // binary-domain layer has no node to attach to before the first one.
  nn::Network net;
  net.add<nn::ReLU>();
  net.add<nn::Dense>(nn::DenseSpec{.in_features = 4, .out_features = 2})
      .initialize(3);
  for (const std::string_view name : kBackendNames) {
    EXPECT_THROW((void)make_backend(std::string(name), net, small_sc()),
                 std::invalid_argument)
        << name;
  }
}

TEST(Backend, LayersRunAgreesAcrossBackends) {
  // One projection block: conv, then a skip path whose 1x1 stride-2
  // projection conv is a weighted layer too, then a dense head — four
  // weighted layers per image on every backend.
  nn::Network net;
  auto state = std::make_shared<nn::SkipState>();
  auto& stem = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 1, .out_channels = 2, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kOrApprox});
  net.add<nn::ReLU>();
  net.add<nn::SkipSave>(state);
  auto& proj = net.add<nn::SkipProject>(
      state, nn::ConvSpec{.in_channels = 2, .out_channels = 4, .kernel = 1,
                          .stride = 2, .mode = nn::AccumMode::kOrApprox});
  auto& body = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 2, .out_channels = 4, .kernel = 3, .stride = 2,
      .padding = 1, .mode = nn::AccumMode::kOrApprox});
  net.add<nn::SkipAdd>(state);
  net.add<nn::ReLU>();
  auto& head = net.add<nn::Dense>(nn::DenseSpec{
      .in_features = 64, .out_features = 3, .mode = nn::AccumMode::kOrApprox});
  stem.initialize(71);
  proj.conv().initialize(72);
  body.initialize(73);
  head.initialize(74);

  nn::Tensor image(nn::Shape{8, 8, 1});
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<float>(i % 5) / 4.0f;
  }
  for (const char* name : {"float", "sc", "bipolar"}) {
    const auto backend = make_backend(name, net, small_sc());
    (void)backend->forward(image);
    (void)backend->forward(image);
    EXPECT_EQ(backend->stats().layers_run, 8u) << name;
  }
}

TEST(Backend, MakeBackendResolvesAllNames) {
  // kBackendNames is the --backend vocabulary; each name builds itself.
  nn::Network net = make_net();
  ASSERT_EQ(kBackendNames.size(), 4U);
  for (const std::string_view name : kBackendNames) {
    EXPECT_EQ(make_backend(std::string(name), net, small_sc())->name(), name);
  }
}

TEST(Backend, MakeBackendForcesPoolingMode) {
  // The name selects the pooling mode even if the passed config disagrees.
  nn::Network net = make_net();
  ScConfig cfg = small_sc();
  cfg.pooling = PoolingMode::kMux;
  EXPECT_EQ(make_backend("sc", net, cfg)->name(), "sc");
  cfg.pooling = PoolingMode::kSkipping;
  EXPECT_EQ(make_backend("sc-mux", net, cfg)->name(), "sc-mux");
}

TEST(Backend, MakeBackendRejectsUnknownName) {
  nn::Network net = make_net();
  EXPECT_THROW((void)make_backend("fixed-point", net),
               std::invalid_argument);
}

TEST(RunStats, MergeIsFieldwiseSum) {
  RunStats a{1, 2, 3, 4};
  const RunStats b{10, 20, 30, 40};
  a.merge(b);
  EXPECT_EQ(a, (RunStats{11, 22, 33, 44}));
}

}  // namespace
}  // namespace acoustic::sim
