// End-to-end integration: train with the paper's OR-aware method, quantize,
// run the bit-level functional simulator — the full Table II pipeline on a
// reduced budget.
#include <gtest/gtest.h>

#include "sim/backend.hpp"
#include "sim/batch_evaluator.hpp"
#include "train/models.hpp"
#include "train/trainer.hpp"

namespace acoustic {
namespace {

/// Top-1 accuracy of @p net executed bit-level with @p cfg on @p data.
float sc_accuracy(nn::Network& net, const sim::ScConfig& cfg,
                  const train::Dataset& data) {
  sim::BatchEvaluator evaluator(1);
  return evaluator.evaluate(*sim::make_sc_backend(net, cfg), data).accuracy;
}

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    train_set_ = new train::Dataset(train::make_synth_digits(1000, 1001, 16));
    test_set_ = new train::Dataset(train::make_synth_digits(200, 2002, 16));
    net_ = new nn::Network(
        train::build_lenet_small(nn::AccumMode::kOrApprox, 16));
    train::TrainConfig cfg;
    cfg.epochs = 8;
    cfg.learning_rate = 0.05f;
    (void)train::fit(*net_, *train_set_, cfg);
  }

  static void TearDownTestSuite() {
    delete net_;
    delete test_set_;
    delete train_set_;
    net_ = nullptr;
    test_set_ = nullptr;
    train_set_ = nullptr;
  }

  static train::Dataset* train_set_;
  static train::Dataset* test_set_;
  static nn::Network* net_;
};

train::Dataset* PipelineTest::train_set_ = nullptr;
train::Dataset* PipelineTest::test_set_ = nullptr;
nn::Network* PipelineTest::net_ = nullptr;

TEST_F(PipelineTest, FloatAccuracyIsHigh) {
  EXPECT_GT(train::evaluate(*net_, *test_set_), 0.9f);
}

TEST_F(PipelineTest, EightBitQuantizationBarelyHurts) {
  const float facc = train::evaluate(*net_, *test_set_);
  const float qacc = train::evaluate_quantized(*net_, *test_set_, 8);
  EXPECT_GT(qacc, facc - 0.05f);
}

TEST_F(PipelineTest, StochasticExecutionReachesNearFixedPoint) {
  // Table II's central claim: with adequate streams, fully-stochastic
  // execution is close to the 8-bit fixed-point baseline.
  sim::ScConfig cfg;
  cfg.stream_length = 256;
  const float sc_acc = sc_accuracy(*net_, cfg, *test_set_);
  const float q_acc = train::evaluate_quantized(*net_, *test_set_, 8);
  EXPECT_GT(sc_acc, q_acc - 0.10f);
}

TEST_F(PipelineTest, LongerStreamsDoNotDegrade) {
  sim::ScConfig short_cfg;
  short_cfg.stream_length = 32;
  sim::ScConfig long_cfg;
  long_cfg.stream_length = 512;
  const float short_acc = sc_accuracy(*net_, short_cfg, *test_set_);
  const float long_acc = sc_accuracy(*net_, long_cfg, *test_set_);
  EXPECT_GE(long_acc + 0.03f, short_acc);
}

TEST_F(PipelineTest, SkippingPoolingPreservesAccuracy) {
  sim::ScConfig skip;
  skip.stream_length = 256;
  sim::ScConfig mux;
  mux.stream_length = 256;
  mux.pooling = sim::PoolingMode::kMux;
  const float skip_acc = sc_accuracy(*net_, skip, *test_set_);
  const float mux_acc = sc_accuracy(*net_, mux, *test_set_);
  EXPECT_NEAR(skip_acc, mux_acc, 0.06f);
}

}  // namespace
}  // namespace acoustic
