// Edge-case coverage across the stack: degenerate batch sizes, minimal
// shapes, boundary parameters — the configurations that break naive kernel
// implementations.
#include <gtest/gtest.h>

#include <cmath>

#include "autograd/conv_ops.hpp"
#include "autograd/ops.hpp"
#include "core/dropback_optimizer.hpp"
#include "tensor/ops.hpp"
#include "data/dataloader.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/models/lenet.hpp"
#include "nn/sequential.hpp"
#include "rng/xorshift.hpp"
#include "train/trainer.hpp"

namespace dropback {
namespace {

namespace T = dropback::tensor;
namespace ag = dropback::autograd;

T::Tensor rand_tensor(T::Shape shape, std::uint64_t seed) {
  rng::Xorshift128 rng(seed);
  T::Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(-1, 1);
  return t;
}

TEST(EdgeCases, BatchSizeOneThroughWholeMlp) {
  auto model = nn::models::make_mnist_100_100(3);
  ag::Variable x(rand_tensor({1, 784}, 1));
  ag::Variable logits = model->forward(x);
  EXPECT_EQ(logits.value().shape(), (T::Shape{1, 10}));
  ag::Variable loss = ag::softmax_cross_entropy(logits, {3});
  ag::backward(loss);
  EXPECT_TRUE(model->parameters()[0]->var.has_grad());
}

TEST(EdgeCases, BatchNormBatchOfOnePixel) {
  // N=1, H=W=1: per-channel variance is exactly 0; eps must keep the
  // normalization finite.
  nn::BatchNorm2d bn(2);
  bn.set_training(true);
  ag::Variable x(rand_tensor({1, 2, 1, 1}, 2));
  ag::Variable y = bn.forward(x);
  for (std::int64_t i = 0; i < y.value().numel(); ++i) {
    EXPECT_TRUE(std::isfinite(y.value()[i]));
  }
}

TEST(EdgeCases, ConvKernelLargerThanInputWithPadding) {
  // 5x5 kernel on a 3x3 input only works because padding extends the field.
  tensor::Conv2dSpec spec{5, 5, 1, 2};
  T::Tensor x = rand_tensor({1, 1, 3, 3}, 3);
  T::Tensor w = rand_tensor({1, 1, 5, 5}, 4);
  T::Tensor y = tensor::conv2d(x, w, T::Tensor(), spec);
  EXPECT_EQ(y.shape(), (T::Shape{1, 1, 3, 3}));
}

TEST(EdgeCases, ConvOutputOneByOne) {
  tensor::Conv2dSpec spec{3, 3, 1, 0};
  T::Tensor x = rand_tensor({2, 2, 3, 3}, 5);
  T::Tensor w = rand_tensor({4, 2, 3, 3}, 6);
  T::Tensor y = tensor::conv2d(x, w, T::Tensor(), spec);
  EXPECT_EQ(y.shape(), (T::Shape{2, 4, 1, 1}));
}

TEST(EdgeCases, SoftmaxSingleClassIsAlwaysOne) {
  T::Tensor x = rand_tensor({4, 1}, 7);
  T::Tensor p = tensor::row_softmax(x);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(p[i], 1.0F);
  // Cross entropy with one class is exactly zero.
  ag::Variable logits(x, false);
  ag::Variable loss = ag::softmax_cross_entropy(logits, {0, 0, 0, 0});
  EXPECT_NEAR(loss.value()[0], 0.0F, 1e-6F);
}

TEST(EdgeCases, MlpWithNoHiddenLayersIsLogisticRegression) {
  nn::models::Mlp model(6, {}, 3, 1);
  EXPECT_EQ(model.num_params(), 6 * 3 + 3);
  ag::Variable x(rand_tensor({2, 6}, 8));
  EXPECT_EQ(model.forward(x).value().shape(), (T::Shape{2, 3}));
}

TEST(EdgeCases, DataLoaderBatchLargerThanDataset) {
  data::SyntheticMnistOptions opt;
  opt.num_samples = 5;
  auto ds = data::make_synthetic_mnist(opt);
  data::DataLoader loader(*ds, 100, true);
  data::Batch batch;
  ASSERT_TRUE(loader.next(batch));
  EXPECT_EQ(batch.size(), 5);
  EXPECT_FALSE(loader.next(batch));
}

TEST(EdgeCases, TrainerValSetEqualsTrainSet) {
  data::SyntheticMnistOptions opt;
  opt.num_samples = 40;
  auto ds = data::make_synthetic_mnist(opt);
  auto model = nn::models::make_mnist_100_100(3);
  optim::SGD sgd(model->collect_parameters(), 0.1F);
  train::TrainConfig options;
  options.epochs = 2;
  options.batch_size = 20;
  train::Trainer trainer(*model, sgd, *ds, *ds, options);
  const auto result = trainer.run();
  EXPECT_EQ(result.history.size(), 2U);
}

TEST(EdgeCases, LinearOneByOne) {
  nn::Linear fc(1, 1, 1);
  ag::Variable x(T::Tensor::full({1, 1}, 2.0F));
  ag::Variable y = fc.forward(x);
  EXPECT_EQ(y.value().shape(), (T::Shape{1, 1}));
  EXPECT_FLOAT_EQ(y.value()[0],
                  2.0F * fc.weight().var.value()[0] +
                      fc.bias()->var.value()[0]);
}

TEST(EdgeCases, PreluWithNegativeSlopeParameter) {
  nn::PReLU prelu(-0.5F);
  ag::Variable x(T::Tensor::from_vector({2}, {-2.0F, 2.0F}));
  ag::Variable y = prelu.forward(x);
  EXPECT_FLOAT_EQ(y.value()[0], 1.0F);  // -2 * -0.5
  EXPECT_FLOAT_EQ(y.value()[1], 2.0F);
}

TEST(EdgeCases, DropBackBudgetEqualsTotalMinusOne) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Linear>(4, 6, 1);  // 30 params
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(29);
  core::DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  ag::Variable x(rand_tensor({2, 4}, 9));
  ag::backward(ag::sum(net->forward(x)));
  opt.step();
  EXPECT_EQ(opt.live_weights(), 29);
}

TEST(EdgeCases, ConcatSingleInputIsCopy) {
  ag::Variable a(rand_tensor({1, 2, 2, 2}, 10), true);
  ag::Variable c = ag::concat_channels({a});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(c.value()[i], a.value()[i]);
  }
  ag::backward(ag::sum(c));
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0F);
}

TEST(EdgeCases, GlobalAvgPoolOnOnePixel) {
  T::Tensor x = rand_tensor({2, 3, 1, 1}, 11);
  T::Tensor y = tensor::global_avgpool(x);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(EdgeCases, SyntheticMnistSingleSample) {
  data::SyntheticMnistOptions opt;
  opt.num_samples = 1;
  auto ds = data::make_synthetic_mnist(opt);
  EXPECT_EQ(ds->size(), 1);
  EXPECT_EQ(ds->label(0), 0);
}

TEST(EdgeCases, NoiseFreeMnistIsClean) {
  data::SyntheticMnistOptions opt;
  opt.num_samples = 10;
  opt.noise_stddev = 0.0F;
  auto ds = data::make_synthetic_mnist(opt);
  // Noise-free images have large exactly-zero background regions.
  std::vector<float> buf(784);
  ds->copy_sample(0, buf.data());
  int zeros = 0;
  for (float v : buf) {
    if (v == 0.0F) ++zeros;
  }
  EXPECT_GT(zeros, 300);
}

TEST(EdgeCases, EvaluateOnEmptyishBatchSizes) {
  data::SyntheticMnistOptions opt;
  opt.num_samples = 7;
  auto ds = data::make_synthetic_mnist(opt);
  auto model = nn::models::make_mnist_100_100(3);
  // batch size larger than set, equal, and 1.
  const double a = train::Trainer::evaluate(*model, *ds, 100);
  const double b = train::Trainer::evaluate(*model, *ds, 7);
  const double c = train::Trainer::evaluate(*model, *ds, 1);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_DOUBLE_EQ(b, c);
}

}  // namespace
}  // namespace dropback
