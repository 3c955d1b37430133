// Composite-graph gradient checks: numerical verification through realistic
// multi-op subgraphs (conv+BN+pool stacks, residual adds, dense concats) —
// the interaction cases single-op gradchecks cannot cover. Also covers the
// LeNet-5 model.
#include <gtest/gtest.h>

#include <cmath>

#include "autograd/conv_ops.hpp"
#include "autograd/ops.hpp"
#include "gradcheck.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "core/dropback_optimizer.hpp"
#include "nn/models/lenet.hpp"
#include "tensor/ops.hpp"

namespace dropback::autograd {
namespace {

namespace T = dropback::tensor;
using dropback::testing::expect_gradients_close;
using dropback::testing::random_tensor;

class CompositeGradTest : public ::testing::Test {
 protected:
  rng::Xorshift128 rng_{321};
};

TEST_F(CompositeGradTest, ConvBnReluPoolChain) {
  Variable x(random_tensor({2, 2, 4, 4}, rng_), true);
  Variable w(random_tensor({3, 2, 3, 3}, rng_), true);
  Variable gamma(T::Tensor::from_vector({3}, {1.1F, 0.9F, 1.3F}), true);
  Variable beta(T::Tensor::from_vector({3}, {0.1F, -0.1F, 0.0F}), true);
  tensor::Conv2dSpec spec{3, 3, 1, 1};
  expect_gradients_close(
      [&] {
        T::Tensor rm = T::Tensor::zeros({3});
        T::Tensor rv = T::Tensor::ones({3});
        Variable h = conv2d(x, w, Variable(), spec);
        h = batch_norm2d(h, gamma, beta, rm, rv, true, 0.1F, 1e-5F);
        h = relu(h);
        h = avgpool2d(h, 2, 2);
        return sum(mul(h, h));
      },
      {x, w, gamma, beta}, 1e-2F, 0.1F, 1e-2F);
}

TEST_F(CompositeGradTest, ResidualBlockGradient) {
  // h = relu(conv(x)) + x  (the WRN skip pattern).
  Variable x(random_tensor({1, 2, 4, 4}, rng_), true);
  Variable w(random_tensor({2, 2, 3, 3}, rng_), true);
  tensor::Conv2dSpec spec{3, 3, 1, 1};
  expect_gradients_close(
      [&] {
        Variable h = relu(conv2d(x, w, Variable(), spec));
        h = add(h, x);
        return sum(mul(h, h));
      },
      {x, w}, 1e-2F, 8e-2F, 8e-3F);
}

TEST_F(CompositeGradTest, DenseConcatGradient) {
  // h1 = conv(x); h = concat(x, h1); y = conv(h)  (the DenseNet pattern).
  Variable x(random_tensor({1, 2, 4, 4}, rng_), true);
  Variable w1(random_tensor({2, 2, 3, 3}, rng_), true);
  Variable w2(random_tensor({1, 4, 3, 3}, rng_), true);
  tensor::Conv2dSpec spec{3, 3, 1, 1};
  expect_gradients_close(
      [&] {
        Variable h1 = conv2d(x, w1, Variable(), spec);
        Variable h = concat_channels({x, h1});
        Variable y = conv2d(h, w2, Variable(), spec);
        return sum(mul(y, y));
      },
      {x, w1, w2}, 1e-2F, 0.1F, 1e-2F);
}

TEST_F(CompositeGradTest, CrossEntropyThroughMlpStack) {
  Variable x(random_tensor({3, 5}, rng_), true);
  Variable w1(random_tensor({4, 5}, rng_), true);
  Variable b1(random_tensor({4}, rng_), true);
  Variable w2(random_tensor({3, 4}, rng_), true);
  const std::vector<std::int64_t> labels{0, 2, 1};
  expect_gradients_close(
      [&] {
        Variable h = relu(linear(x, w1, b1));
        Variable logits = linear(h, w2, Variable());
        return softmax_cross_entropy(logits, labels);
      },
      {x, w1, b1, w2});
}

TEST_F(CompositeGradTest, SharedWeightAcrossTwoBranches) {
  // The same weight used in two branches must receive summed gradients.
  Variable x(random_tensor({2, 3}, rng_), true);
  Variable w(random_tensor({3, 3}, rng_), true);
  expect_gradients_close(
      [&] {
        Variable a = linear(x, w, Variable());
        Variable b = linear(mul_scalar(x, 2.0F), w, Variable());
        return sum(mul(add(a, b), add(a, b)));
      },
      {x, w});
}

TEST_F(CompositeGradTest, DropoutMaskIsConstantThroughBackward) {
  // With a fixed mask (train-mode dropout applied via mul_mask), gradients
  // are exactly masked.
  Variable x(random_tensor({6}, rng_), true);
  T::Tensor mask = T::Tensor::from_vector({6}, {2, 0, 2, 0, 2, 0});
  Variable y = mul_mask(x, mask);
  backward(sum(y));
  for (std::int64_t i = 0; i < 6; ++i) {
    EXPECT_FLOAT_EQ(x.grad()[i], mask[i]);
  }
}

// --- LeNet-5 -----------------------------------------------------------------

TEST(LeNet5Model, ForwardShapeAndParamCount) {
  auto model = nn::models::make_lenet5(3);
  rng::Xorshift128 rng(1);
  autograd::Variable x(dropback::testing::random_tensor({2, 1, 28, 28}, rng));
  EXPECT_EQ(model->forward(x).value().shape(), (T::Shape{2, 10}));
  // conv1 6*1*25+6=156; conv2 16*6*25+16=2416; fc 400*120+120 + 120*84+84 +
  // 84*10+10 = 48120 + 10164 + 850 = 61666.
  EXPECT_EQ(model->num_params(), 156 + 2416 + 48120 + 10164 + 850);
}

TEST(LeNet5Model, BackwardReachesAllParams) {
  auto model = nn::models::make_lenet5(3);
  rng::Xorshift128 rng(2);
  autograd::Variable x(dropback::testing::random_tensor({1, 1, 28, 28}, rng));
  backward(sum(model->forward(x)));
  for (auto* p : model->parameters()) {
    EXPECT_TRUE(p->var.has_grad()) << p->name;
  }
}

TEST(LeNet5Model, TrainsUnderDropBack) {
  auto model = nn::models::make_lenet5(3);
  auto params = model->collect_parameters();
  dropback::core::DropBackConfig config;
  config.schedule = optim::constant_budget(model->num_params() / 5);
  dropback::core::DropBackOptimizer opt(params, 0.05F, config);
  rng::Xorshift128 rng(4);
  double first_loss = 0.0, last_loss = 0.0;
  for (int iter = 0; iter < 20; ++iter) {
    model->zero_grad();
    T::Tensor x({4, 1, 28, 28});
    std::vector<std::int64_t> labels;
    for (int b = 0; b < 4; ++b) {
      const std::int64_t cls = rng.uniform_int(2);
      labels.push_back(cls);
      for (std::int64_t p = 0; p < 784; ++p) {
        x[b * 784 + p] = rng.normal(static_cast<float>(cls), 0.3F);
      }
    }
    Variable input(x);
    Variable loss = softmax_cross_entropy(model->forward(input), labels);
    if (iter == 0) first_loss = loss.value()[0];
    last_loss = loss.value()[0];
    backward(loss);
    opt.step();
  }
  EXPECT_LT(last_loss, first_loss);
  EXPECT_EQ(opt.live_weights(), model->num_params() / 5);
}

}  // namespace
}  // namespace dropback::autograd
