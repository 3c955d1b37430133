// Proves the production DropBackOptimizer implements the paper's
// Algorithm 1 exactly: the literal sort-everything reference and the
// optimized nth_element/regeneration implementation produce bit-identical
// weight trajectories on identical gradient sequences.
#include <gtest/gtest.h>

#include "autograd/ops.hpp"
#include "core/dropback_optimizer.hpp"
#include "core/reference_algorithm.hpp"
#include "nn/linear.hpp"
#include "nn/models/lenet.hpp"
#include "nn/sequential.hpp"
#include "rng/xorshift.hpp"

namespace dropback::core {
namespace {

namespace T = dropback::tensor;
namespace ag = dropback::autograd;

std::unique_ptr<nn::Sequential> tiny_net(std::uint64_t seed = 1) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Linear>(4, 6, seed);
  net->emplace<nn::Linear>(6, 3, seed + 1);
  return net;
}

void make_gradients(nn::Module& net, std::uint64_t seed) {
  rng::Xorshift128 rng(seed);
  T::Tensor x({2, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
  ag::Variable input(x);
  ag::backward(ag::sum(ag::mul(net.forward(input), net.forward(input))));
}

void expect_identical_weights(const std::vector<nn::Parameter*>& a,
                              const std::vector<nn::Parameter*>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    for (std::int64_t i = 0; i < a[p]->numel(); ++i) {
      ASSERT_EQ(a[p]->var.value()[i], b[p]->var.value()[i])
          << "param " << p << " index " << i;
    }
  }
}

class ReferenceEquivalence
    : public ::testing::TestWithParam<std::pair<std::int64_t, float>> {};

TEST_P(ReferenceEquivalence, TrajectoriesAreBitIdentical) {
  const auto [budget, lr] = GetParam();
  auto net_opt = tiny_net(5);
  auto net_ref = tiny_net(5);
  auto params_opt = net_opt->collect_parameters();
  auto params_ref = net_ref->collect_parameters();

  DropBackConfig config;
  config.schedule = optim::constant_budget(budget);
  DropBackOptimizer optimizer(params_opt, lr, config);
  ReferenceState state = make_reference_state(params_ref);

  for (int iter = 0; iter < 6; ++iter) {
    net_opt->zero_grad();
    net_ref->zero_grad();
    make_gradients(*net_opt, 40 + iter);
    make_gradients(*net_ref, 40 + iter);
    optimizer.step();
    reference_dropback_step(params_ref, state, lr, budget);
    expect_identical_weights(params_opt, params_ref);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ReferenceEquivalence,
    ::testing::Values(std::make_pair(5LL, 0.1F), std::make_pair(12LL, 0.1F),
                      std::make_pair(25LL, 0.3F), std::make_pair(50LL, 0.05F),
                      std::make_pair(1LL, 0.2F)));

TEST(ReferenceEquivalenceFreeze, FrozenTrajectoriesMatch) {
  const std::int64_t budget = 10;
  const float lr = 0.2F;
  auto net_opt = tiny_net(7);
  auto net_ref = tiny_net(7);
  auto params_opt = net_opt->collect_parameters();
  auto params_ref = net_ref->collect_parameters();

  DropBackConfig config;
  config.schedule = optim::constant_budget(budget, 3);
  DropBackOptimizer optimizer(params_opt, lr, config);
  ReferenceState state = make_reference_state(params_ref);

  for (int iter = 0; iter < 8; ++iter) {
    net_opt->zero_grad();
    net_ref->zero_grad();
    make_gradients(*net_opt, 90 + iter);
    make_gradients(*net_ref, 90 + iter);
    optimizer.step();
    reference_dropback_step(params_ref, state, lr, budget,
                            /*freeze_now=*/iter == 2);
    expect_identical_weights(params_opt, params_ref);
  }
  EXPECT_TRUE(optimizer.frozen());
  EXPECT_TRUE(state.frozen);
}

TEST(ReferenceEquivalenceScale, MnistModelOneStepMatches) {
  // One full-size sanity step on the 89.6k-parameter model.
  auto model_opt = nn::models::make_mnist_100_100(7);
  auto model_ref = nn::models::make_mnist_100_100(7);
  auto params_opt = model_opt->collect_parameters();
  auto params_ref = model_ref->collect_parameters();
  DropBackConfig config;
  config.schedule = optim::constant_budget(2000);
  DropBackOptimizer optimizer(params_opt, 0.1F, config);
  ReferenceState state = make_reference_state(params_ref);
  // Identical synthetic gradients.
  rng::Xorshift128 rng(3);
  for (std::size_t p = 0; p < params_opt.size(); ++p) {
    float* ga = params_opt[p]->var.grad().data();
    float* gb = params_ref[p]->var.grad().data();
    for (std::int64_t i = 0; i < params_opt[p]->numel(); ++i) {
      const float g = rng.uniform(-1, 1);
      ga[i] = g;
      gb[i] = g;
    }
  }
  optimizer.step();
  reference_dropback_step(params_ref, state, 0.1F, 2000);
  expect_identical_weights(params_opt, params_ref);
}

}  // namespace
}  // namespace dropback::core
