// Tests for the paper's uniqueness claim (§2.1): because constant-initialized
// parameters regenerate trivially, DropBack can prune layers like
// BatchNorm and Parametric ReLU "which cannot be pruned using existing
// approaches" — they participate in the same global budget as weights.
#include <gtest/gtest.h>

#include "autograd/ops.hpp"
#include "core/dropback_optimizer.hpp"
#include "core/sparse_weight_store.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "rng/xorshift.hpp"

namespace dropback {
namespace {

namespace T = dropback::tensor;
namespace ag = dropback::autograd;

/// Linear -> BN1d -> PReLU -> Linear: every parameter kind the paper names.
std::unique_ptr<nn::Sequential> bn_prelu_net(std::uint64_t seed = 1) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Linear>(6, 8, seed);
  net->emplace<nn::BatchNorm1d>(8);
  net->emplace<nn::PReLU>(0.25F);
  net->emplace<nn::Linear>(8, 3, seed + 1);
  return net;
}

void make_gradients(nn::Module& net, std::uint64_t seed) {
  rng::Xorshift128 rng(seed);
  T::Tensor x({4, 6});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
  ag::Variable input(x);
  ag::backward(ag::sum(ag::mul(net.forward(input), net.forward(input))));
}

TEST(PrunableLayers, BnAndPreluParamsCompeteInTheGlobalBudget) {
  auto net = bn_prelu_net();
  auto params = net->collect_parameters();
  // The parameter list includes gamma/beta (BN) and slope (PReLU), all
  // prunable with constant InitSpecs.
  int constant_params = 0;
  for (auto* p : params) {
    if (p->init.kind() == rng::InitSpec::Kind::kConstant) {
      EXPECT_TRUE(p->prunable) << p->name;
      ++constant_params;
    }
  }
  EXPECT_GE(constant_params, 5);  // 2 biases + gamma + beta + slope

  core::DropBackConfig config;
  config.schedule = optim::constant_budget(10);
  core::DropBackOptimizer opt(params, 0.1F, config);
  for (int iter = 0; iter < 4; ++iter) {
    net->zero_grad();
    make_gradients(*net, 30 + iter);
    opt.step();
  }
  EXPECT_EQ(opt.live_weights(), 10);
}

TEST(PrunableLayers, UntrackedBnGammaRegeneratesToOne) {
  auto net = bn_prelu_net();
  auto params = net->collect_parameters();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(10);
  core::DropBackOptimizer opt(params, 0.1F, config);
  for (int iter = 0; iter < 4; ++iter) {
    net->zero_grad();
    make_gradients(*net, 40 + iter);
    opt.step();
  }
  // Find the BN gamma parameter; untracked entries must be exactly 1.0
  // (the regenerated constant), never 0 — that is what lets DropBack prune
  // BN without killing its channels.
  const auto& index = opt.param_index();
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    nn::Parameter& param = index.param(p);
    if (param.name != "gamma") continue;
    const std::uint8_t* mask = opt.tracked().mask_of(p);
    for (std::int64_t i = 0; i < param.numel(); ++i) {
      if (!mask[static_cast<std::size_t>(i)]) {
        EXPECT_FLOAT_EQ(param.var.value()[i], 1.0F);
      }
    }
  }
}

TEST(PrunableLayers, NetworkWithBnPreluTrainsUnderTightBudget) {
  // End-to-end: a net containing BN and PReLU must still fit a synthetic
  // separable task with most parameters forgotten. One init draw decides
  // little (single 150-step runs land anywhere in ~0.4-0.7 of their early
  // loss), so the claim is about the mean over several inits.
  const auto late_over_early = [](std::uint64_t seed) {
    auto net = bn_prelu_net(seed);
    auto params = net->collect_parameters();
    const std::int64_t total = net->num_params();
    core::DropBackConfig config;
    config.schedule = optim::constant_budget(total / 4);
    core::DropBackOptimizer opt(params, 0.05F, config);
    // Class = mean level of the inputs; average early vs late loss windows
    // (single-batch losses are too noisy for a point comparison).
    rng::Xorshift128 rng(5);
    double early_loss = 0.0, late_loss = 0.0;
    const int iters = 150;
    for (int iter = 0; iter < iters; ++iter) {
      T::Tensor x({8, 6});
      std::vector<std::int64_t> labels;
      for (std::int64_t b = 0; b < 8; ++b) {
        const std::int64_t cls = rng.uniform_int(3);
        labels.push_back(cls);
        for (std::int64_t f = 0; f < 6; ++f) {
          x.at({b, f}) = rng.normal(static_cast<float>(cls) - 1.0F, 0.3F);
        }
      }
      net->zero_grad();
      ag::Variable input(x);
      ag::Variable loss =
          ag::softmax_cross_entropy(net->forward(input), labels);
      if (iter < 20) early_loss += loss.value()[0];
      if (iter >= iters - 20) late_loss += loss.value()[0];
      ag::backward(loss);
      opt.step();
    }
    return late_loss / early_loss;
  };
  constexpr int kInits = 8;
  double ratio_sum = 0.0;
  for (int seed = 1; seed <= kInits; ++seed) {
    ratio_sum += late_over_early(static_cast<std::uint64_t>(seed));
  }
  EXPECT_LT(ratio_sum / kInits, 0.6)
      << "BN+PReLU net failed to train under DropBack";
}

TEST(PrunableLayers, SparseStoreRoundTripsConstantInitLayers) {
  auto net = bn_prelu_net();
  auto params = net->collect_parameters();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(12);
  core::DropBackOptimizer opt(params, 0.1F, config);
  for (int iter = 0; iter < 3; ++iter) {
    net->zero_grad();
    make_gradients(*net, 50 + iter);
    opt.step();
  }
  auto store = core::SparseWeightStore::from_optimizer(opt);
  auto fresh = bn_prelu_net(777);
  store.apply_to(fresh->collect_parameters());
  auto fp = fresh->collect_parameters();
  for (std::size_t p = 0; p < params.size(); ++p) {
    for (std::int64_t i = 0; i < params[p]->numel(); ++i) {
      ASSERT_EQ(fp[p]->var.value()[i], params[p]->var.value()[i])
          << params[p]->name;
    }
  }
}

}  // namespace
}  // namespace dropback
