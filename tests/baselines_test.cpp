#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.hpp"
#include "baselines/magnitude_pruner.hpp"
#include "baselines/network_slimming.hpp"
#include "baselines/variational_dropout.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/models/vgg_s.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "rng/xorshift.hpp"

namespace dropback::baselines {
namespace {

namespace T = dropback::tensor;
namespace ag = dropback::autograd;

std::unique_ptr<nn::Sequential> tiny_net(std::uint64_t seed = 1) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Linear>(4, 6, seed);
  net->emplace<nn::Linear>(6, 3, seed + 1);
  return net;
}

void make_gradients(nn::Module& net, std::uint64_t seed,
                    std::int64_t in_dim = 4) {
  rng::Xorshift128 rng(seed);
  T::Tensor x({2, in_dim});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
  ag::Variable input(x);
  ag::backward(ag::sum(ag::mul(net.forward(input), net.forward(input))));
}

// --- magnitude pruning ------------------------------------------------------

TEST(MagnitudePruning, KeepsExactlyTheBudget) {
  auto net = tiny_net();
  MagnitudePruningOptimizer opt(net->collect_parameters(), 0.1F,
                                /*prune_fraction=*/0.8F);
  EXPECT_EQ(opt.kept_weights(), std::max<std::int64_t>(1, 51 / 5));
  make_gradients(*net, 3);
  opt.step();
  // Count nonzero weights.
  std::int64_t nonzero = 0;
  for (auto* p : net->parameters()) {
    for (std::int64_t i = 0; i < p->numel(); ++i) {
      if (p->var.value()[i] != 0.0F) ++nonzero;
    }
  }
  EXPECT_LE(nonzero, opt.kept_weights());
}

TEST(MagnitudePruning, KeptWeightsAreTheLargest) {
  auto net = tiny_net();
  MagnitudePruningOptimizer opt(net->collect_parameters(), 0.01F, 0.5F);
  make_gradients(*net, 4);
  opt.step();
  // Every surviving weight must be >= every zeroed weight's pre-zero value
  // cannot be checked directly, but survivors must all exceed the smallest
  // survivor in magnitude by construction; verify mask consistency instead.
  const auto& kept = opt.kept();
  const auto& index = opt.param_index();
  float min_kept = 1e9F;
  float max_dropped = 0.0F;
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    nn::Parameter& param = index.param(p);
    const std::uint8_t* mask = kept.mask_of(p);
    for (std::int64_t i = 0; i < param.numel(); ++i) {
      const float v = std::fabs(param.var.value()[i]);
      if (mask[static_cast<std::size_t>(i)]) {
        min_kept = std::min(min_kept, v);
      } else {
        max_dropped = std::max(max_dropped, v);  // should be 0 after zeroing
      }
    }
  }
  EXPECT_FLOAT_EQ(max_dropped, 0.0F);
  EXPECT_GT(min_kept, 0.0F);
}

TEST(MagnitudePruning, CompressionRatioMatchesFraction) {
  auto net = tiny_net();
  MagnitudePruningOptimizer opt(net->collect_parameters(), 0.1F, 0.75F);
  EXPECT_NEAR(opt.compression_ratio(), 51.0 / opt.kept_weights(), 1e-9);
  EXPECT_NEAR(opt.compression_ratio(), 4.0, 0.35);
}

TEST(MagnitudePruning, RejectsFullPruning) {
  auto net = tiny_net();
  EXPECT_THROW(
      MagnitudePruningOptimizer(net->collect_parameters(), 0.1F, 1.0F),
      std::invalid_argument);
}

TEST(MagnitudePruning, ZeroFractionIsPlainSgd) {
  auto net_a = tiny_net(5);
  auto net_b = tiny_net(5);
  MagnitudePruningOptimizer mag(net_a->collect_parameters(), 0.2F, 0.0F);
  optim::SGD sgd(net_b->collect_parameters(), 0.2F);
  make_gradients(*net_a, 6);
  make_gradients(*net_b, 6);
  mag.step();
  sgd.step();
  auto pa = net_a->parameters();
  auto pb = net_b->parameters();
  for (std::size_t p = 0; p < pa.size(); ++p) {
    for (std::int64_t i = 0; i < pa[p]->numel(); ++i) {
      ASSERT_FLOAT_EQ(pa[p]->var.value()[i], pb[p]->var.value()[i]);
    }
  }
}

// --- variational dropout ----------------------------------------------------

TEST(VariationalDropout, KlIsPositiveAtInit) {
  VdLinear layer(6, 4, 7);
  ag::Variable kl = layer.kl();
  EXPECT_GT(kl.value()[0], 0.0F);
}

TEST(VariationalDropout, KlDecreasesWithLogAlpha) {
  // KL is minimized as alpha -> infinity (weight fully dropped); pushing
  // log_sigma2 up must lower the KL.
  VdLinear layer(6, 4, 7);
  const float kl_before = layer.kl().value()[0];
  layer.log_sigma2().var.value().fill_(5.0F);  // huge alpha
  const float kl_after = layer.kl().value()[0];
  EXPECT_LT(kl_after, kl_before);
}

TEST(VariationalDropout, NearlyAllWeightsActiveAtInit) {
  // log_sigma2 = -8 and theta ~ lecun => log alpha well below threshold for
  // all but weights that happened to initialize within ~1e-3 of zero.
  VdLinear layer(6, 4, 7);
  EXPECT_GE(layer.active_weights(), layer.total_weights() * 9 / 10);
}

TEST(VariationalDropout, HighAlphaWeightsGetPruned) {
  VdLinear layer(6, 4, 7);
  layer.log_sigma2().var.value().fill_(10.0F);
  EXPECT_EQ(layer.active_weights(), 0);
  // Eval-mode forward must then produce bias-only outputs.
  layer.set_training(false);
  ag::Variable x(T::Tensor::ones({1, 6}));
  auto y = layer.forward(x);
  for (std::int64_t i = 0; i < y.value().numel(); ++i) {
    EXPECT_FLOAT_EQ(y.value()[i], 0.0F);
  }
}

TEST(VariationalDropout, TrainingForwardIsStochastic) {
  VdLinear layer(8, 4, 7);
  layer.log_sigma2().var.value().fill_(-2.0F);  // visible noise
  layer.set_training(true);
  ag::Variable x(T::Tensor::ones({1, 8}));
  auto y1 = layer.forward(x);
  auto y2 = layer.forward(x);
  bool any_diff = false;
  for (std::int64_t i = 0; i < 4; ++i) {
    if (y1.value()[i] != y2.value()[i]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(VariationalDropout, EvalForwardIsDeterministic) {
  VdLinear layer(8, 4, 7);
  layer.set_training(false);
  ag::Variable x(T::Tensor::ones({1, 8}));
  auto y1 = layer.forward(x);
  auto y2 = layer.forward(x);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(y1.value()[i], y2.value()[i]);
  }
}

TEST(VariationalDropout, GradientsReachBothThetaAndLogSigma) {
  VdLinear layer(5, 3, 9);
  layer.set_training(true);
  rng::Xorshift128 rng(1);
  T::Tensor x({2, 5});
  for (std::int64_t i = 0; i < 10; ++i) x[i] = rng.uniform(-1, 1);
  ag::Variable input(x);
  auto y = layer.forward(input);
  auto loss = ag::add(ag::sum(ag::mul(y, y)),
                      ag::mul_scalar(layer.kl(), 0.01F));
  ag::backward(loss);
  EXPECT_TRUE(layer.theta().var.has_grad());
  EXPECT_TRUE(layer.log_sigma2().var.has_grad());
  EXPECT_GT(layer.log_sigma2().var.grad().norm(), 0.0F);
}

TEST(VariationalDropout, ConvVariantShapesAndPruning) {
  VdConv2d conv(2, 3, 3, 1, 1, 11);
  conv.set_training(true);
  rng::Xorshift128 rng(2);
  T::Tensor x({1, 2, 5, 5});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
  EXPECT_EQ(conv.forward(ag::Variable(x)).value().shape(),
            (T::Shape{1, 3, 5, 5}));
  EXPECT_EQ(conv.total_weights(), 2 * 3 * 9);
  // log alpha starts at -8 - log(theta^2), so a weight is pruned from the
  // start only where |theta| < e^-5.5 (log alpha >= 3). The CLT init draws
  // such a value for ~0.8% of these He weights (a byte sum within 1 of 510),
  // so count them rather than assume there are none.
  std::int64_t below_cut = 0;
  for (const nn::Parameter* p : conv.collect_parameters()) {
    if (p->name != "theta") continue;
    for (std::int64_t i = 0; i < p->numel(); ++i) {
      if (std::fabs(p->var.value()[i]) < std::exp(-5.5F)) ++below_cut;
    }
  }
  EXPECT_LE(below_cut, 2);
  EXPECT_EQ(conv.active_weights(), conv.total_weights() - below_cut);
}

TEST(VariationalDropout, BuildersWireUpLayers) {
  auto mlp = make_vd_mlp(16, {8}, 4, 5);
  EXPECT_EQ(mlp.vd_layers.size(), 2U);
  auto kl = vd_total_kl(mlp.vd_layers, 0.5F);
  EXPECT_GT(kl.value()[0], 0.0F);
  EXPECT_GT(vd_compression(mlp.vd_layers), 0.0);
  rng::Xorshift128 rng(3);
  T::Tensor x({2, 16});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
  EXPECT_EQ(mlp.net->forward(ag::Variable(x)).value().shape(),
            (T::Shape{2, 4}));
}

TEST(VariationalDropout, KlApproximationNearZeroAlphaIsLarge) {
  // For log alpha << 0 the KL per weight approaches +0.5*(-la) growth; it
  // must exceed the KL at log alpha >> 0 (which tends to 0).
  ag::Variable low(T::Tensor::full({1}, -10.0F));
  ag::Variable high(T::Tensor::full({1}, 10.0F));
  EXPECT_GT(vd_kl_from_log_alpha(low).value()[0],
            vd_kl_from_log_alpha(high).value()[0]);
  EXPECT_NEAR(vd_kl_from_log_alpha(high).value()[0], 0.0F, 0.05F);
}

// --- network slimming -------------------------------------------------------

std::unique_ptr<nn::Sequential> conv_bn_net() {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(1, 4, 3, 1, 1, 1);
  net->emplace<nn::BatchNorm2d>(4);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Conv2d>(4, 6, 3, 1, 1, 2);
  net->emplace<nn::BatchNorm2d>(6);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(6 * 4 * 4, 3, 3);
  return net;
}

TEST(NetworkSlimmingTest, FindsConvBnPairs) {
  auto net = conv_bn_net();
  NetworkSlimming slimming(*net, 1e-4F);
  EXPECT_EQ(slimming.num_pairs(), 2U);
  EXPECT_EQ(slimming.stats().channels_total, 10);
}

TEST(NetworkSlimmingTest, L1SubgradientPushesGammaGrads) {
  auto net = conv_bn_net();
  NetworkSlimming slimming(*net, 0.1F);
  slimming.add_l1_subgradient();
  auto* bn = dynamic_cast<nn::BatchNorm2d*>(&net->at(1));
  ASSERT_NE(bn, nullptr);
  // gamma starts at +1 everywhere, so subgradient is +lambda.
  for (std::int64_t c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(bn->gamma().var.grad()[c], 0.1F);
  }
}

TEST(NetworkSlimmingTest, PruneRemovesLowGammaChannels) {
  auto net = conv_bn_net();
  auto* bn1 = dynamic_cast<nn::BatchNorm2d*>(&net->at(1));
  // Make channels 0 and 2 of the first BN tiny.
  bn1->gamma().var.value()[0] = 1e-5F;
  bn1->gamma().var.value()[2] = 1e-5F;
  NetworkSlimming slimming(*net, 1e-4F);
  const auto stats = slimming.prune(0.2F);  // 2 of 10 channels
  EXPECT_EQ(stats.channels_pruned, 2);
  EXPECT_GT(stats.params_removed, 0);
  EXPECT_GT(stats.compression_ratio(), 1.0);
  // The pruned conv filter rows are zero.
  auto* conv1 = dynamic_cast<nn::Conv2d*>(&net->at(0));
  const auto& w = conv1->weight().var.value();
  for (std::int64_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(w[0 * 9 + i], 0.0F);  // channel 0 filter
    EXPECT_FLOAT_EQ(w[2 * 9 + i], 0.0F);  // channel 2 filter
  }
  // And the next conv's input slices for those channels are zero.
  auto* conv2 = dynamic_cast<nn::Conv2d*>(&net->at(3));
  const auto& w2 = conv2->weight().var.value();
  for (std::int64_t o = 0; o < 6; ++o) {
    for (std::int64_t i = 0; i < 9; ++i) {
      EXPECT_FLOAT_EQ(w2[(o * 4 + 0) * 9 + i], 0.0F);
      EXPECT_FLOAT_EQ(w2[(o * 4 + 2) * 9 + i], 0.0F);
    }
  }
}

TEST(NetworkSlimmingTest, ApplyMasksReZeroesAfterUpdates) {
  auto net = conv_bn_net();
  auto* bn1 = dynamic_cast<nn::BatchNorm2d*>(&net->at(1));
  bn1->gamma().var.value()[1] = 1e-6F;
  NetworkSlimming slimming(*net, 1e-4F);
  slimming.prune(0.1F);
  // Simulate retraining touching the pruned channel.
  auto* conv1 = dynamic_cast<nn::Conv2d*>(&net->at(0));
  conv1->weight().var.value()[1 * 9 + 3] = 0.5F;
  bn1->gamma().var.value()[1] = 0.7F;
  slimming.apply_masks();
  EXPECT_FLOAT_EQ(conv1->weight().var.value()[1 * 9 + 3], 0.0F);
  EXPECT_FLOAT_EQ(bn1->gamma().var.value()[1], 0.0F);
}

TEST(NetworkSlimmingTest, PruneOnVggTopologyRuns) {
  nn::models::VggSOptions opt;
  opt.width_mult = 0.05F;
  auto net = nn::models::make_vgg_s(opt);
  NetworkSlimming slimming(*net, 1e-4F);
  EXPECT_GT(slimming.num_pairs(), 5U);
  const auto stats = slimming.prune(0.3F);
  EXPECT_GT(stats.channels_pruned, 0);
  // The pruned network must still run forward.
  rng::Xorshift128 rng(1);
  T::Tensor x({1, 3, 32, 32});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(0, 1);
  net->set_training(false);
  EXPECT_EQ(net->forward(ag::Variable(x)).value().shape(), (T::Shape{1, 10}));
}

/// Fraction sweep for magnitude pruning budgets.
class MagFractionSweep : public ::testing::TestWithParam<float> {};

TEST_P(MagFractionSweep, BudgetFollowsFraction) {
  auto net = tiny_net();
  MagnitudePruningOptimizer opt(net->collect_parameters(), 0.1F, GetParam());
  const auto expected = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::llround(51 * (1.0 - GetParam()))));
  EXPECT_EQ(opt.kept_weights(), expected);
}

INSTANTIATE_TEST_SUITE_P(Fractions, MagFractionSweep,
                         ::testing::Values(0.0F, 0.25F, 0.5F, 0.75F, 0.8F,
                                           0.95F));

}  // namespace
}  // namespace dropback::baselines
