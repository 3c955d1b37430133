#include "core/dropback_optimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "autograd/ops.hpp"
#include "core/accumulated_gradients.hpp"
#include "core/reference_algorithm.hpp"
#include "core/tracked_set.hpp"
#include "nn/linear.hpp"
#include "nn/models/lenet.hpp"
#include "nn/sequential.hpp"
#include "rng/xorshift.hpp"

namespace dropback::core {
namespace {

namespace T = dropback::tensor;
namespace ag = dropback::autograd;

/// Two-linear model used across the suite.
std::unique_ptr<nn::Sequential> tiny_net(std::uint64_t seed = 1) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Linear>(4, 6, seed);
  net->emplace<nn::Linear>(6, 3, seed + 1);
  return net;
}

/// The reference priority-queue top-k as a mask over all weights.
std::vector<bool> heap_mask(const std::vector<float>& scores, std::int64_t k) {
  std::vector<bool> mask(scores.size(), false);
  for (std::int64_t g : reference_topk_heap(scores, k)) {
    mask[static_cast<std::size_t>(g)] = true;
  }
  return mask;
}

/// Runs one synthetic backward pass so every parameter has a gradient.
void make_gradients(nn::Module& net, std::uint64_t seed = 9) {
  rng::Xorshift128 rng(seed);
  T::Tensor x({2, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
  ag::Variable input(x);
  ag::Variable out = net.forward(input);
  ag::backward(ag::sum(ag::mul(out, out)));
}

TEST(ParamIndexTest, OffsetsAndTotal) {
  auto net = tiny_net();
  ParamIndex index(net->collect_parameters());
  // 4*6 + 6 + 6*3 + 3 = 51
  EXPECT_EQ(index.total(), 51);
  EXPECT_EQ(index.num_params(), 4U);
  EXPECT_EQ(index.offset(0), 0);
  EXPECT_EQ(index.offset(1), 24);
  EXPECT_EQ(index.offset(2), 30);
  EXPECT_EQ(index.offset(3), 48);
}

TEST(ParamIndexTest, ParamOfMapsGlobalIndices) {
  auto net = tiny_net();
  ParamIndex index(net->collect_parameters());
  EXPECT_EQ(index.param_of(0), 0U);
  EXPECT_EQ(index.param_of(23), 0U);
  EXPECT_EQ(index.param_of(24), 1U);
  EXPECT_EQ(index.param_of(29), 1U);
  EXPECT_EQ(index.param_of(30), 2U);
  EXPECT_EQ(index.param_of(50), 3U);
  EXPECT_THROW(index.param_of(51), std::invalid_argument);
  EXPECT_THROW(index.param_of(-1), std::invalid_argument);
}

TEST(ComputeScoresTest, MatchesManualFormula) {
  auto net = tiny_net();
  auto params = net->collect_parameters();
  make_gradients(*net);
  ParamIndex index(params);
  std::vector<float> scores;
  const float lr = 0.25F;
  compute_scores(index, lr, scores);
  ASSERT_EQ(static_cast<std::int64_t>(scores.size()), index.total());
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    nn::Parameter& param = index.param(p);
    for (std::int64_t i = 0; i < param.numel(); ++i) {
      const float updated =
          param.var.value()[i] - lr * param.var.grad()[i];
      const float w0 = param.init.value_at(static_cast<std::uint64_t>(i));
      EXPECT_NEAR(scores[static_cast<std::size_t>(index.offset(p) + i)],
                  std::fabs(updated - w0), 1e-6F);
    }
  }
}

TEST(ComputeScoresTest, FreshNetworkScoresEqualUpdateMagnitude) {
  // At initialization w == w0, so the score must be exactly |lr * g| — the
  // paper's "U" term for untracked weights.
  auto net = tiny_net();
  auto params = net->collect_parameters();
  make_gradients(*net);
  ParamIndex index(params);
  std::vector<float> scores;
  compute_scores(index, 0.5F, scores);
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    nn::Parameter& param = index.param(p);
    for (std::int64_t i = 0; i < param.numel(); ++i) {
      EXPECT_NEAR(scores[static_cast<std::size_t>(index.offset(p) + i)],
                  0.5F * std::fabs(param.var.grad()[i]), 1e-6F);
    }
  }
}

TEST(ComputeScoresTest, NonPrunableGetsInfiniteScore) {
  auto net = tiny_net();
  auto params = net->collect_parameters();
  params[1]->prunable = false;
  ParamIndex index(params);
  std::vector<float> scores;
  compute_scores(index, 0.1F, scores);
  for (std::int64_t i = index.offset(1); i < index.offset(1) + 6; ++i) {
    EXPECT_TRUE(std::isinf(scores[static_cast<std::size_t>(i)]));
  }
}

TEST(TrackedSetTest, StartsAllTracked) {
  auto net = tiny_net();
  ParamIndex index(net->collect_parameters());
  TrackedSet set(index);
  EXPECT_TRUE(set.all_tracked());
  EXPECT_EQ(set.tracked_count(), 51);
  EXPECT_TRUE(set.is_tracked(17));
}

TEST(TrackedSetTest, SelectsExactlyK) {
  auto net = tiny_net();
  ParamIndex index(net->collect_parameters());
  TrackedSet set(index);
  std::vector<float> scores(51);
  rng::Xorshift128 rng(3);
  for (auto& s : scores) s = rng.uniform();
  set.select(scores, 10);
  EXPECT_FALSE(set.all_tracked());
  EXPECT_EQ(set.tracked_count(), 10);
}

TEST(TrackedSetTest, TracksHighestScores) {
  auto net = tiny_net();
  ParamIndex index(net->collect_parameters());
  TrackedSet set(index);
  std::vector<float> scores(51, 0.0F);
  scores[5] = 3.0F;
  scores[30] = 2.0F;
  scores[50] = 1.0F;
  set.select(scores, 3);
  EXPECT_TRUE(set.is_tracked(5));
  EXPECT_TRUE(set.is_tracked(30));
  EXPECT_TRUE(set.is_tracked(50));
  EXPECT_FALSE(set.is_tracked(0));
  EXPECT_FLOAT_EQ(set.last_lambda(), 1.0F);
}

TEST(TrackedSetTest, TiesBrokenByLowestIndex) {
  auto net = tiny_net();
  ParamIndex index(net->collect_parameters());
  TrackedSet set(index);
  std::vector<float> scores(51, 1.0F);  // all tied
  set.select(scores, 5);
  EXPECT_EQ(set.tracked_count(), 5);
  for (std::int64_t i = 0; i < 5; ++i) EXPECT_TRUE(set.is_tracked(i));
  for (std::int64_t i = 5; i < 51; ++i) EXPECT_FALSE(set.is_tracked(i));
}

TEST(TrackedSetTest, TieBreakIdenticalAcrossStrategies) {
  // Regression: select() and the priority-queue oracle must resolve
  // equal-score ties to the SAME index set — index order is the documented
  // deterministic tie-break. Tie-heavy scores (drawn from a four-value
  // alphabet, so many A_i are exactly equal at the threshold) lock the
  // agreement down.
  auto net = tiny_net();
  ParamIndex index(net->collect_parameters());
  rng::Xorshift128 rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> scores(51);
    for (auto& s : scores) {
      s = 0.5F * static_cast<float>(rng.next_u32() % 4);
    }
    const auto k = static_cast<std::int64_t>(1 + rng.next_u32() % 50);
    TrackedSet by_sort(index);
    by_sort.select(scores, k);
    const std::vector<bool> by_heap = heap_mask(scores, k);
    float heap_lambda = std::numeric_limits<float>::infinity();
    for (std::int64_t g = 0; g < index.total(); ++g) {
      ASSERT_EQ(by_sort.is_tracked(g), by_heap[static_cast<std::size_t>(g)])
          << "trial " << trial << " k=" << k << " index " << g;
      if (by_heap[static_cast<std::size_t>(g)]) {
        heap_lambda =
            std::min(heap_lambda, scores[static_cast<std::size_t>(g)]);
      }
    }
    ASSERT_EQ(by_sort.last_lambda(), heap_lambda)
        << "trial " << trial << " k=" << k;
  }
}

TEST(TrackedSetTest, AllTiedSelectsLowestIndicesUnderBothStrategies) {
  auto net = tiny_net();
  ParamIndex index(net->collect_parameters());
  std::vector<float> scores(51, 2.5F);  // every score equal
  TrackedSet set(index);
  set.select(scores, 7);
  const std::vector<bool> by_heap = heap_mask(scores, 7);
  for (std::int64_t i = 0; i < 7; ++i) {
    EXPECT_TRUE(set.is_tracked(i));
    EXPECT_TRUE(by_heap[static_cast<std::size_t>(i)]);
  }
  for (std::int64_t i = 7; i < 51; ++i) {
    EXPECT_FALSE(set.is_tracked(i));
    EXPECT_FALSE(by_heap[static_cast<std::size_t>(i)]);
  }
}

TEST(TrackedSetTest, KLargerThanTotalTracksEverything) {
  auto net = tiny_net();
  ParamIndex index(net->collect_parameters());
  TrackedSet set(index);
  std::vector<float> scores(51, 0.5F);
  set.select(scores, 1000);
  EXPECT_TRUE(set.all_tracked());
  EXPECT_EQ(set.tracked_count(), 51);
}

TEST(TrackedSetTest, ChurnCountsEnteringWeights) {
  auto net = tiny_net();
  ParamIndex index(net->collect_parameters());
  TrackedSet set(index);
  std::vector<float> scores(51, 0.0F);
  scores[0] = scores[1] = scores[2] = 1.0F;
  set.select(scores, 3);
  EXPECT_EQ(set.last_churn(), 3);  // initial fill
  // Replace one member.
  scores[2] = 0.0F;
  scores[10] = 2.0F;
  set.select(scores, 3);
  EXPECT_EQ(set.last_churn(), 1);
  EXPECT_TRUE(set.is_tracked(10));
  EXPECT_FALSE(set.is_tracked(2));
  // Stable selection -> zero churn.
  set.select(scores, 3);
  EXPECT_EQ(set.last_churn(), 0);
}

TEST(TrackedSetTest, PerParamCountsSumToK) {
  auto net = tiny_net();
  ParamIndex index(net->collect_parameters());
  TrackedSet set(index);
  std::vector<float> scores(51);
  rng::Xorshift128 rng(4);
  for (auto& s : scores) s = rng.uniform();
  set.select(scores, 20);
  std::int64_t total = 0;
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    total += set.tracked_count_in(p);
  }
  EXPECT_EQ(total, 20);
}

/// Property test: select() and the threshold-heap oracle produce identical
/// masks on random score vectors, including duplicated values.
class SelectionEquivalence
    : public ::testing::TestWithParam<std::pair<std::uint64_t, std::int64_t>> {
};

TEST_P(SelectionEquivalence, StrategiesAgree) {
  const auto [seed, k] = GetParam();
  auto net = tiny_net();
  ParamIndex index(net->collect_parameters());
  TrackedSet full(index);
  rng::Xorshift128 rng(seed);
  std::vector<float> scores(51);
  for (auto& s : scores) {
    // Quantized scores force plenty of ties.
    s = static_cast<float>(rng.uniform_int(8)) * 0.125F;
  }
  full.select(scores, k);
  const std::vector<bool> heap = heap_mask(scores, k);
  for (std::int64_t g = 0; g < 51; ++g) {
    EXPECT_EQ(full.is_tracked(g), heap[static_cast<std::size_t>(g)])
        << "index " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SelectionEquivalence,
    ::testing::Values(std::make_pair(1ULL, 1LL), std::make_pair(2ULL, 5LL),
                      std::make_pair(3ULL, 17LL), std::make_pair(4ULL, 50LL),
                      std::make_pair(5ULL, 25LL), std::make_pair(6ULL, 2LL)));

// --- DropBackOptimizer ------------------------------------------------------

TEST(DropBackOptimizerTest, RejectsMissingScheduleNamingConstantBudget) {
  auto net = tiny_net();
  try {
    DropBackOptimizer(net->collect_parameters(), 0.1F, DropBackConfig{});
    FAIL() << "a null schedule must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("optim::constant_budget"),
              std::string::npos)
        << e.what();
  }
}

TEST(DropBackOptimizerTest, RespectsBudgetAfterFirstStep) {
  auto net = tiny_net();
  DropBackConfig config;
  config.schedule = optim::constant_budget(12);
  DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  make_gradients(*net);
  opt.step();
  EXPECT_EQ(opt.live_weights(), 12);
  EXPECT_NEAR(opt.compression_ratio(), 51.0 / 12.0, 1e-9);
}

TEST(DropBackOptimizerTest, UntrackedWeightsEqualRegeneratedInit) {
  auto net = tiny_net();
  auto params = net->collect_parameters();
  DropBackConfig config;
  config.schedule = optim::constant_budget(8);
  DropBackOptimizer opt(params, 0.1F, config);
  for (int iter = 0; iter < 5; ++iter) {
    net->zero_grad();
    make_gradients(*net, 100 + iter);
    opt.step();
  }
  const TrackedSet& tracked = opt.tracked();
  const ParamIndex& index = opt.param_index();
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    nn::Parameter& param = index.param(p);
    const std::uint8_t* mask = tracked.mask_of(p);
    for (std::int64_t i = 0; i < param.numel(); ++i) {
      if (!mask[static_cast<std::size_t>(i)]) {
        EXPECT_EQ(param.var.value()[i],
                  param.init.value_at(static_cast<std::uint64_t>(i)))
            << param.name << "[" << i << "]";
      }
    }
  }
}

TEST(DropBackOptimizerTest, TrackedWeightsFollowSgd) {
  // With budget >= total, DropBack must be *exactly* plain SGD.
  auto net_a = tiny_net(5);
  auto net_b = tiny_net(5);
  auto pa = net_a->collect_parameters();
  auto pb = net_b->collect_parameters();
  DropBackConfig config;
  config.schedule = optim::constant_budget(1000000);  // covers everything
  DropBackOptimizer dropback(pa, 0.2F, config);
  optim::SGD sgd(pb, 0.2F);
  for (int iter = 0; iter < 3; ++iter) {
    net_a->zero_grad();
    net_b->zero_grad();
    make_gradients(*net_a, 50 + iter);
    make_gradients(*net_b, 50 + iter);
    dropback.step();
    sgd.step();
  }
  for (std::size_t p = 0; p < pa.size(); ++p) {
    for (std::int64_t i = 0; i < pa[p]->numel(); ++i) {
      ASSERT_FLOAT_EQ(pa[p]->var.value()[i], pb[p]->var.value()[i]);
    }
  }
}

TEST(DropBackOptimizerTest, FreezeStopsSetChanges) {
  auto net = tiny_net();
  auto params = net->collect_parameters();
  DropBackConfig config;
  config.schedule = optim::constant_budget(10, 3);
  DropBackOptimizer opt(params, 0.3F, config);
  std::set<std::int64_t> frozen_set;
  for (int iter = 0; iter < 10; ++iter) {
    net->zero_grad();
    make_gradients(*net, 200 + iter);
    opt.step();
    if (iter == 2) {
      EXPECT_TRUE(opt.frozen());
      for (std::int64_t g = 0; g < 51; ++g) {
        if (opt.tracked().is_tracked(g)) frozen_set.insert(g);
      }
    }
    if (iter > 2) {
      std::set<std::int64_t> now;
      for (std::int64_t g = 0; g < 51; ++g) {
        if (opt.tracked().is_tracked(g)) now.insert(g);
      }
      EXPECT_EQ(now, frozen_set) << "tracked set changed after freeze";
    }
  }
}

TEST(DropBackOptimizerTest, ManualFreezeWorks) {
  auto net = tiny_net();
  DropBackConfig config;
  config.schedule = optim::constant_budget(10);
  DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  EXPECT_FALSE(opt.frozen());
  opt.freeze();
  EXPECT_TRUE(opt.frozen());
}

TEST(DropBackOptimizerTest, ZeroingAblationZeroesUntracked) {
  auto net = tiny_net();
  auto params = net->collect_parameters();
  DropBackConfig config;
  config.schedule = optim::constant_budget(8);
  config.regenerate_untracked = false;  // the paper's failing ablation
  DropBackOptimizer opt(params, 0.1F, config);
  make_gradients(*net);
  opt.step();
  const ParamIndex& index = opt.param_index();
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    nn::Parameter& param = index.param(p);
    const std::uint8_t* mask = opt.tracked().mask_of(p);
    for (std::int64_t i = 0; i < param.numel(); ++i) {
      if (!mask[static_cast<std::size_t>(i)]) {
        EXPECT_EQ(param.var.value()[i], 0.0F);
      }
    }
  }
}

TEST(DropBackOptimizerTest, TrafficCounterTalliesAccesses) {
  auto net = tiny_net();
  DropBackConfig config;
  config.schedule = optim::constant_budget(10);
  DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  energy::TrafficCounter traffic;
  opt.set_traffic_counter(&traffic);
  make_gradients(*net);
  opt.step();
  // 10 tracked (read+write each), 41 regenerated.
  EXPECT_EQ(traffic.dram_reads, 10U);
  EXPECT_EQ(traffic.dram_writes, 10U);
  EXPECT_EQ(traffic.regens, 41U);
}

TEST(DropBackOptimizerTest, StepsCount) {
  auto net = tiny_net();
  DropBackConfig config;
  config.schedule = optim::constant_budget(10);
  DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  EXPECT_EQ(opt.steps(), 0);
  make_gradients(*net);
  opt.step();
  opt.step();
  EXPECT_EQ(opt.steps(), 2);
}

TEST(DropBackOptimizerTest, ChurnShrinksAsTrainingStabilizes) {
  // The Figure-2 effect: the first selection churns the full budget, later
  // selections churn less once the same strong gradients keep accumulating.
  auto net = tiny_net();
  auto params = net->collect_parameters();
  DropBackConfig config;
  config.schedule = optim::constant_budget(15);
  DropBackOptimizer opt(params, 0.05F, config);
  std::vector<std::int64_t> churns;
  for (int iter = 0; iter < 8; ++iter) {
    net->zero_grad();
    make_gradients(*net, 7);  // identical batch -> stable gradients
    opt.step();
    churns.push_back(opt.last_churn());
  }
  EXPECT_EQ(churns.front(), 15);
  EXPECT_LT(churns.back(), 4);
}

/// Budget sweep: live weights never exceed the budget and compression is
/// total/budget for budgets below the parameter count.
class BudgetSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(BudgetSweep, LiveWeightsMatchBudget) {
  const std::int64_t budget = GetParam();
  auto net = tiny_net();
  DropBackConfig config;
  config.schedule = optim::constant_budget(budget);
  DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  make_gradients(*net);
  opt.step();
  EXPECT_EQ(opt.live_weights(), std::min<std::int64_t>(budget, 51));
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetSweep,
                         ::testing::Values(1, 2, 5, 10, 25, 50, 51, 100));

}  // namespace
}  // namespace dropback::core
