// Deeper DropBack invariants: determinism of whole training trajectories,
// consistency between the live optimizer state and the exported store, and
// the exact semantics of the update rule.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "autograd/ops.hpp"
#include "core/dropback_optimizer.hpp"
#include "core/sparse_weight_store.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/models/lenet.hpp"
#include "nn/sequential.hpp"
#include "nn/checkpoint.hpp"
#include "nn/linear.hpp"
#include "optim/budget_schedule.hpp"
#include "rng/xorshift.hpp"
#include "train/trainer.hpp"

namespace dropback {
namespace {

namespace T = dropback::tensor;
namespace ag = dropback::autograd;

std::unique_ptr<nn::Sequential> tiny_net(std::uint64_t seed = 1) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Linear>(4, 6, seed);
  net->emplace<nn::Linear>(6, 3, seed + 1);
  return net;
}

/// Gradients of the bounded loss sum(tanh(y)²) on a seeded batch. Its
/// gradient in y stays below 1 in magnitude, so tiny_net's trajectories
/// stay finite at every learning rate below for all of 200 init seeds;
/// sum(y²) diverged to inf/NaN for about a third of them at lr 0.2.
void make_gradients(nn::Module& net, std::uint64_t seed) {
  rng::Xorshift128 rng(seed);
  T::Tensor x({2, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
  const ag::Variable y = ag::tanh_op(net.forward(ag::Variable(x)));
  ag::backward(ag::sum(ag::mul(y, y)));
}

bool all_finite(const std::vector<nn::Parameter*>& params) {
  for (const nn::Parameter* p : params) {
    for (std::int64_t i = 0; i < p->numel(); ++i) {
      if (!std::isfinite(p->var.value()[i])) return false;
    }
  }
  return true;
}

TEST(DropBackInvariants, WholeTrajectoryIsDeterministic) {
  // Two runs with identical seeds produce bit-identical weights, masks, and
  // exported stores — the property an accelerator depends on, since the
  // regenerated weights must agree between training and deployment.
  auto run = [] {
    auto net = tiny_net(5);
    auto params = net->collect_parameters();
    core::DropBackConfig config;
    config.schedule = optim::constant_budget(12, 4);
    auto opt = std::make_unique<core::DropBackOptimizer>(params, 0.2F,
                                                         config);
    for (int iter = 0; iter < 8; ++iter) {
      net->zero_grad();
      make_gradients(*net, 70 + iter);
      opt->step();
    }
    return std::make_pair(core::SparseWeightStore::from_optimizer(*opt),
                          all_finite(params));
  };
  const auto [store_a, finite_a] = run();
  const auto [store_b, finite_b] = run();
  // Two NaN trajectories would agree bit for bit and prove nothing.
  EXPECT_TRUE(finite_a && finite_b) << "the trajectory diverged";
  EXPECT_TRUE(store_a == store_b);
}

TEST(DropBackInvariants, DivergedStepRaisesNanScoreErrorWithMaskUnchanged) {
  // tiny_net on the unbounded loss sum(y²) at lr 0.2 diverges for init seed
  // 196: within a few steps most scores are NaN, fewer than k = 12 are
  // numbers, and the step must fail with the typed error, not an unrelated
  // one such as a negative tie count's std::length_error, leaving the
  // tracked set as the last step left it.
  auto net = tiny_net(196);
  auto params = net->collect_parameters();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(12);
  core::DropBackOptimizer opt(params, 0.2F, config);
  const auto mask = [&] {
    std::vector<std::uint8_t> out;
    for (std::size_t p = 0; p < params.size(); ++p) {
      const std::uint8_t* m = opt.tracked().mask_of(p);
      out.insert(out.end(), m, m + params[p]->numel());
    }
    return out;
  };
  int failed_at = -1;
  for (int iter = 0; iter < 40 && failed_at < 0; ++iter) {
    net->zero_grad();
    rng::Xorshift128 rng(70 + iter);
    T::Tensor x({2, 4});
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
    const ag::Variable y = net->forward(ag::Variable(x));
    ag::backward(ag::sum(ag::mul(y, y)));
    const std::vector<std::uint8_t> before = mask();
    const float lambda = opt.tracked().last_lambda();
    try {
      opt.step();
    } catch (const core::NanScoreError&) {
      failed_at = iter;
      EXPECT_EQ(mask(), before);
      EXPECT_EQ(opt.tracked().last_lambda(), lambda);
    }
  }
  EXPECT_GE(failed_at, 0) << "no step met a NaN score";
}

TEST(DropBackInvariants, TrackedWeightsEqualCandidateUpdates) {
  // After a step, each tracked weight equals exactly w_prev - lr * g — the
  // masked update rule applied verbatim.
  auto net = tiny_net();
  auto params = net->collect_parameters();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(10);
  core::DropBackOptimizer opt(params, 0.3F, config);
  // Snapshot pre-step weights and gradients.
  make_gradients(*net, 5);
  std::vector<std::vector<float>> w_before, g;
  for (auto* p : params) {
    const float* w = p->var.value().data();
    const float* grad = p->var.grad().data();
    w_before.emplace_back(w, w + p->numel());
    g.emplace_back(grad, grad + p->numel());
  }
  opt.step();
  const auto& index = opt.param_index();
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    nn::Parameter& param = index.param(p);
    const std::uint8_t* mask = opt.tracked().mask_of(p);
    for (std::int64_t i = 0; i < param.numel(); ++i) {
      if (mask[static_cast<std::size_t>(i)]) {
        EXPECT_FLOAT_EQ(
            param.var.value()[i],
            w_before[p][static_cast<std::size_t>(i)] -
                0.3F * g[p][static_cast<std::size_t>(i)]);
      }
    }
  }
}

TEST(DropBackInvariants, SelectionPicksMaximalScoreSet) {
  // The tracked set after a step must have no untracked weight whose score
  // strictly exceeds a tracked weight's score (the defining top-k property).
  auto net = tiny_net();
  auto params = net->collect_parameters();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(15);
  core::DropBackOptimizer opt(params, 0.1F, config);
  for (int iter = 0; iter < 3; ++iter) {
    net->zero_grad();
    make_gradients(*net, 80 + iter);
    opt.step();
  }
  // Recompute post-hoc scores = |w - w0| (weights already updated, lr=0).
  const auto& index = opt.param_index();
  std::vector<float> scores;
  core::compute_scores(index, 0.0F, scores);
  float min_tracked = 1e30F;
  float max_untracked = -1.0F;
  for (std::int64_t gidx = 0; gidx < index.total(); ++gidx) {
    if (opt.tracked().is_tracked(gidx)) {
      min_tracked =
          std::min(min_tracked, scores[static_cast<std::size_t>(gidx)]);
    } else {
      max_untracked =
          std::max(max_untracked, scores[static_cast<std::size_t>(gidx)]);
    }
  }
  EXPECT_GE(min_tracked, max_untracked);
}

TEST(DropBackInvariants, StoreMatchesLiveMasksExactly) {
  auto net = tiny_net();
  auto params = net->collect_parameters();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(9);
  core::DropBackOptimizer opt(params, 0.1F, config);
  for (int iter = 0; iter < 3; ++iter) {
    net->zero_grad();
    make_gradients(*net, 90 + iter);
    opt.step();
  }
  auto store = core::SparseWeightStore::from_optimizer(opt);
  const auto& index = opt.param_index();
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    const auto& rec = store.record(p);
    const std::uint8_t* mask = opt.tracked().mask_of(p);
    std::size_t e = 0;
    for (std::int64_t i = 0; i < index.param(p).numel(); ++i) {
      const bool tracked = mask[static_cast<std::size_t>(i)] != 0;
      const bool stored =
          e < rec.entries.size() &&
          static_cast<std::int64_t>(rec.entries[e].first) == i;
      EXPECT_EQ(tracked, stored) << rec.name << "[" << i << "]";
      if (stored) ++e;
    }
  }
}

TEST(DropBackInvariants, FrozenTrainingSkipsUntrackedScoring) {
  // Once frozen, untracked weights stay at init even if their gradients
  // become huge — "U = {}" in Algorithm 1.
  auto net = tiny_net();
  auto params = net->collect_parameters();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(8, 1);
  core::DropBackOptimizer opt(params, 0.1F, config);
  net->zero_grad();
  make_gradients(*net, 7);
  opt.step();
  ASSERT_TRUE(opt.frozen());
  // Forge enormous gradients for everything.
  for (auto* p : params) {
    p->var.grad().fill_(1000.0F);
  }
  opt.step();
  const auto& index = opt.param_index();
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    nn::Parameter& param = index.param(p);
    const std::uint8_t* mask = opt.tracked().mask_of(p);
    for (std::int64_t i = 0; i < param.numel(); ++i) {
      if (!mask[static_cast<std::size_t>(i)]) {
        EXPECT_EQ(param.var.value()[i],
                  param.init.value_at(static_cast<std::uint64_t>(i)));
      }
    }
  }
}

TEST(DropBackInvariants, TrainingWithRealDataIsDeterministic) {
  // End-to-end: two identical mini-trainings on synthetic data produce the
  // same validation accuracy and the same store.
  auto run = [] {
    data::SyntheticMnistOptions data_opt;
    data_opt.num_samples = 100;
    auto train_set = data::make_synthetic_mnist(data_opt);
    data_opt.seed = 2;
    auto val_set = data::make_synthetic_mnist(data_opt);
    auto model = nn::models::make_mnist_100_100(7);
    core::DropBackConfig config;
    config.schedule = optim::constant_budget(4000);
    auto opt = std::make_unique<core::DropBackOptimizer>(
        model->collect_parameters(), 0.1F, config);
    train::TrainConfig options;
    options.epochs = 2;
    options.batch_size = 25;
    train::Trainer trainer(*model, *opt, *train_set, *val_set, options);
    const auto result = trainer.run();
    return std::make_pair(result.best_val_acc,
                          core::SparseWeightStore::from_optimizer(*opt));
  };
  const auto [acc_a, store_a] = run();
  const auto [acc_b, store_b] = run();
  EXPECT_DOUBLE_EQ(acc_a, acc_b);
  EXPECT_TRUE(store_a == store_b);
}

TEST(DropBackInvariants, BudgetOneStillRuns) {
  // Degenerate extreme: a single tracked weight.
  auto net = tiny_net();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(1);
  core::DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  net->zero_grad();
  make_gradients(*net, 3);
  opt.step();
  EXPECT_EQ(opt.live_weights(), 1);
  EXPECT_NEAR(opt.compression_ratio(), 51.0, 1e-9);
}

TEST(DropBackInvariants, GradFreeStepLeavesTrackedUnchanged) {
  // step() without gradients must not move tracked weights (and untracked
  // stay regenerated).
  auto net = tiny_net();
  auto params = net->collect_parameters();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(10);
  core::DropBackOptimizer opt(params, 0.1F, config);
  net->zero_grad();
  make_gradients(*net, 3);
  opt.step();
  std::vector<std::vector<float>> before;
  for (auto* p : params) {
    const float* w = p->var.value().data();
    before.emplace_back(w, w + p->numel());
  }
  net->zero_grad();  // no gradients at all
  opt.step();
  for (std::size_t p = 0; p < params.size(); ++p) {
    for (std::int64_t i = 0; i < params[p]->numel(); ++i) {
      EXPECT_EQ(params[p]->var.value()[i],
                before[p][static_cast<std::size_t>(i)]);
    }
  }
}


// --- the apply precondition ------------------------------------------------
//
// DropBackOptimizer's apply writes only the tracked weights and this step's
// evictions, because every other untracked weight already holds its
// replacement value. The tests below pin that precondition after every
// step, bitwise, across schedules, freezes and resumes.

/// Every untracked weight is bitwise its replacement value:
/// init.value_at(i), or 0 under regenerate_untracked=false and for
/// non-prunable parameters.
::testing::AssertionResult untracked_at_replacement(
    const core::DropBackOptimizer& opt) {
  const auto& index = opt.param_index();
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    const nn::Parameter& param = index.param(p);
    const bool regen = opt.config().regenerate_untracked && param.prunable;
    const std::uint8_t* mask = opt.tracked().mask_of(p);
    for (std::int64_t i = 0; i < param.numel(); ++i) {
      if (mask[i] != 0) continue;
      const float want =
          regen ? param.init.value_at(static_cast<std::uint64_t>(i)) : 0.0F;
      const float got = param.var.value()[i];
      if (std::memcmp(&got, &want, sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "param " << p << " index " << i << " holds " << got
               << ", replacement " << want;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

struct PreconditionCase {
  std::string name;
  std::shared_ptr<const optim::BudgetSchedule> schedule;
  bool regenerate_untracked;
  bool non_prunable_bias;  // first bias non-prunable (score +inf)
};

std::vector<PreconditionCase> precondition_cases() {
  // Two steps per epoch: the DSD cases go dense (epoch 0), sparse (epochs
  // 1-2) and then dense again or wider.
  return {
      {"constant", optim::constant_budget(12), true, false},
      {"constant_zeroed", optim::constant_budget(12), false, false},
      {"constant_frozen", optim::constant_budget(12, 3), true, false},
      {"constant_nonprunable_evicted", optim::constant_budget(3), true, true},
      {"dsd", std::make_shared<optim::DenseSparseDense>(12, 1, 2), true,
       false},
      {"dsd_frozen_then_wider",
       std::make_shared<optim::DenseSparseDense>(12, 1, 2, 1, 20), true,
       false},
      {"stochastic",
       std::make_shared<optim::StochasticDropBack>(12, 0.3F, 9), true, false},
      {"stochastic_zeroed_frozen",
       std::make_shared<optim::StochasticDropBack>(12, 0.3F, 9, 6), false,
       false},
  };
}

struct Trainee {
  std::unique_ptr<nn::Sequential> net;
  std::unique_ptr<core::DropBackOptimizer> opt;
};

Trainee make_run(const PreconditionCase& c) {
  Trainee r;
  r.net = tiny_net(21);
  auto params = r.net->collect_parameters();
  if (c.non_prunable_bias) params[1]->prunable = false;
  core::DropBackConfig config;
  config.schedule = c.schedule;
  config.steps_per_epoch = 2;
  config.regenerate_untracked = c.regenerate_untracked;
  r.opt = std::make_unique<core::DropBackOptimizer>(params, 0.2F, config);
  return r;
}

void train_step(Trainee& r, int step) {
  r.net->zero_grad();
  make_gradients(*r.net, 300 + static_cast<std::uint64_t>(step));
  r.opt->step();
}

std::vector<float> weights_of(const Trainee& r) {
  std::vector<float> out;
  for (auto* p : r.net->collect_parameters()) {
    const float* w = p->var.value().data();
    out.insert(out.end(), w, w + p->numel());
  }
  return out;
}

TEST(DropBackPrecondition, UntrackedWeightsHoldReplacementAfterEveryStep) {
  for (const auto& c : precondition_cases()) {
    Trainee r = make_run(c);
    for (int step = 0; step < 12; ++step) {
      train_step(r, step);
      ASSERT_TRUE(untracked_at_replacement(*r.opt))
          << c.name << " after step " << step
          << (r.opt->frozen() ? " (frozen)" : "");
    }
  }
}

TEST(DropBackPrecondition, HoldsAfterLoadStateAndResumesBitwise) {
  for (const auto& c : precondition_cases()) {
    Trainee uninterrupted = make_run(c);
    for (int step = 0; step < 12; ++step) train_step(uninterrupted, step);

    Trainee first = make_run(c);
    for (int step = 0; step < 5; ++step) train_step(first, step);
    std::stringstream weights, state;
    nn::save_checkpoint(weights, first.net->collect_parameters());
    first.opt->save_state(state);

    Trainee resumed = make_run(c);
    nn::load_checkpoint(weights, resumed.net->collect_parameters());
    resumed.opt->load_state(state);
    EXPECT_TRUE(std::isnan(resumed.opt->tracked().last_lambda())) << c.name;
    for (int step = 5; step < 12; ++step) {
      train_step(resumed, step);
      ASSERT_TRUE(untracked_at_replacement(*resumed.opt))
          << c.name << " after resumed step " << step;
    }
    const std::vector<float> a = weights_of(uninterrupted);
    const std::vector<float> b = weights_of(resumed);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << c.name;
  }
}

TEST(DropBackPrecondition, FirstStepAfterLoadStateSweepsEveryWeight) {
  // The loaded weights come from a separate checkpoint, so the first step
  // after load_state rewrites every untracked weight, even one that the
  // checkpoint carried off its replacement value. The run is frozen, so no
  // selection re-tracks that weight first.
  const PreconditionCase frozen = precondition_cases()[2];
  ASSERT_EQ(frozen.name, "constant_frozen");
  Trainee first = make_run(frozen);
  for (int step = 0; step < 4; ++step) train_step(first, step);
  ASSERT_TRUE(first.opt->frozen());
  std::stringstream weights, state;
  nn::save_checkpoint(weights, first.net->collect_parameters());
  first.opt->save_state(state);
  Trainee resumed = make_run(frozen);
  auto params = resumed.net->collect_parameters();
  nn::load_checkpoint(weights, params);
  resumed.opt->load_state(state);
  const auto& tracked = resumed.opt->tracked();
  std::int64_t untracked = -1;
  for (std::int64_t g = 0; g < tracked.index().total() && untracked < 0; ++g) {
    if (!tracked.is_tracked(g)) untracked = g;
  }
  ASSERT_GE(untracked, 0);
  const std::size_t p = tracked.index().param_of(untracked);
  params[p]->var.value()[untracked - tracked.index().offset(p)] = 123.0F;
  ASSERT_FALSE(untracked_at_replacement(*resumed.opt));
  train_step(resumed, 4);
  EXPECT_TRUE(untracked_at_replacement(*resumed.opt));
}

TEST(DropBackPrecondition, EvictedThenReadmittedWeightKeepsTrainedValue) {
  // A weight that select() evicts and readmit() re-admits in the same step
  // is tracked when the step commits: it takes the SGD update from its
  // trained value instead of being regenerated.
  auto net = tiny_net(22);
  auto params = net->collect_parameters();
  core::DropBackConfig config;
  config.schedule = std::make_shared<optim::StochasticDropBack>(12, 0.5F, 3);
  core::DropBackOptimizer opt(params, 0.2F, config);
  std::int64_t checked = 0;
  for (int step = 0; step < 8; ++step) {
    net->zero_grad();
    make_gradients(*net, 400 + static_cast<std::uint64_t>(step));
    std::vector<float> before, grad;
    for (auto* p : params) {
      const float* w = p->var.value().data();
      const float* g = p->var.grad().data();
      before.insert(before.end(), w, w + p->numel());
      grad.insert(grad.end(), g, g + p->numel());
    }
    opt.step();
    const auto& index = opt.param_index();
    for (std::int64_t g : opt.tracked().evicted()) {
      if (!opt.tracked().is_tracked(g)) continue;
      const std::size_t p = index.param_of(g);
      const float want = before[static_cast<std::size_t>(g)] -
                         0.2F * grad[static_cast<std::size_t>(g)];
      const float got = params[p]->var.value()[g - index.offset(p)];
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
          << "step " << step << " weight " << g;
      ++checked;
    }
    ASSERT_TRUE(untracked_at_replacement(opt)) << "step " << step;
  }
  EXPECT_GT(checked, 0) << "no weight was evicted and re-admitted";
}

}  // namespace
}  // namespace dropback
