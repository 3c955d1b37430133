// BudgetSchedule suite: the schedule API itself (semantics of the three
// implementations and the spec mini-language), plus the optimizer-level
// contracts the redesign promises:
//   * DenseSparseDense grows and shrinks the tracked set with regen-
//     consistent growth (untracked weights sit at their regenerated init)
//     and exact churn/readmit counters;
//   * StochasticDropBack re-admission is bitwise identical across thread
//     counts;
//   * DBOS snapshots carry the schedule spec and refuse to resume under a
//     different schedule.
#include "optim/budget_schedule.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "autograd/ops.hpp"
#include "core/dropback_optimizer.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "rng/xorshift.hpp"
#include "util/io_error.hpp"
#include "util/thread_pool.hpp"

namespace dropback {
namespace {

namespace T = dropback::tensor;
namespace ag = dropback::autograd;
using optim::BudgetDecision;
using optim::BudgetScope;
using optim::kDenseBudget;
using optim::SchedulePoint;

SchedulePoint at_step(std::int64_t step, std::int64_t steps_per_epoch) {
  SchedulePoint t;
  t.step = step;
  t.steps_per_epoch = steps_per_epoch;
  t.epoch = steps_per_epoch > 0 ? step / steps_per_epoch : 0;
  return t;
}

// ---------------------------------------------------------------------------
// Schedule semantics
// ---------------------------------------------------------------------------

TEST(ConstantScheduleTest, FixedBudgetNeverFreezesByDefault) {
  optim::ConstantSchedule s(5000);
  for (std::int64_t step : {0, 1, 7, 1000000}) {
    const BudgetDecision d = s.at(at_step(step, 10));
    EXPECT_EQ(d.budget, 5000);
    EXPECT_FALSE(d.frozen);
    EXPECT_EQ(d.readmit_prob, 0.0F);
  }
  EXPECT_TRUE(s.is_constant());
  EXPECT_FALSE(s.epoch_phrased());
}

TEST(ConstantScheduleTest, FreezeStepEdges) {
  // freeze_after_steps=N freezes at step N — except N=0, which still runs
  // the first selection window (historical fixed-k behavior).
  optim::ConstantSchedule s0(100, /*freeze_after_steps=*/0);
  EXPECT_FALSE(s0.at(at_step(0, 0)).frozen);
  EXPECT_TRUE(s0.at(at_step(1, 0)).frozen);
  optim::ConstantSchedule s1(100, 1);
  EXPECT_FALSE(s1.at(at_step(0, 0)).frozen);
  EXPECT_TRUE(s1.at(at_step(1, 0)).frozen);
  optim::ConstantSchedule s8(100, 8);
  EXPECT_FALSE(s8.at(at_step(7, 0)).frozen);
  EXPECT_TRUE(s8.at(at_step(8, 0)).frozen);
}

TEST(ConstantScheduleTest, FreezeEpochFreezesFromEpochBoundary) {
  // Selection runs through epoch max(freeze_epoch,1)-1 and is frozen from
  // epoch max(freeze_epoch,1) on.
  optim::ConstantSchedule s(100, /*freeze_after_steps=*/-1,
                            /*freeze_epoch=*/2);
  EXPECT_TRUE(s.epoch_phrased());
  EXPECT_FALSE(s.at(at_step(19, 10)).frozen);  // epoch 1
  EXPECT_TRUE(s.at(at_step(20, 10)).frozen);   // epoch 2
  optim::ConstantSchedule s0(100, -1, 0);
  EXPECT_FALSE(s0.at(at_step(9, 10)).frozen);  // epoch 0 still selects
  EXPECT_TRUE(s0.at(at_step(10, 10)).frozen);  // frozen from epoch 1
}

TEST(ConstantScheduleTest, RejectsBadArguments) {
  EXPECT_THROW(optim::ConstantSchedule(0), std::invalid_argument);
  EXPECT_THROW(optim::ConstantSchedule(-5), std::invalid_argument);
  EXPECT_THROW(optim::ConstantSchedule(10, 3, 2), std::invalid_argument);
}

TEST(DenseSparseDenseTest, PhaseBudgetsAndFreeze) {
  // 2 dense epochs, 3 sparse epochs with a freeze 2 epochs in, then
  // re-dense. 10 steps per epoch.
  optim::DenseSparseDense s(1000, /*dense_epochs=*/2, /*sparse_epochs=*/3,
                            /*freeze_after_epochs=*/2);
  EXPECT_TRUE(s.epoch_phrased());
  EXPECT_FALSE(s.is_constant());
  EXPECT_EQ(s.at(at_step(0, 10)).budget, kDenseBudget);    // epoch 0
  EXPECT_EQ(s.at(at_step(19, 10)).budget, kDenseBudget);   // epoch 1
  EXPECT_EQ(s.at(at_step(20, 10)).budget, 1000);           // epoch 2: sparse
  EXPECT_FALSE(s.at(at_step(20, 10)).frozen);
  EXPECT_FALSE(s.at(at_step(39, 10)).frozen);  // 1 epoch into sparse
  EXPECT_TRUE(s.at(at_step(40, 10)).frozen);   // 2 epochs into sparse
  const BudgetDecision redense = s.at(at_step(50, 10));    // epoch 5
  EXPECT_EQ(redense.budget, kDenseBudget);
  EXPECT_FALSE(redense.frozen);  // re-dense unfreezes
}

TEST(DenseSparseDenseTest, SparseForeverAndCustomFinal) {
  optim::DenseSparseDense forever(500, 1);
  EXPECT_EQ(forever.at(at_step(5, 10)).budget, kDenseBudget);
  EXPECT_EQ(forever.at(at_step(10, 10)).budget, 500);
  EXPECT_EQ(forever.at(at_step(100000, 10)).budget, 500);

  optim::DenseSparseDense shrink(500, 1, 2, -1, /*final_budget=*/800);
  EXPECT_EQ(shrink.at(at_step(30, 10)).budget, 800);  // epoch 3: re-"dense"
}

TEST(StochasticDropBackTest, ReadmitOnlyWhileUnfrozen) {
  optim::StochasticDropBack s(100, 0.25F, /*seed=*/42,
                              /*freeze_after_steps=*/5);
  const BudgetDecision live = s.at(at_step(3, 0));
  EXPECT_EQ(live.budget, 100);
  EXPECT_FLOAT_EQ(live.readmit_prob, 0.25F);
  EXPECT_EQ(live.readmit_seed, 42U);
  const BudgetDecision frozen = s.at(at_step(5, 0));
  EXPECT_TRUE(frozen.frozen);
  EXPECT_EQ(frozen.readmit_prob, 0.0F);
}

TEST(StochasticDropBackTest, RejectsBadProbability) {
  EXPECT_THROW(optim::StochasticDropBack(100, 0.0F), std::invalid_argument);
  EXPECT_THROW(optim::StochasticDropBack(100, 1.5F), std::invalid_argument);
  EXPECT_THROW(optim::StochasticDropBack(100, -0.1F), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Spec mini-language
// ---------------------------------------------------------------------------

TEST(ScheduleSpecTest, ParsesConstAndRoundTrips) {
  const auto parsed =
      optim::parse_budget_schedule("const:budget=20000,freeze_epoch=7");
  EXPECT_EQ(parsed.schedule->base_budget(), 20000);
  EXPECT_TRUE(parsed.schedule->is_constant());
  EXPECT_EQ(parsed.scope, BudgetScope::kGlobal);
  EXPECT_EQ(parsed.schedule->spec(), "const:budget=20000,freeze_epoch=7");
  // spec() strings re-parse to an equal schedule.
  const auto again =
      optim::parse_budget_schedule(parsed.schedule->spec());
  EXPECT_EQ(again.schedule->spec(), parsed.schedule->spec());
  // A u64 seed above INT64_MAX re-parses to itself.
  const optim::StochasticDropBack top_seed(10, 0.1F, ~std::uint64_t{0});
  EXPECT_EQ(optim::parse_budget_schedule(top_seed.spec()).schedule->spec(),
            top_seed.spec());
}

TEST(ScheduleSpecTest, ParsesDsdStochasticAndScope) {
  const auto dsd = optim::parse_budget_schedule(
      "dsd:budget=1000,dense=2,sparse=3,freeze=1,final=4000,scope=layer");
  EXPECT_EQ(dsd.schedule->base_budget(), 1000);
  EXPECT_EQ(dsd.scope, BudgetScope::kPerLayer);
  EXPECT_EQ(dsd.schedule->spec(),
            "dsd:budget=1000,dense=2,sparse=3,freeze=1,final=4000");

  const auto sto = optim::parse_budget_schedule(
      "stochastic:budget=500,p=0.01,seed=9,freeze_step=100");
  EXPECT_EQ(sto.schedule->base_budget(), 500);
  const BudgetDecision d = sto.schedule->at(at_step(0, 0));
  EXPECT_FLOAT_EQ(d.readmit_prob, 0.01F);
  EXPECT_EQ(d.readmit_seed, 9U);
}

TEST(ScheduleSpecTest, RejectionsNameTheOffendingToken) {
  const auto expect_reject = [](const std::string& spec,
                                const std::string& needle) {
    try {
      optim::parse_budget_schedule(spec);
      FAIL() << "accepted '" << spec << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message for '" << spec << "' was: " << e.what();
    }
  };
  expect_reject("", "empty spec");
  expect_reject("linear:budget=10", "unknown kind 'linear'");
  expect_reject("const", "missing required key 'budget'");
  expect_reject("const:budget", "'budget' is not key=value");
  expect_reject("const:budget=12x", "bad integer '12x'");
  expect_reject("const:budget=100,dense=2", "unknown key 'dense'");
  expect_reject("dsd:dense=2", "missing required key 'budget'");
  expect_reject("stochastic:budget=100", "missing required key 'p'");
  expect_reject("stochastic:budget=100,p=high", "bad number 'high'");
  expect_reject("const:budget=100,scope=weird", "bad scope 'weird'");
  expect_reject("const:budget=100,,freeze_step=2", "empty token");
  expect_reject("const:budget=0", "budget must be positive");
  expect_reject("const:budget=100,budget=200", "repeated key 'budget'");
  expect_reject("const:budget=100,scope=layer,scope=global",
                "repeated key 'scope'");
  expect_reject("const:budget=99999999999999999999",
                "integer '99999999999999999999' out of range");
  expect_reject("stochastic:budget=100,p=0.1,seed=-1", "bad integer '-1'");
  expect_reject("stochastic:budget=100,p=0.1,seed=18446744073709551616",
                "out of range for key 'seed'");
}

// ---------------------------------------------------------------------------
// Optimizer-level harness
// ---------------------------------------------------------------------------

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
  ag::Variable out = net.forward(input);
  ag::backward(ag::sum(ag::mul(out, out)));
}

/// Steps `opt` through `steps` synthetic gradient steps.
void drive(nn::Module& net, core::DropBackOptimizer& opt, std::int64_t steps,
           std::uint64_t seed_base = 100) {
  for (std::int64_t s = 0; s < steps; ++s) {
    net.zero_grad();
    make_gradients(net, seed_base + static_cast<std::uint64_t>(s));
    opt.step();
  }
}

std::vector<float> flat_weights(const std::vector<nn::Parameter*>& params) {
  std::vector<float> all;
  for (const nn::Parameter* p : params) {
    const float* w = p->var.value().data();
    all.insert(all.end(), w, w + p->numel());
  }
  return all;
}

TEST(ScheduleOptimizerTest, DsdGrowsAndShrinksRegenConsistently) {
  // 51-weight net, 2 steps/epoch: dense epoch 0, sparse epochs 1-2 (k=10),
  // re-dense from epoch 3.
  auto net = tiny_net();
  core::DropBackConfig config;
  config.schedule =
      std::make_shared<optim::DenseSparseDense>(10, 1, 2, -1, kDenseBudget);
  config.steps_per_epoch = 2;
  core::DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  EXPECT_EQ(opt.schedule().base_budget(), 10);  // base budget = sparse k

  drive(*net, opt, 2);  // dense epoch: everything tracked
  EXPECT_TRUE(opt.tracked().all_tracked());
  EXPECT_EQ(opt.current_budget(), opt.param_index().total());

  drive(*net, opt, 2, 200);  // sparse epoch 1: shrink to 10
  EXPECT_FALSE(opt.tracked().all_tracked());
  EXPECT_EQ(opt.tracked().tracked_count(), 10);
  EXPECT_EQ(opt.current_budget(), 10);
  // Every untracked weight sits exactly at its regenerated init — the
  // invariant that makes later growth regen-consistent.
  const auto& index = opt.param_index();
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    const nn::Parameter& param = index.param(p);
    if (!param.prunable) continue;
    const std::uint8_t* mask = opt.tracked().mask_of(p);
    for (std::int64_t i = 0; i < param.numel(); ++i) {
      if (mask[static_cast<std::size_t>(i)] != 0) continue;
      ASSERT_EQ(param.var.value()[i],
                param.init.value_at(static_cast<std::uint64_t>(i)))
          << "untracked weight " << i << " of param " << p;
    }
  }

  drive(*net, opt, 2, 300);  // sparse epoch 2
  EXPECT_EQ(opt.tracked().tracked_count(), 10);

  // Re-dense: the grow step tracks everything again and the churn counter
  // reports exactly the number of grown (previously untracked) entries.
  net->zero_grad();
  make_gradients(*net, 400);
  const std::int64_t untracked_before =
      index.total() - opt.tracked().tracked_count();
  opt.step();
  EXPECT_TRUE(opt.tracked().all_tracked());
  EXPECT_EQ(opt.last_churn(), untracked_before);
  EXPECT_EQ(opt.current_budget(), index.total());
}

TEST(ScheduleOptimizerTest, EpochPhrasedScheduleRequiresStepsPerEpoch) {
  auto net = tiny_net();
  core::DropBackConfig config;
  config.schedule = std::make_shared<optim::DenseSparseDense>(10, 1);
  core::DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  make_gradients(*net, 7);
  EXPECT_THROW(opt.step(), std::invalid_argument);
  opt.set_steps_per_epoch(2);
  EXPECT_NO_THROW(opt.step());
}

TEST(ScheduleOptimizerTest, StochasticReadmitIdenticalAcrossThreadCounts) {
  std::vector<std::vector<float>> results;
  std::vector<std::string> states;
  for (int threads : {1, 2, 7}) {
    util::set_num_threads(threads);
    auto net = tiny_net();
    core::DropBackConfig config;
    config.schedule =
        std::make_shared<optim::StochasticDropBack>(10, 0.2F, /*seed=*/77);
    core::DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
    drive(*net, opt, 6);
    results.push_back(flat_weights(net->collect_parameters()));
    std::ostringstream state;
    opt.save_state(state);
    states.push_back(state.str());
  }
  util::set_num_threads(1);
  for (std::size_t v = 1; v < results.size(); ++v) {
    ASSERT_EQ(results[0].size(), results[v].size());
    for (std::size_t i = 0; i < results[0].size(); ++i) {
      ASSERT_EQ(results[0][i], results[v][i])
          << "weight " << i << " differs at variant " << v;
    }
    EXPECT_EQ(states[0], states[v]);
  }
}

TEST(ScheduleOptimizerTest, ReadmitCountersAreExact) {
  // With p=1 every untracked weight re-enters the set on the readmit pass.
  auto net = tiny_net();
  core::DropBackConfig config;
  config.schedule = std::make_shared<optim::StochasticDropBack>(10, 1.0F);
  core::DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  drive(*net, opt, 1);
  const std::int64_t total = opt.param_index().total();
  // Step 1: select() shrinks to 10, then readmit(p=1) flips the other 41.
  EXPECT_EQ(opt.tracked().last_readmitted(), total - 10);
  EXPECT_EQ(opt.tracked().tracked_count(), total);
}

// ---------------------------------------------------------------------------
// DBOS schedule-state validation
// ---------------------------------------------------------------------------

TEST(ScheduleStateTest, DynamicSnapshotRefusesDifferentSchedule) {
  auto net = tiny_net();
  core::DropBackConfig config;
  config.schedule = std::make_shared<optim::StochasticDropBack>(10, 0.2F, 7);
  config.steps_per_epoch = 2;
  core::DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  drive(*net, opt, 3);
  std::ostringstream out;
  opt.save_state(out);

  // Same budget, different schedule parameters: typed IoError naming both.
  auto other_net = tiny_net();
  core::DropBackConfig other;
  other.schedule = std::make_shared<optim::StochasticDropBack>(10, 0.5F, 7);
  other.steps_per_epoch = 2;
  core::DropBackOptimizer mismatch(other_net->collect_parameters(), 0.1F,
                                   other);
  std::istringstream in(out.str());
  try {
    mismatch.load_state(in);
    FAIL() << "loaded a snapshot written under a different schedule";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("schedule mismatch"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("p=0.2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("p=0.5"), std::string::npos);
  }

  // The same schedule loads fine and the state round-trips bitwise.
  auto same_net = tiny_net();
  core::DropBackConfig same;
  same.schedule = std::make_shared<optim::StochasticDropBack>(10, 0.2F, 7);
  same.steps_per_epoch = 2;
  core::DropBackOptimizer resumed(same_net->collect_parameters(), 0.1F, same);
  std::istringstream in2(out.str());
  resumed.load_state(in2);
  EXPECT_EQ(resumed.steps(), 3);
  std::ostringstream out2;
  resumed.save_state(out2);
  EXPECT_EQ(out.str(), out2.str());
}

TEST(ScheduleStateTest, ConstantSnapshotRefusedByDynamicSchedule) {
  auto net = tiny_net();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(10);
  core::DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  drive(*net, opt, 2);
  std::ostringstream out;
  opt.save_state(out);

  auto other_net = tiny_net();
  core::DropBackConfig dynamic;
  dynamic.schedule = std::make_shared<optim::StochasticDropBack>(10, 0.2F);
  core::DropBackOptimizer loader(other_net->collect_parameters(), 0.1F,
                                 dynamic);
  std::istringstream in(out.str());
  EXPECT_THROW(loader.load_state(in), util::IoError);
}

TEST(ScheduleStateTest, ManualFreezeSurvivesRoundTrip) {
  auto net = tiny_net();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(10);  // never freezes on its own
  core::DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  drive(*net, opt, 2);
  opt.freeze();
  EXPECT_TRUE(opt.frozen());
  std::ostringstream out;
  opt.save_state(out);

  auto net2 = tiny_net();
  core::DropBackConfig config2;
  config2.schedule = optim::constant_budget(10);
  core::DropBackOptimizer loaded(net2->collect_parameters(), 0.1F, config2);
  std::istringstream in(out.str());
  loaded.load_state(in);
  EXPECT_TRUE(loaded.frozen());
  // Still frozen after more steps: the manual latch is sticky, not a
  // schedule artifact that the next refresh would clear.
  drive(*net2, loaded, 2, 500);
  EXPECT_TRUE(loaded.frozen());
}

}  // namespace
}  // namespace dropback
