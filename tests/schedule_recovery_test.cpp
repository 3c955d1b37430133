// Schedule-aware crash recovery: a killed-and-resumed run under a *dynamic*
// BudgetSchedule (DenseSparseDense, StochasticDropBack) must follow the
// uninterrupted run bitwise — weights and history — at 1, 2, and 7 threads,
// whether the kill lands mid-shrink (sparse phase), mid-re-dense, or inside
// the stochastic re-admission stream. This is the determinism contract of
// docs/SCHEDULES.md: schedules are pure functions of the step counter, and
// the DBTS/DBOS snapshot carries everything needed to re-derive the
// trajectory (including the schedule spec, validated on load).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/dropback_optimizer.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/models/lenet.hpp"
#include "optim/budget_schedule.hpp"
#include "train/trainer.hpp"

namespace dropback::train {
namespace {

struct TinyTask {
  std::unique_ptr<data::InMemoryDataset> train_set;
  std::unique_ptr<data::InMemoryDataset> val_set;
};

TinyTask make_task(std::int64_t n_train = 96, std::int64_t n_val = 32) {
  data::SyntheticMnistOptions opt;
  opt.num_samples = n_train;
  opt.seed = 1;
  TinyTask task;
  task.train_set = data::make_synthetic_mnist(opt);
  opt.num_samples = n_val;
  opt.seed = 2;
  task.val_set = data::make_synthetic_mnist(opt);
  return task;
}

/// Thrown by an after_step hook to emulate SIGKILL between two steps.
struct KillSignal {};

std::vector<float> flat_weights(const std::vector<nn::Parameter*>& params) {
  std::vector<float> all;
  for (const nn::Parameter* p : params) {
    const float* w = p->var.value().data();
    all.insert(all.end(), w, w + p->numel());
  }
  return all;
}

void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "weight " << i;
  }
}

void expect_history_bitwise_equal(const TrainResult& a, const TrainResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t e = 0; e < a.history.size(); ++e) {
    ASSERT_EQ(a.history[e].epoch, b.history[e].epoch);
    ASSERT_EQ(a.history[e].train_loss, b.history[e].train_loss)
        << "epoch " << e;
    ASSERT_EQ(a.history[e].train_acc, b.history[e].train_acc) << "epoch " << e;
    ASSERT_EQ(a.history[e].val_acc, b.history[e].val_acc) << "epoch " << e;
    ASSERT_EQ(a.history[e].lr, b.history[e].lr) << "epoch " << e;
  }
  ASSERT_EQ(a.best_val_acc, b.best_val_acc);
  ASSERT_EQ(a.best_epoch, b.best_epoch);
}

// 96 samples / batch 16 = 6 steps per epoch over 3 epochs; snapshot every
// 2 steps so every kill point has a recent snapshot to resume from.
TrainConfig base_options(const std::string& checkpoint_path,
                         std::int64_t threads) {
  TrainConfig options;
  options.epochs = 3;
  options.batch_size = 16;
  options.checkpoint_path = checkpoint_path;
  options.checkpoint_every = 2;
  options.threads = threads;
  return options;
}

struct RunOutput {
  std::vector<float> weights;
  TrainResult result;
};

core::DropBackOptimizer make_optimizer(
    nn::Module& model,
    const std::shared_ptr<const optim::BudgetSchedule>& schedule) {
  core::DropBackConfig config;
  config.schedule = schedule;
  return core::DropBackOptimizer(model.collect_parameters(), 0.1F, config);
}

RunOutput reference_run(
    const TinyTask& task, const std::string& ckpt, std::int64_t threads,
    const std::shared_ptr<const optim::BudgetSchedule>& schedule) {
  auto model = nn::models::make_mnist_100_100(7);
  auto opt = make_optimizer(*model, schedule);
  Trainer trainer(*model, opt, *task.train_set, *task.val_set,
                  base_options(ckpt, threads));
  RunOutput out;
  out.result = trainer.run();
  out.weights = flat_weights(model->collect_parameters());
  return out;
}

RunOutput killed_and_resumed_run(
    const TinyTask& task, const std::string& ckpt, std::int64_t threads,
    std::int64_t kill_at_step,
    const std::shared_ptr<const optim::BudgetSchedule>& schedule) {
  {
    auto model = nn::models::make_mnist_100_100(7);
    auto opt = make_optimizer(*model, schedule);
    Trainer trainer(*model, opt, *task.train_set, *task.val_set,
                    base_options(ckpt, threads));
    trainer.after_step = [kill_at_step](std::int64_t step) {
      if (step == kill_at_step) throw KillSignal{};
    };
    EXPECT_THROW(trainer.run(), KillSignal);
  }
  // Fresh everything with a different init seed: the snapshot must overwrite
  // all of it, or the comparison below fails.
  auto model = nn::models::make_mnist_100_100(12345);
  auto opt = make_optimizer(*model, schedule);
  TrainConfig options = base_options(ckpt, threads);
  options.resume = true;
  Trainer trainer(*model, opt, *task.train_set, *task.val_set, options);
  RunOutput out;
  out.result = trainer.run();
  out.weights = flat_weights(model->collect_parameters());
  return out;
}

void run_kill_resume(
    const std::string& tag, std::int64_t threads, std::int64_t kill_at_step,
    const std::shared_ptr<const optim::BudgetSchedule>& schedule) {
  const auto task = make_task();
  const std::string dir = ::testing::TempDir();
  const std::string suffix = tag + "_" + std::to_string(threads) + "_" +
                             std::to_string(kill_at_step) + ".dbts";
  const std::string ref_ckpt = dir + "/sched_ref_" + suffix;
  const std::string killed_ckpt = dir + "/sched_killed_" + suffix;
  std::remove(ref_ckpt.c_str());
  std::remove(killed_ckpt.c_str());
  const RunOutput ref = reference_run(task, ref_ckpt, threads, schedule);
  const RunOutput resumed =
      killed_and_resumed_run(task, killed_ckpt, threads, kill_at_step, schedule);
  expect_bitwise_equal(ref.weights, resumed.weights);
  expect_history_bitwise_equal(ref.result, resumed.result);
}

using Sweep = std::tuple<std::int64_t, std::int64_t>;

// --- DenseSparseDense ------------------------------------------------------
// dense epoch 0 (steps 0-5, track-all) -> sparse epoch 1 (steps 6-11,
// k=4000) -> re-dense epoch 2 (steps 12-17). Kill points: 7 = mid-shrink
// (one step into the sparse phase, between snapshots), 13 = mid-re-dense
// (one step after the set grew back).
std::shared_ptr<const optim::BudgetSchedule> dsd_schedule() {
  return std::make_shared<optim::DenseSparseDense>(
      /*budget=*/4000, /*dense_epochs=*/1, /*sparse_epochs=*/1);
}

class DsdKillResumeSweep : public ::testing::TestWithParam<Sweep> {};

TEST_P(DsdKillResumeSweep, BitwiseEqualToUninterruptedRun) {
  const auto [threads, kill_at_step] = GetParam();
  run_kill_resume("dsd", threads, kill_at_step, dsd_schedule());
}

INSTANTIATE_TEST_SUITE_P(
    Kills, DsdKillResumeSweep,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 2, 7),
                       ::testing::Values<std::int64_t>(7, 13)));

// --- StochasticDropBack ----------------------------------------------------
// k=4000 with p=0.05 re-admission per step, frozen from step 14. Kill
// points: 5 = inside the live re-admission stream between snapshots, 9 =
// deeper into the run but still unfrozen (re-admission decisions after
// resume must replay the same counter-based stream).
std::shared_ptr<const optim::BudgetSchedule> stochastic_schedule() {
  return std::make_shared<optim::StochasticDropBack>(
      /*budget=*/4000, /*readmit_prob=*/0.05F, /*seed=*/99,
      /*freeze_after_steps=*/14);
}

class StochasticKillResumeSweep : public ::testing::TestWithParam<Sweep> {};

TEST_P(StochasticKillResumeSweep, BitwiseEqualToUninterruptedRun) {
  const auto [threads, kill_at_step] = GetParam();
  run_kill_resume("stochastic", threads, kill_at_step, stochastic_schedule());
}

INSTANTIATE_TEST_SUITE_P(
    Kills, StochasticKillResumeSweep,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 2, 7),
                       ::testing::Values<std::int64_t>(5, 9)));

// Cross-thread-count determinism of full runs under a dynamic schedule: the
// contract behind the sweep above (and the reason kill/resume can't diverge
// by thread count either).
TEST(ScheduleDeterminism, DsdRunIdenticalAcrossThreadCounts) {
  const auto task = make_task();
  std::vector<std::vector<float>> all;
  for (std::int64_t threads : {1, 2, 7}) {
    const std::string ckpt = ::testing::TempDir() + "/sched_det_" +
                             std::to_string(threads) + ".dbts";
    std::remove(ckpt.c_str());
    all.push_back(reference_run(task, ckpt, threads, dsd_schedule()).weights);
  }
  expect_bitwise_equal(all[0], all[1]);
  expect_bitwise_equal(all[0], all[2]);
}

}  // namespace
}  // namespace dropback::train
