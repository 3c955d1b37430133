// End-to-end integration tests: tiny trainings that exercise the library the
// way the paper's experiments do, asserting the qualitative results the
// paper reports (scaled down to seconds of CPU time).
#include <gtest/gtest.h>

#include "baselines/magnitude_pruner.hpp"
#include "core/dropback_optimizer.hpp"
#include "core/sparse_weight_store.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/models/lenet.hpp"
#include "train/trainer.hpp"

namespace dropback {
namespace {

struct Task {
  std::unique_ptr<data::InMemoryDataset> train_set;
  std::unique_ptr<data::InMemoryDataset> val_set;
};

Task make_task(std::int64_t n_train = 400, std::int64_t n_val = 200) {
  data::SyntheticMnistOptions opt;
  opt.num_samples = n_train;
  opt.seed = 10;
  Task task;
  task.train_set = data::make_synthetic_mnist(opt);
  opt.num_samples = n_val;
  opt.seed = 20;
  task.val_set = data::make_synthetic_mnist(opt);
  return task;
}

double train_dropback(Task& task, std::int64_t budget,
                      std::int64_t freeze_steps, bool regenerate,
                      core::DropBackOptimizer** out_opt = nullptr,
                      nn::models::Mlp** out_model = nullptr) {
  static std::vector<std::unique_ptr<nn::models::Mlp>> model_keeper;
  static std::vector<std::unique_ptr<core::DropBackOptimizer>> opt_keeper;
  model_keeper.push_back(nn::models::make_mnist_100_100(7));
  auto& model = *model_keeper.back();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(budget, freeze_steps);
  config.regenerate_untracked = regenerate;
  opt_keeper.push_back(std::make_unique<core::DropBackOptimizer>(
      model.collect_parameters(), 0.1F, config));
  auto& opt = *opt_keeper.back();
  train::TrainConfig options;
  options.epochs = 12;
  options.batch_size = 32;
  train::Trainer trainer(model, opt, *task.train_set, *task.val_set, options);
  const auto result = trainer.run();
  if (out_opt) *out_opt = &opt;
  if (out_model) *out_model = &model;
  return result.best_val_acc;
}

TEST(Integration, DropBackTrainsToUsefulAccuracyAtMildBudget) {
  Task task = make_task();
  // 20k of 89.6k weights (4.5x compression, the paper's "DropBack 20k").
  const double acc = train_dropback(task, 20000, -1, true);
  EXPECT_GT(acc, 0.65) << "DropBack 20k failed to learn the task";
}

TEST(Integration, MildBudgetMatchesBaselineClosely) {
  Task task = make_task();
  auto baseline_model = nn::models::make_mnist_100_100(7);
  optim::SGD sgd(baseline_model->collect_parameters(), 0.1F);
  train::TrainConfig options;
  options.epochs = 12;
  options.batch_size = 32;
  train::Trainer baseline_trainer(*baseline_model, sgd, *task.train_set,
                                  *task.val_set, options);
  const double baseline_acc = baseline_trainer.run().best_val_acc;
  const double dropback_acc = train_dropback(task, 50000, -1, true);
  // Table 1's core claim: DropBack at ~2x compression tracks the baseline.
  EXPECT_GT(dropback_acc, baseline_acc - 0.05);
}

TEST(Integration, RegenerationBeatsZeroingAtTightBudget) {
  // The paper's key ablation (§2.1): untracked weights must be regenerated
  // to their init values; zeroing them destroys the scaffolding.
  Task task = make_task();
  const double regen_acc = train_dropback(task, 3000, -1, true);
  const double zero_acc = train_dropback(task, 3000, -1, false);
  EXPECT_GT(regen_acc, zero_acc + 0.03)
      << "regeneration should outperform zeroing at 30x compression";
}

TEST(Integration, ExtremeBudgetStillLearnsSomething) {
  // "DropBack 1.5k" on the 90k MLP: error rises but training still works.
  Task task = make_task();
  const double acc = train_dropback(task, 1500, -1, true);
  EXPECT_GT(acc, 0.3);
}

TEST(Integration, FreezingPreservesAccuracyAtMildCompression) {
  // Paper: "for smaller compression ratios freezing early has little effect".
  Task task = make_task();
  const double no_freeze = train_dropback(task, 30000, -1, true);
  const double early_freeze = train_dropback(task, 30000, 20, true);
  EXPECT_GT(early_freeze, no_freeze - 0.08);
}

TEST(Integration, SparseStoreDeploymentPreservesAccuracy) {
  // Train with DropBack, export the compressed store, load into a fresh
  // model, and verify identical validation accuracy — the embedded
  // deployment path.
  Task task = make_task();
  core::DropBackOptimizer* opt = nullptr;
  nn::models::Mlp* model = nullptr;
  train_dropback(task, 20000, -1, true, &opt, &model);
  // The store snapshots the *final* weights, so compare against the final
  // state's accuracy (best-epoch accuracy may be higher).
  const double trained_acc =
      train::Trainer::evaluate(*model, *task.val_set, 64);
  auto store = core::SparseWeightStore::from_optimizer(*opt);
  EXPECT_EQ(store.live_weights(), 20000);
  EXPECT_NEAR(store.compression_ratio(), 89610.0 / 20000.0, 1e-6);

  auto fresh = nn::models::make_mnist_100_100(12345);  // different init
  store.apply_to(fresh->collect_parameters());
  const double restored_acc =
      train::Trainer::evaluate(*fresh, *task.val_set, 64);
  EXPECT_NEAR(restored_acc, trained_acc, 1e-9);
}

TEST(Integration, DropBackBeatsMagnitudePruningAtEqualBudget) {
  // Figure 5 / Table 3 shape: at the same live-weight budget, keeping
  // untracked weights at their init values trains better than keeping the
  // largest weights and zeroing the rest.
  Task task = make_task();
  const std::int64_t budget = 5000;
  const double dropback_acc = train_dropback(task, budget, -1, true);

  auto mag_model = nn::models::make_mnist_100_100(7);
  const double fraction = 1.0 - static_cast<double>(budget) / 89610.0;
  baselines::MagnitudePruningOptimizer mag(
      mag_model->collect_parameters(), 0.1F, static_cast<float>(fraction));
  train::TrainConfig options;
  options.epochs = 12;
  options.batch_size = 32;
  train::Trainer trainer(*mag_model, mag, *task.train_set, *task.val_set,
                         options);
  const double mag_acc = trainer.run().best_val_acc;
  EXPECT_GT(dropback_acc, mag_acc - 0.02)
      << "DropBack should not lose to magnitude pruning at equal budget";
}

TEST(Integration, CompressionRatiosMatchTable1Arithmetic) {
  // DropBack 20k on MNIST-100-100 is "4.5x"; 1.5k is "60x" (Table 1).
  EXPECT_NEAR(89610.0 / 20000.0, 4.5, 0.05);
  EXPECT_NEAR(89610.0 / 1500.0, 59.7, 0.5);
  // LeNet-300-100: 50k -> 5.33x, 20k -> 13.33x, 1.5k -> 177.7x.
  EXPECT_NEAR(266610.0 / 50000.0, 5.33, 0.01);
  EXPECT_NEAR(266610.0 / 20000.0, 13.33, 0.01);
  EXPECT_NEAR(266610.0 / 1500.0, 177.74, 0.1);
}

}  // namespace
}  // namespace dropback
