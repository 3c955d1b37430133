#include "train/dropback_session.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "data/synthetic_mnist.hpp"
#include "nn/models/lenet.hpp"

namespace dropback::train {
namespace {

struct Task {
  std::unique_ptr<data::InMemoryDataset> train_set;
  std::unique_ptr<data::InMemoryDataset> val_set;
};

Task make_task(std::int64_t n_train = 400, std::int64_t n_val = 150) {
  data::SyntheticMnistOptions opt;
  opt.num_samples = n_train;
  opt.seed = 1;
  Task task;
  task.train_set = data::make_synthetic_mnist(opt);
  opt.num_samples = n_val;
  opt.seed = 2;
  task.val_set = data::make_synthetic_mnist(opt);
  return task;
}

DropBackSession::Options default_options() {
  DropBackSession::Options options;
  options.budget_schedule = optim::constant_budget(8000);
  options.train.epochs = 8;
  options.train.batch_size = 32;
  return options;
}

TEST(Session, RequiresBudgetSchedule) {
  auto model = nn::models::make_mnist_100_100(3);
  DropBackSession::Options options;
  EXPECT_THROW(DropBackSession(*model, options), std::invalid_argument);
}

TEST(Session, FitTrainsAndReportsCompression) {
  auto task = make_task();
  auto model = nn::models::make_mnist_100_100(3);
  DropBackSession session(*model, default_options());
  const auto result = session.fit(*task.train_set, *task.val_set);
  EXPECT_EQ(result.history.size(), 8U);
  EXPECT_GT(result.best_val_acc, 0.3);
  EXPECT_EQ(session.live_weights(), 8000);
  EXPECT_NEAR(session.compression_ratio(), 89610.0 / 8000.0, 1e-6);
}

TEST(Session, EvaluateMatchesTrainerEvaluate) {
  auto task = make_task(60, 60);
  auto model = nn::models::make_mnist_100_100(3);
  DropBackSession session(*model, default_options());
  EXPECT_DOUBLE_EQ(session.evaluate(*task.val_set),
                   Trainer::evaluate(*model, *task.val_set, 32));
}

TEST(Session, FreezeEpochTriggersFreeze) {
  auto task = make_task(64, 32);
  auto model = nn::models::make_mnist_100_100(3);
  auto options = default_options();
  options.budget_schedule = optim::constant_budget_epochs(8000, 2);
  DropBackSession session(*model, options);
  EXPECT_FALSE(session.frozen());
  session.fit(*task.train_set, *task.val_set);
  EXPECT_TRUE(session.frozen());
}

TEST(Session, ExportedStoreRoundTrips) {
  auto task = make_task();
  auto model = nn::models::make_mnist_100_100(3);
  DropBackSession session(*model, default_options());
  session.fit(*task.train_set, *task.val_set);
  const std::string path = ::testing::TempDir() + "/session_model.dbsw";
  session.export_compressed(path);
  auto loaded = core::SparseWeightStore::load_file(path);
  EXPECT_EQ(loaded.live_weights(), 8000);
  // Reload into a fresh model: identical validation accuracy.
  auto fresh = nn::models::make_mnist_100_100(444);
  loaded.apply_to(fresh->collect_parameters());
  EXPECT_DOUBLE_EQ(Trainer::evaluate(*fresh, *task.val_set, 32),
                   session.evaluate(*task.val_set));
}

TEST(Session, TrainingStateSaveLoadResumes) {
  auto task = make_task();
  const std::string path = ::testing::TempDir() + "/session_state.bin";
  double acc_direct;
  {  // Uninterrupted: 4 + 4 epochs.
    auto model = nn::models::make_mnist_100_100(3);
    DropBackSession session(*model, default_options());
    session.fit(*task.train_set, *task.val_set);
    session.fit(*task.train_set, *task.val_set);
    acc_direct = session.evaluate(*task.val_set);
  }
  double acc_resumed;
  {  // Interrupted after the first fit.
    auto model = nn::models::make_mnist_100_100(3);
    DropBackSession session(*model, default_options());
    session.fit(*task.train_set, *task.val_set);
    session.save_training_state(path);
    // "Restart" in a new session over a fresh model.
    auto model2 = nn::models::make_mnist_100_100(3);
    DropBackSession session2(*model2, default_options());
    session2.load_training_state(path);
    session2.fit(*task.train_set, *task.val_set);
    acc_resumed = session2.evaluate(*task.val_set);
  }
  EXPECT_DOUBLE_EQ(acc_direct, acc_resumed);
}

TEST(Session, ResumeIntoModelBuiltWithOtherSeed) {
  // Untracked weights regenerate from each parameter's InitSpec, so the
  // state must carry the specs: a restart that rebuilds its model with
  // another seed still lands on the uninterrupted run's weights, bit for bit.
  auto task = make_task(128, 32);
  auto options = default_options();
  options.train.epochs = 2;
  const std::string path = ::testing::TempDir() + "/session_reseed.dbss";
  auto direct = nn::models::make_mnist_100_100(3);
  {
    DropBackSession session(*direct, options);
    session.fit(*task.train_set, *task.val_set);
    session.fit(*task.train_set, *task.val_set);
  }
  auto resumed = nn::models::make_mnist_100_100(4);
  {
    auto model = nn::models::make_mnist_100_100(3);
    DropBackSession session(*model, options);
    session.fit(*task.train_set, *task.val_set);
    session.save_training_state(path);
    DropBackSession session2(*resumed, options);
    session2.load_training_state(path);
    session2.fit(*task.train_set, *task.val_set);
  }
  const auto want = direct->collect_parameters();
  const auto got = resumed->collect_parameters();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t p = 0; p < want.size(); ++p) {
    EXPECT_EQ(want[p]->init.seed(), got[p]->init.seed()) << "param " << p;
    EXPECT_EQ(std::memcmp(want[p]->var.value().data(),
                          got[p]->var.value().data(),
                          static_cast<std::size_t>(want[p]->numel()) *
                              sizeof(float)),
              0)
        << "param " << p;
  }
}

TEST(Session, EnergyTrackingAccumulates) {
  auto task = make_task(64, 32);
  auto model = nn::models::make_mnist_100_100(3);
  auto options = default_options();
  options.track_energy = true;
  options.train.epochs = 1;
  DropBackSession session(*model, options);
  session.fit(*task.train_set, *task.val_set);
  EXPECT_GT(session.energy().regens, 0U);
  EXPECT_GT(session.energy().dram_reads, 0U);
}

TEST(Session, LrScheduleApplied) {
  auto task = make_task(64, 32);
  auto model = nn::models::make_mnist_100_100(3);
  auto options = default_options();
  options.lr = 0.4F;
  options.lr_decay = 0.5F;
  options.lr_decay_epochs = 1;
  options.train.epochs = 3;
  DropBackSession session(*model, options);
  const auto result = session.fit(*task.train_set, *task.val_set);
  EXPECT_FLOAT_EQ(result.history[0].lr, 0.4F);
  EXPECT_FLOAT_EQ(result.history[2].lr, 0.1F);
}

}  // namespace
}  // namespace dropback::train
