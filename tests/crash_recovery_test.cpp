// Crash-recovery suite: kill-and-resume bitwise equivalence, fault-injected
// checkpoint writes, and full-training-snapshot integrity.
//
// The contract under test (docs/ROBUSTNESS.md): a training run that is
// killed at any point and resumed from its last snapshot follows the exact
// trajectory of the uninterrupted run — bitwise, at any thread count — and
// every injected write fault leaves either a loadable previous checkpoint or
// raises a typed util::IoError at load time.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/dropback_optimizer.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/models/lenet.hpp"
#include "optim/momentum.hpp"
#include "train/trainer.hpp"
#include "train/training_checkpoint.hpp"
#include "util/atomic_file.hpp"
#include "util/container.hpp"
#include "util/fault_injection.hpp"
#include "util/io_error.hpp"

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

/// Uninterrupted DropBack reference run. Checkpointing stays enabled so both
/// runs do identical work (snapshot writes must not perturb the trajectory).
RunOutput reference_run(const TinyTask& task, const std::string& ckpt,
                        std::int64_t threads) {
  auto model = nn::models::make_mnist_100_100(7);
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(4000, 8);
  core::DropBackOptimizer opt(model->collect_parameters(), 0.1F, config);
  Trainer trainer(*model, opt, *task.train_set, *task.val_set,
                  base_options(ckpt, threads));
  RunOutput out;
  out.result = trainer.run();
  out.weights = flat_weights(model->collect_parameters());
  return out;
}

/// Kills the run via an after_step hook at `kill_at_step`, then resumes from
/// the snapshot with a brand-new model/optimizer/trainer ("new process").
RunOutput killed_and_resumed_run(const TinyTask& task, const std::string& ckpt,
                                 std::int64_t threads,
                                 std::int64_t kill_at_step) {
  {
    auto model = nn::models::make_mnist_100_100(7);
    core::DropBackConfig config;
    config.schedule = optim::constant_budget(4000, 8);
    core::DropBackOptimizer opt(model->collect_parameters(), 0.1F, config);
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
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(4000, 8);
  core::DropBackOptimizer opt(model->collect_parameters(), 0.1F, config);
  TrainConfig options = base_options(ckpt, threads);
  options.resume = true;
  Trainer trainer(*model, opt, *task.train_set, *task.val_set, options);
  RunOutput out;
  out.result = trainer.run();
  out.weights = flat_weights(model->collect_parameters());
  return out;
}

class KillResumeSweep
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {
};

TEST_P(KillResumeSweep, BitwiseEqualToUninterruptedRun) {
  const auto [threads, kill_at_step] = GetParam();
  const auto task = make_task();
  const std::string dir = ::testing::TempDir();
  const std::string suffix =
      std::to_string(threads) + "_" + std::to_string(kill_at_step) + ".dbts";
  const std::string ref_ckpt = dir + "/ref_" + suffix;
  const std::string killed_ckpt = dir + "/killed_" + suffix;
  std::remove(ref_ckpt.c_str());
  std::remove(killed_ckpt.c_str());
  const RunOutput ref = reference_run(task, ref_ckpt, threads);
  const RunOutput resumed =
      killed_and_resumed_run(task, killed_ckpt, threads, kill_at_step);
  expect_bitwise_equal(ref.weights, resumed.weights);
  expect_history_bitwise_equal(ref.result, resumed.result);
}

// 96 samples / batch 16 = 6 steps per epoch, snapshots every 2 steps. Kill
// mid-epoch between snapshots (step 3), right on a snapshot step (4), and
// just after the epoch-0 boundary (7) — each at 1 and 2 threads.
INSTANTIATE_TEST_SUITE_P(
    Kills, KillResumeSweep,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 2),
                       ::testing::Values<std::int64_t>(3, 4, 7)));

TEST(CrashRecovery, ResumeWithMissingFileStartsFresh) {
  const auto task = make_task();
  const std::string ckpt = ::testing::TempDir() + "/never_written.dbts";
  std::remove(ckpt.c_str());
  auto model = nn::models::make_mnist_100_100(7);
  optim::SGD opt(model->collect_parameters(), 0.1F);
  TrainConfig options = base_options(ckpt, 1);
  options.resume = true;  // nothing to resume from: same as a fresh run
  Trainer trainer(*model, opt, *task.train_set, *task.val_set, options);
  const auto result = trainer.run();
  EXPECT_EQ(result.history.size(), 3U);
}

TEST(CrashRecovery, MomentumStateSurvivesKillAndResume) {
  // Same contract with a stateful baseline optimizer: the velocity buffers
  // ride in the snapshot's optimizer section.
  const auto task = make_task();
  const std::string dir = ::testing::TempDir();
  const std::string ref_ckpt = dir + "/mom_ref.dbts";
  const std::string killed_ckpt = dir + "/mom_killed.dbts";
  std::remove(ref_ckpt.c_str());
  std::remove(killed_ckpt.c_str());

  auto run = [&](const std::string& ckpt, std::int64_t kill_at) -> RunOutput {
    auto model = nn::models::make_mnist_100_100(7);
    optim::MomentumSGD opt(model->collect_parameters(), 0.05F, 0.9F);
    Trainer trainer(*model, opt, *task.train_set, *task.val_set,
                    base_options(ckpt, 1));
    RunOutput out;
    if (kill_at < 0) {
      out.result = trainer.run();
      out.weights = flat_weights(model->collect_parameters());
      return out;
    }
    trainer.after_step = [kill_at](std::int64_t step) {
      if (step == kill_at) throw KillSignal{};
    };
    EXPECT_THROW(trainer.run(), KillSignal);
    auto model2 = nn::models::make_mnist_100_100(999);
    optim::MomentumSGD opt2(model2->collect_parameters(), 0.05F, 0.9F);
    TrainConfig options = base_options(ckpt, 1);
    options.resume = true;
    Trainer resumed(*model2, opt2, *task.train_set, *task.val_set, options);
    out.result = resumed.run();
    out.weights = flat_weights(model2->collect_parameters());
    return out;
  };
  const RunOutput ref = run(ref_ckpt, -1);
  const RunOutput resumed = run(killed_ckpt, 5);
  expect_bitwise_equal(ref.weights, resumed.weights);
  expect_history_bitwise_equal(ref.result, resumed.result);
}

// --- fault injection on the snapshot write path ----------------------------

struct SnapshotFixture {
  std::unique_ptr<nn::models::Mlp> model;
  std::unique_ptr<optim::SGD> opt;
  std::unique_ptr<data::InMemoryDataset> dataset;
  std::unique_ptr<data::DataLoader> loader;
  TrainerSnapshot snap;

  explicit SnapshotFixture(std::uint64_t seed = 7) {
    model = nn::models::make_mnist_100_100(seed);
    opt = std::make_unique<optim::SGD>(model->collect_parameters(), 0.1F);
    data::SyntheticMnistOptions data_opt;
    data_opt.num_samples = 32;
    dataset = data::make_synthetic_mnist(data_opt);
    loader = std::make_unique<data::DataLoader>(*dataset, 8, true, 42);
    snap.global_step = 11;
    snap.epoch = 2;
    snap.lr = 0.05F;
  }

  void save(const std::string& path) const {
    save_training_snapshot(path, snap, model->collect_parameters(), *opt,
                           *loader);
  }
  TrainerSnapshot load(const std::string& path) {
    return load_training_snapshot(path, model->collect_parameters(), *opt,
                                  *loader);
  }
};

class FaultKindSweep : public ::testing::TestWithParam<util::FaultKind> {};

TEST_P(FaultKindSweep, FaultedSaveLeavesLoadableStateOrTypedError) {
  const util::FaultKind kind = GetParam();
  SnapshotFixture fix;
  const std::string path = ::testing::TempDir() + "/faulted_" +
                           std::to_string(static_cast<int>(kind)) + ".dbts";
  std::remove(path.c_str());
  fix.save(path);  // good snapshot at step 11

  fix.snap.global_step = 23;
  util::arm_fault({kind, 64});
  switch (kind) {
    case util::FaultKind::kShortWrite:
    case util::FaultKind::kEnospc:
      // Clean abort: typed error, previous snapshot untouched.
      EXPECT_THROW(fix.save(path), util::IoError);
      break;
    case util::FaultKind::kCrash:
      // Hard kill mid-write: escapes as SimulatedCrash (never IoError, so
      // production retry loops cannot swallow it); previous file intact.
      EXPECT_THROW(fix.save(path), util::SimulatedCrash);
      break;
    case util::FaultKind::kFlipByte: {
      // The write "succeeds" but the bytes rot in flight: the container CRC
      // turns the silent corruption into a typed load error.
      fix.save(path);
      EXPECT_THROW(fix.load(path), util::IoError);
      util::disarm_fault();
      return;  // rename landed, so the previous snapshot is gone by design
    }
    case util::FaultKind::kNone:
    case util::FaultKind::kShortRead:
    case util::FaultKind::kReadError:
    case util::FaultKind::kStall:
      break;  // read-side kinds never fire on the save path
  }
  util::disarm_fault();
  const TrainerSnapshot recovered = fix.load(path);
  EXPECT_EQ(recovered.global_step, 11);
  EXPECT_EQ(recovered.epoch, 2);
}

INSTANTIATE_TEST_SUITE_P(Faults, FaultKindSweep,
                         ::testing::Values(util::FaultKind::kShortWrite,
                                           util::FaultKind::kEnospc,
                                           util::FaultKind::kCrash,
                                           util::FaultKind::kFlipByte));

TEST(CrashRecovery, CrashDuringCheckpointLeavesPreviousSnapshotAndResumes) {
  // Arm a crash that fires during one of the trainer's own snapshot writes:
  // the run dies mid-write, the previous snapshot survives, and resuming
  // from it still reproduces the uninterrupted run bitwise.
  const auto task = make_task();
  const std::string dir = ::testing::TempDir();
  const std::string ref_ckpt = dir + "/crashwrite_ref.dbts";
  const std::string ckpt = dir + "/crashwrite.dbts";
  std::remove(ref_ckpt.c_str());
  std::remove(ckpt.c_str());
  const RunOutput ref = reference_run(task, ref_ckpt, 1);
  {
    auto model = nn::models::make_mnist_100_100(7);
    core::DropBackConfig config;
    config.schedule = optim::constant_budget(4000, 8);
    core::DropBackOptimizer opt(model->collect_parameters(), 0.1F, config);
    Trainer trainer(*model, opt, *task.train_set, *task.val_set,
                    base_options(ckpt, 1));
    trainer.after_step = [](std::int64_t step) {
      // Snapshots land at steps 2, 4, 6, ... — arm after step 5 so the
      // step-6 write dies mid-file.
      if (step == 5) util::arm_fault({util::FaultKind::kCrash, 96});
    };
    EXPECT_THROW(trainer.run(), util::SimulatedCrash);
  }
  {
    // What is on disk is the intact step-4 snapshot, not step-6 debris.
    auto probe_model = nn::models::make_mnist_100_100(7);
    core::DropBackConfig probe_config;
    probe_config.schedule = optim::constant_budget(4000, 8);
    core::DropBackOptimizer probe_opt(probe_model->collect_parameters(), 0.1F,
                                      probe_config);
    data::DataLoader probe_loader(*task.train_set, 16, true, 0xDA7A);
    const TrainerSnapshot snap = load_training_snapshot(
        ckpt, probe_model->collect_parameters(), probe_opt, probe_loader);
    EXPECT_EQ(snap.global_step, 4);
  }
  auto model = nn::models::make_mnist_100_100(321);
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(4000, 8);
  core::DropBackOptimizer opt(model->collect_parameters(), 0.1F, config);
  TrainConfig options = base_options(ckpt, 1);
  options.resume = true;
  Trainer trainer(*model, opt, *task.train_set, *task.val_set, options);
  const TrainResult result = trainer.run();
  expect_bitwise_equal(ref.weights, flat_weights(model->collect_parameters()));
  expect_history_bitwise_equal(ref.result, result);
}

TEST(CrashRecovery, SnapshotRejectsModelMismatch) {
  SnapshotFixture small;
  const std::string path = ::testing::TempDir() + "/mismatch.dbts";
  std::remove(path.c_str());
  small.save(path);
  auto lenet = nn::models::make_lenet_300_100(3);
  optim::SGD opt(lenet->collect_parameters(), 0.1F);
  data::SyntheticMnistOptions data_opt;
  data_opt.num_samples = 32;
  auto dataset = data::make_synthetic_mnist(data_opt);
  data::DataLoader loader(*dataset, 8, true, 42);
  EXPECT_THROW(
      load_training_snapshot(path, lenet->collect_parameters(), opt, loader),
      util::IoError);
}

TEST(CrashRecovery, SnapshotRejectsLoaderMismatch) {
  SnapshotFixture fix;
  const std::string path = ::testing::TempDir() + "/loader_mismatch.dbts";
  std::remove(path.c_str());
  fix.save(path);
  // Same model, different batch size: the loader section must refuse.
  data::DataLoader other(*fix.dataset, 16, true, 42);
  EXPECT_THROW(load_training_snapshot(path, fix.model->collect_parameters(),
                                      *fix.opt, other),
               util::IoError);
}

TEST(CrashRecovery, SnapshotWithUnversionedLoaderSectionIsRejected) {
  // The unversioned "DBDL" loader layout (no epoch counter) was never
  // shipped. A snapshot whose checksums are valid but whose loader section
  // carries that layout must fail to load with a typed error.
  SnapshotFixture fix;
  const std::string path = ::testing::TempDir() + "/legacy_loader.dbts";
  std::remove(path.c_str());
  fix.save(path);

  // Rewrite the snapshot, replacing only the loader section with
  // hand-written v1 bytes: magic, size, batch, shuffle, RNG state, cursor,
  // order.
  const std::string original = util::read_file(path);
  std::istringstream in(original, std::ios::binary);
  const auto reader = util::ContainerReader::read_from(in, "DBTS");
  util::ContainerWriter writer("DBTS");
  std::vector<std::int64_t> order(32);
  for (std::int64_t i = 0; i < 32; ++i) order[static_cast<std::size_t>(i)] =
      31 - i;
  for (std::size_t i = 0; i < reader.num_sections(); ++i) {
    std::ostream& out = writer.add_section(reader.section_name(i));
    if (reader.section_name(i) != "loader") {
      out << reader.section_bytes(i);
      continue;
    }
    const auto put = [&out](const auto& v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    out.write("DBDL", 4);
    put(std::int64_t{32});  // dataset size
    put(std::int64_t{8});   // batch size
    put(std::uint8_t{1});   // shuffle
    rng::Xorshift128 rng(123);
    const rng::Xorshift128::State rs = rng.state();
    put(rs.x);
    put(rs.y);
    put(rs.z);
    put(rs.w);
    put(std::uint8_t{0});
    put(0.0F);
    put(std::int64_t{16});  // cursor: two of four batches consumed
    for (const std::int64_t idx : order) put(idx);
  }
  util::atomic_write_file(path,
                          [&](std::ostream& out) { writer.write_to(out); });

  EXPECT_THROW(fix.load(path), util::IoError);
}

TEST(CrashRecovery, FaultSpecParsing) {
  const util::FaultSpec spec = util::parse_fault_spec("crash:128");
  EXPECT_EQ(spec.kind, util::FaultKind::kCrash);
  EXPECT_EQ(spec.at_byte, 128);
  EXPECT_THROW(util::parse_fault_spec("melt:1"), std::invalid_argument);
  EXPECT_THROW(util::parse_fault_spec("crash"), std::invalid_argument);
  EXPECT_THROW(util::parse_fault_spec("crash:-3"), std::invalid_argument);
  EXPECT_THROW(util::parse_fault_spec("crash:12x"), std::invalid_argument);
}

}  // namespace
}  // namespace dropback::train
