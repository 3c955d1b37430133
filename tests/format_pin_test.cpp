// On-disk format pins: every persisted format, saved from one fixed seeded
// fixture, must keep its exact bytes. Each case compares the CRC-32 and size
// of the saved bytes against constants recorded from a known-good build, so
// a refactor that silently changes a codec (field order, width, a dropped
// extension) fails here even when its own round-trip tests still pass.
//
// A deliberate format change updates the constants below in the same change
// and says so; an unexplained mismatch is a compatibility break.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "autograd/ops.hpp"
#include "core/dropback_optimizer.hpp"
#include "core/sparse_weight_store.hpp"
#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "nn/checkpoint.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "optim/budget_schedule.hpp"
#include "quant/quantized_store.hpp"
#include "train/training_checkpoint.hpp"
#include "util/atomic_file.hpp"
#include "util/crc32.hpp"

namespace dropback {
namespace {

namespace T = dropback::tensor;
namespace ag = dropback::autograd;

struct Pin {
  std::uint32_t crc;
  std::size_t size;
};

void expect_pinned(const std::string& bytes, Pin pin, const char* format) {
  const std::uint32_t crc = util::crc32(bytes.data(), bytes.size());
  EXPECT_EQ(bytes.size(), pin.size) << format << " size changed";
  EXPECT_EQ(crc, pin.crc) << format << " bytes changed: crc 0x" << std::hex
                          << crc << std::dec << ", size " << bytes.size();
}

/// A 8-6-3 MLP trained for six DropBack steps under `schedule` with two
/// steps per epoch; gradients come from a fixed seeded batch through plain
/// arithmetic ops, so the weights are a pure function of the seeds.
struct Fixture {
  nn::Sequential net;
  std::vector<nn::Parameter*> params;
  std::unique_ptr<core::DropBackOptimizer> opt;

  explicit Fixture(std::shared_ptr<const optim::BudgetSchedule> schedule) {
    net.emplace<nn::Linear>(8, 6, 11);
    net.emplace<nn::Linear>(6, 3, 12);
    params = net.collect_parameters();
    core::DropBackConfig config;
    config.schedule = std::move(schedule);
    config.steps_per_epoch = 2;
    opt = std::make_unique<core::DropBackOptimizer>(params, 0.1F, config);
    T::Tensor x({4, 8});
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = 0.125F * static_cast<float>((i * 7) % 17) - 1.0F;
    }
    for (int step = 0; step < 6; ++step) {
      net.zero_grad();
      ag::Variable input(x);
      ag::Variable out = net.forward(input);
      ag::backward(ag::sum(ag::mul(out, out)));
      opt->step();
    }
  }

  std::string optimizer_state() const {
    std::ostringstream out(std::ios::binary);
    opt->save_state(out);
    return out.str();
  }
  core::SparseWeightStore store() const {
    return core::SparseWeightStore::from_optimizer(*opt);
  }
};

/// 12 samples of 8 features over 3 classes.
std::unique_ptr<data::InMemoryDataset> fixture_dataset() {
  T::Tensor images({12, 8});
  for (std::int64_t i = 0; i < images.numel(); ++i) {
    images[i] = 0.25F * static_cast<float>(i % 9);
  }
  std::vector<std::int64_t> labels(12);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int64_t>(i % 3);
  }
  return std::make_unique<data::InMemoryDataset>(images, labels, 3);
}

TEST(FormatPin, OptimizerStateConstantSchedule) {
  Fixture fix(optim::constant_budget(20, 3));
  expect_pinned(fix.optimizer_state(), {0xc4c1501c, 41}, "DBOS (constant)");
}

TEST(FormatPin, OptimizerStateDsdSchedule) {
  Fixture fix(std::make_shared<optim::DenseSparseDense>(20, 1, 2, 1));
  expect_pinned(fix.optimizer_state(), {0x80b6ff9b, 88}, "DBOS (dsd)");
}

TEST(FormatPin, SparseWeightStore) {
  Fixture fix(optim::constant_budget(20, 3));
  std::ostringstream out(std::ios::binary);
  fix.store().save(out);
  expect_pinned(out.str(), {0xd0e291d6, 420}, "DBSW");
}

TEST(FormatPin, QuantizedSparseStore) {
  Fixture fix(optim::constant_budget(20, 3));
  std::ostringstream out(std::ios::binary);
  quant::QuantizedSparseStore::quantize(fix.store(), 8).save(out);
  expect_pinned(out.str(), {0x8d25e8b4, 289}, "DBQS");
}

TEST(FormatPin, DenseCheckpoint) {
  Fixture fix(optim::constant_budget(20, 3));
  std::ostringstream out(std::ios::binary);
  nn::save_checkpoint(out, fix.params);
  expect_pinned(out.str(), {0xc987ad68, 476}, "DBCP");
}

TEST(FormatPin, DataLoaderState) {
  auto dataset = fixture_dataset();
  data::DataLoader loader(*dataset, 4, true, 42);
  data::Batch batch;
  ASSERT_TRUE(loader.next(batch));
  std::ostringstream out(std::ios::binary);
  loader.save_state(out);
  expect_pinned(out.str(), {0xd0df8888, 158}, "DBD2");
}

TEST(FormatPin, TrainingSnapshot) {
  Fixture fix(optim::constant_budget(20, 3));
  auto dataset = fixture_dataset();
  data::DataLoader loader(*dataset, 4, true, 42);
  data::Batch batch;
  ASSERT_TRUE(loader.next(batch));
  train::TrainerSnapshot snap;
  snap.global_step = 6;
  snap.epoch = 3;
  snap.in_epoch = true;
  snap.loss_sum = 1.5;
  snap.acc_sum = 0.25;
  snap.batches = 1;
  snap.lr = 0.1F;
  snap.history.push_back({0, 2.0, 0.5, 0.375, 0.1F});
  snap.best_val_acc = 0.375;
  snap.best_epoch = 0;
  const std::string path = ::testing::TempDir() + "/format_pin.dbts";
  std::remove(path.c_str());
  train::save_training_snapshot(path, snap, fix.params, *fix.opt, loader);
  expect_pinned(util::read_file(path), {0x40bc7b55, 978}, "DBTS");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dropback
