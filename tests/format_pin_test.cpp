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

#include "format_fixture.hpp"
#include "nn/checkpoint.hpp"
#include "quant/quantized_store.hpp"
#include "train/training_checkpoint.hpp"
#include "util/atomic_file.hpp"
#include "util/crc32.hpp"

namespace dropback {
namespace {

using format_fixture::Fixture;
using format_fixture::fixture_dataset;

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

TEST(FormatPin, OptimizerStateConstantSchedule) {
  Fixture fix(optim::constant_budget(20, 3));
  expect_pinned(fix.optimizer_state(), {0x2d4b4cb9, 41}, "DBOS (constant)");
}

TEST(FormatPin, OptimizerStateDsdSchedule) {
  Fixture fix(std::make_shared<optim::DenseSparseDense>(20, 1, 2, 1));
  expect_pinned(fix.optimizer_state(), {0xafe4f281, 88}, "DBOS (dsd)");
}

TEST(FormatPin, SparseWeightStore) {
  Fixture fix(optim::constant_budget(20, 3));
  std::ostringstream out(std::ios::binary);
  fix.store().save(out);
  expect_pinned(out.str(), {0xa61f2fdb, 420}, "DBSW");
}

TEST(FormatPin, QuantizedSparseStore) {
  Fixture fix(optim::constant_budget(20, 3));
  std::ostringstream out(std::ios::binary);
  quant::QuantizedSparseStore::quantize(fix.store(), 8).save(out);
  expect_pinned(out.str(), {0x31e39862, 289}, "DBQS");
}

TEST(FormatPin, DenseCheckpoint) {
  Fixture fix(optim::constant_budget(20, 3));
  std::ostringstream out(std::ios::binary);
  nn::save_checkpoint(out, fix.params);
  expect_pinned(out.str(), {0xb4f4f316, 476}, "DBCP");
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
  expect_pinned(util::read_file(path), {0x33f7d6dd, 978}, "DBTS");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dropback
