#include "train/training_checkpoint.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "nn/checkpoint.hpp"
#include "obs/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/bytes.hpp"
#include "util/container.hpp"

namespace dropback::train {

namespace {

constexpr char kSnapshotKind[] = "DBTS";
/// One persisted EpochStats: epoch, three doubles, lr.
constexpr std::uint64_t kEpochStatsBytes = 8 + 3 * 8 + 4;

void write_trainer_section(std::ostream& out, const TrainerSnapshot& snap) {
  util::ByteWriter w(out, "training snapshot: trainer section");
  w.pod(snap.global_step);
  w.pod(snap.epoch);
  w.pod<std::uint8_t>(snap.in_epoch ? 1 : 0);
  w.pod(snap.loss_sum);
  w.pod(snap.acc_sum);
  w.pod(snap.batches);
  w.pod(snap.anomalies);
  w.pod(snap.skipped_steps);
  w.pod(snap.lr);
  w.pod(snap.best_val_acc);
  w.pod(snap.best_epoch);
  w.pod(snap.stale_epochs);
  w.pod(static_cast<std::uint32_t>(snap.history.size()));
  // History doubles are stored raw so the resumed TrainResult compares
  // bitwise equal to the uninterrupted run's.
  for (const EpochStats& s : snap.history) {
    w.pod(s.epoch);
    w.pod(s.train_loss);
    w.pod(s.train_acc);
    w.pod(s.val_acc);
    w.pod(s.lr);
  }
}

TrainerSnapshot read_trainer_section(std::istream& in) {
  util::ByteReader r(in, "training snapshot: trainer section");
  TrainerSnapshot snap;
  snap.global_step = r.pod<std::int64_t>();
  snap.epoch = r.pod<std::int64_t>();
  snap.in_epoch = r.boolean();
  snap.loss_sum = r.pod<double>();
  snap.acc_sum = r.pod<double>();
  snap.batches = r.pod<std::int64_t>();
  snap.anomalies = r.pod<std::int64_t>();
  snap.skipped_steps = r.pod<std::int64_t>();
  snap.lr = r.pod<float>();
  snap.best_val_acc = r.pod<double>();
  snap.best_epoch = r.pod<std::int64_t>();
  snap.stale_epochs = r.pod<std::int64_t>();
  if (snap.global_step < 0 || snap.epoch < 0 || snap.batches < 0) {
    r.fail("negative counter");
  }
  snap.history.resize(
      r.count(r.pod<std::uint32_t>(), kEpochStatsBytes, "history"));
  for (EpochStats& s : snap.history) {
    s.epoch = r.pod<std::int64_t>();
    s.train_loss = r.pod<double>();
    s.train_acc = r.pod<double>();
    s.val_acc = r.pod<double>();
    s.lr = r.pod<float>();
  }
  r.expect_end();
  return snap;
}

// DropBack regenerates untracked weights from each parameter's InitSpec, so
// the specs are part of the training state: a resumed process that rebuilt
// its model with a different seed must still regenerate the original values.
void write_inits_section(std::ostream& out,
                         const std::vector<nn::Parameter*>& params) {
  util::ByteWriter w(out, "training snapshot: inits section");
  w.pod(static_cast<std::uint32_t>(params.size()));
  for (const nn::Parameter* p : params) p->init.encode(w);
}

void read_inits_section(std::istream& in,
                        const std::vector<nn::Parameter*>& params) {
  util::ByteReader r(in, "training snapshot: inits section");
  const auto n = r.pod<std::uint32_t>();
  if (n != params.size()) {
    r.fail("init specs for " + std::to_string(n) + " parameters, model has " +
           std::to_string(params.size()));
  }
  for (nn::Parameter* p : params) p->init = rng::InitSpec::decode(r);
  r.expect_end();
}

}  // namespace

void save_training_snapshot(std::ostream& out, const TrainerSnapshot& snap,
                            const std::vector<nn::Parameter*>& params,
                            const optim::Optimizer& optimizer,
                            const data::DataLoader& loader) {
  util::ContainerWriter writer(kSnapshotKind);
  write_trainer_section(writer.add_section("trainer"), snap);
  nn::save_checkpoint(writer.add_section("model"), params);
  write_inits_section(writer.add_section("inits"), params);
  optimizer.save_state(writer.add_section("optimizer"));
  loader.save_state(writer.add_section("loader"));
  writer.write_to(out);
}

void save_training_snapshot(const std::string& path,
                            const TrainerSnapshot& snap,
                            const std::vector<nn::Parameter*>& params,
                            const optim::Optimizer& optimizer,
                            const data::DataLoader& loader) {
  util::atomic_write_file(path, [&](std::ostream& out) {
    save_training_snapshot(out, snap, params, optimizer, loader);
  });
}

TrainerSnapshot load_training_snapshot(
    std::istream& in, const std::vector<nn::Parameter*>& params,
    optim::Optimizer& optimizer, data::DataLoader& loader) {
  const util::ContainerReader reader =
      util::ContainerReader::read_from(in, kSnapshotKind);
  reader.expect_sections({"trainer", "model", "inits", "optimizer", "loader"});
  // Parse the trainer section before touching any caller state, so a bad
  // snapshot leaves the run unmodified.
  std::istringstream trainer_in = reader.section_stream("trainer");
  std::istringstream model_in = reader.section_stream("model");
  std::istringstream inits_in = reader.section_stream("inits");
  std::istringstream opt_in = reader.section_stream("optimizer");
  std::istringstream loader_in = reader.section_stream("loader");
  TrainerSnapshot snap = read_trainer_section(trainer_in);
  nn::load_checkpoint(model_in, params);
  read_inits_section(inits_in, params);
  optimizer.load_state(opt_in);
  loader.load_state(loader_in);
  return snap;
}

TrainerSnapshot load_training_snapshot(
    const std::string& path, const std::vector<nn::Parameter*>& params,
    optim::Optimizer& optimizer, data::DataLoader& loader) {
  DROPBACK_TRACE_SPAN("checkpoint_load");
  std::istringstream in(util::read_file(path), std::ios::binary);
  return load_training_snapshot(in, params, optimizer, loader);
}

}  // namespace dropback::train
