// Full training snapshots — everything needed to resume a killed run on the
// exact trajectory of the uninterrupted one (bitwise, extending the PR-1
// determinism contract).
//
// A snapshot is a "DBTS" container (util/container.hpp) with five sections:
//   trainer   — step/epoch counters, mid-epoch stat accumulators, lr,
//               completed-epoch history, early-stop state
//   model     — dense nn::checkpoint of every parameter
//   inits     — each parameter's InitSpec (kind + scale + seed), so DropBack
//               regenerates the *original* untracked values even if the
//               resumed process rebuilt its model with a different seed
//   optimizer — Optimizer::save_state (DropBack masks, momentum, Adam, ...)
//   loader    — DataLoader shuffle state (RNG, epoch order, cursor)
//
// Files are written via util::atomic_write_file, so a crash mid-save leaves
// the previous snapshot loadable. All load failures raise util::IoError.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "data/dataloader.hpp"
#include "nn/module.hpp"
#include "optim/sgd.hpp"
#include "train/trainer.hpp"

namespace dropback::train {

/// Trainer-level state captured in a snapshot. `epoch` is the epoch the
/// resumed run enters next; when `in_epoch` is set the loader section holds a
/// mid-epoch cursor and the stat accumulators below are partial sums for
/// that epoch (otherwise they are zero and the resume starts a fresh epoch).
struct TrainerSnapshot {
  std::int64_t global_step = 0;
  std::int64_t epoch = 0;
  bool in_epoch = false;
  double loss_sum = 0.0;
  double acc_sum = 0.0;
  std::int64_t batches = 0;
  std::int64_t anomalies = 0;
  std::int64_t skipped_steps = 0;
  float lr = 0.0F;
  std::vector<EpochStats> history;
  double best_val_acc = 0.0;
  std::int64_t best_epoch = -1;
  std::int64_t stale_epochs = 0;
};

/// Writes a full snapshot of the training run to `out`.
void save_training_snapshot(std::ostream& out, const TrainerSnapshot& snap,
                            const std::vector<nn::Parameter*>& params,
                            const optim::Optimizer& optimizer,
                            const data::DataLoader& loader);
/// Atomically writes a full snapshot of the training run to `path`.
void save_training_snapshot(const std::string& path,
                            const TrainerSnapshot& snap,
                            const std::vector<nn::Parameter*>& params,
                            const optim::Optimizer& optimizer,
                            const data::DataLoader& loader);

/// Loads a snapshot from `in` (which it must consume exactly), restoring
/// weights, optimizer state, and loader position in place, and returns the
/// trainer-level state. Raises util::IoError on corruption, truncation, or
/// model mismatch — the caller's state is only mutated after the
/// container's checksums and the trainer section validate.
TrainerSnapshot load_training_snapshot(
    std::istream& in, const std::vector<nn::Parameter*>& params,
    optim::Optimizer& optimizer, data::DataLoader& loader);
/// load_training_snapshot on the bytes of `path`.
TrainerSnapshot load_training_snapshot(
    const std::string& path, const std::vector<nn::Parameter*>& params,
    optim::Optimizer& optimizer, data::DataLoader& loader);

}  // namespace dropback::train
