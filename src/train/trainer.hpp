// Generic training loop shared by examples and the benchmark harness.
//
// Hooks expose the extension points the paper's baselines need without
// subclassing: loss_transform (variational dropout adds its KL term),
// after_backward (network slimming injects the gamma L1 subgradient),
// after_step (slimming re-applies channel masks; the analysis trackers for
// Figs. 2/5/6 record per-iteration state), on_epoch_end (bench logging).
//
// Crash safety: with `checkpoint_path` set the trainer periodically writes a
// full training snapshot (weights + optimizer state + loader position +
// counters, see train/training_checkpoint.hpp) through an atomic rename, and
// with `resume` set it continues a killed run on the *bitwise identical*
// trajectory of the uninterrupted one. Numeric-anomaly guards (`anomaly_policy`)
// detect non-finite losses or gradients before they can corrupt the weights.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "autograd/variable.hpp"
#include "data/dataloader.hpp"
#include "nn/module.hpp"
#include "optim/sgd.hpp"
#include "train/train_config.hpp"

namespace dropback::obs {
class EventStream;
}

namespace dropback::train {

struct EpochStats {
  std::int64_t epoch = 0;
  double train_loss = 0.0;
  double train_acc = 0.0;
  double val_acc = 0.0;
  float lr = 0.0F;
};

struct TrainResult {
  std::vector<EpochStats> history;
  double best_val_acc = 0.0;
  std::int64_t best_epoch = -1;
  /// Non-finite loss/gradient events detected (any policy but kOff).
  std::int64_t anomalies = 0;
  /// Batches dropped by AnomalyPolicy::kSkipStep.
  std::int64_t skipped_steps = 0;
  /// Set when AnomalyPolicy::kRollback restored the last snapshot.
  bool rolled_back = false;

  double best_val_error() const { return 1.0 - best_val_acc; }
  double final_val_acc() const {
    return history.empty() ? 0.0 : history.back().val_acc;
  }
};

/// Early-stopping bookkeeping: tracks the best validation accuracy (strict
/// improvement) and how many consecutive epochs have failed to beat it.
/// Stops once that count *exceeds* patience — patience 0 therefore allows
/// any number of improving epochs but stops at the first stale one.
class EarlyStopper {
 public:
  /// patience < 0 disables stopping (should_stop is always false).
  explicit EarlyStopper(std::int64_t patience) : patience_(patience) {}

  /// Records one epoch's validation accuracy; returns true on a new best.
  bool observe(std::int64_t epoch, double val_acc);

  bool should_stop() const {
    return patience_ >= 0 && stale_epochs_ > patience_;
  }

  double best_val_acc() const { return best_val_acc_; }
  std::int64_t best_epoch() const { return best_epoch_; }
  std::int64_t stale_epochs() const { return stale_epochs_; }

  /// Reinstates state from a training snapshot.
  void restore(double best_val_acc, std::int64_t best_epoch,
               std::int64_t stale_epochs);

 private:
  std::int64_t patience_;
  double best_val_acc_ = 0.0;
  std::int64_t best_epoch_ = -1;
  std::int64_t stale_epochs_ = 0;
};

class Trainer {
 public:
  Trainer(nn::Module& model, optim::Optimizer& optimizer,
          const data::Dataset& train_set, const data::Dataset& val_set,
          TrainConfig config);

  /// Maps the base cross-entropy loss to the actual optimized loss.
  std::function<autograd::Variable(const autograd::Variable&)> loss_transform;
  /// Runs between backward() and optimizer step().
  std::function<void()> after_backward;
  /// Runs after each optimizer step with the global step index.
  std::function<void(std::int64_t step)> after_step;
  /// Runs after each epoch's validation.
  std::function<void(const EpochStats&)> on_epoch_end;

  TrainResult run();

  /// Top-1 accuracy of `model` on `dataset` in eval mode (no tape).
  static double evaluate(nn::Module& model, const data::Dataset& dataset,
                         std::int64_t batch_size = 64);

  std::int64_t global_step() const { return global_step_; }

 private:
  /// Description of the first non-finite loss/grad value, or "" if clean.
  std::string detect_anomaly(double loss_value) const;
  /// Writes the training snapshot under a timed `checkpoint_save` span and,
  /// given `events`, its checkpoint record.
  void save_snapshot(const data::DataLoader& loader, std::int64_t epoch,
                     bool in_epoch, double loss_sum, double acc_sum,
                     std::int64_t batches, const TrainResult& result,
                     const EarlyStopper& stopper,
                     obs::EventStream* events) const;

  nn::Module& model_;
  optim::Optimizer& optimizer_;
  const data::Dataset& train_set_;
  const data::Dataset& val_set_;
  TrainConfig options_;
  std::vector<nn::Parameter*> params_;
  std::int64_t global_step_ = 0;
};

}  // namespace dropback::train
