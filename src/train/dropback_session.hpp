// DropBackSession — the one-object public API for downstream users.
//
// Bundles model + DropBack optimizer + trainer + schedule + export/resume
// into a single facade so an application can train under a weight budget
// without touching the lower layers:
//
//   train::DropBackSession::Options options;
//   options.budget_schedule = optim::constant_budget(20000);
//   train::DropBackSession session(model, options);
//   session.fit(train_set, val_set);
//   session.export_compressed("model.dbsw");
//
// Lower-level control (custom loops, analysis hooks) remains available via
// the underlying pieces; the session exposes them read-only.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "core/dropback_optimizer.hpp"
#include "core/sparse_weight_store.hpp"
#include "data/dataset.hpp"
#include "energy/energy_model.hpp"
#include "nn/module.hpp"
#include "optim/budget_schedule.hpp"
#include "optim/lr_schedule.hpp"
#include "train/trainer.hpp"

namespace dropback::train {

class DropBackSession {
 public:
  struct Options {
    /// The weight budget (required): `optim::constant_budget(k)` for the
    /// paper's fixed-k run, `optim::constant_budget_epochs(k, e)` to freeze
    /// after epoch e, or any dynamic BudgetSchedule (docs/SCHEDULES.md).
    std::shared_ptr<const optim::BudgetSchedule> budget_schedule;
    float lr = 0.1F;
    /// lr decay factor applied every `lr_decay_epochs`; 1.0 disables.
    float lr_decay = 0.5F;
    std::int64_t lr_decay_epochs = 0;  ///< 0 = no schedule
    bool regenerate_untracked = true;
    bool track_energy = false;
    /// The generic training pipeline configuration — epochs, batch size,
    /// patience, data pipeline (shuffle/prefetch/transform), thread count,
    /// crash-safe checkpointing, anomaly policy, telemetry. Everything
    /// DropBack-agnostic lives here; the fields above are the DropBack
    /// specifics layered on top. `train.schedule` is replaced by the
    /// session's own StepDecay when lr_decay_epochs > 0.
    TrainConfig train = TrainConfig{}.with_epochs(20);
  };

  /// The session borrows `model`; it must outlive the session.
  DropBackSession(nn::Module& model, Options options);

  /// Trains on `train_set`, validating on `val_set`. May be called again to
  /// continue training (the optimizer state persists across calls).
  TrainResult fit(const data::Dataset& train_set,
                  const data::Dataset& val_set);

  /// Validation accuracy of the current weights.
  double evaluate(const data::Dataset& dataset) const;

  /// Exports the compressed model.
  core::SparseWeightStore compressed() const;
  void export_compressed(const std::string& path) const;

  /// Saves/restores the full training state (weights, init specs, optimizer
  /// masks) so a run can resume exactly after a restart, even into a model
  /// built with another seed. Stored in the checksummed "DBSS" container
  /// and written atomically; corrupt, truncated or over-long input raises
  /// util::IoError on load.
  void save_training_state(std::ostream& out) const;
  void save_training_state(const std::string& path) const;
  void load_training_state(std::istream& in);
  void load_training_state(const std::string& path);

  double compression_ratio() const { return optimizer_->compression_ratio(); }
  std::int64_t live_weights() const { return optimizer_->live_weights(); }
  bool frozen() const { return optimizer_->frozen(); }
  const energy::TrafficCounter& energy() const { return traffic_; }
  const core::DropBackOptimizer& optimizer() const { return *optimizer_; }

 private:
  nn::Module& model_;
  Options options_;
  std::vector<nn::Parameter*> params_;
  std::unique_ptr<core::DropBackOptimizer> optimizer_;
  std::unique_ptr<optim::StepDecay> schedule_;
  energy::TrafficCounter traffic_;
};

}  // namespace dropback::train
