// DropBackOptimizer — the paper's training algorithm (Algorithm 1).
//
// Each step, given freshly computed gradients:
//   1. Form the candidate update  w' = w - lr * g  for every weight.
//   2. Score every weight by its accumulated gradient |w' - w0|, where w0 is
//      regenerated from the parameter's InitSpec (never stored).
//   3. Select the global top-k as the tracked set (unless frozen).
//   4. Commit:  w = tracked ? w' : w0   — untracked weights are "forgotten"
//      and snap back to their regenerated initialization. Untracked
//      weights already sit at w0, so the commit writes only the tracked
//      weights and this step's evictions; it sweeps every weight on the
//      first selection from the all-tracked state and on the first step
//      after load_state (docs/ALGORITHM.md).
//
// The live budget k_t, the freeze point, and any stochastic re-admission are
// decided per step by the optim::BudgetSchedule in DropBackConfig::schedule
// (docs/SCHEDULES.md), the only way a budget reaches the optimizer.
// optim::constant_budget(k, freeze_after_steps) reproduces the paper exactly:
// fixed k, tracked set frozen after `freeze_after_steps` steps (paper §2.1,
// "Freeze the set of tracked weights after a few epochs"). Dynamic schedules
// (DenseSparseDense, StochasticDropBack) shrink *and grow* the set mid-run;
// growth is regen-consistent because untracked weights always sit at their
// regenerated init, so a re-admitted weight restarts its accumulated
// gradient from w0.
//
// The `regenerate_untracked=false` ablation zeroes untracked weights instead
// of regenerating them — the configuration the paper reports as collapsing
// from 60x to 2x achievable compression on MNIST.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/accumulated_gradients.hpp"
#include "core/tracked_set.hpp"
#include "energy/energy_model.hpp"
#include "optim/budget_schedule.hpp"
#include "optim/sgd.hpp"

namespace dropback::core {

struct DropBackConfig {
  /// The budget schedule driving k_t / freeze / re-admission per step;
  /// required. optim::constant_budget(k[, freeze_after_steps]) is the
  /// paper's fixed-k run ("DropBack 50k" = constant_budget(50000)).
  std::shared_ptr<const optim::BudgetSchedule> schedule;
  /// Steps per epoch, required (> 0) by epoch-phrased schedules. Trainer
  /// fills it in automatically via set_steps_per_epoch().
  std::int64_t steps_per_epoch = 0;
  /// Regenerate untracked weights to their init values (paper) or zero them
  /// (the ablation that mimics naive pruning-at-init).
  bool regenerate_untracked = true;
  /// Where weights compete for the budget. The paper uses one *global*
  /// competition — Table 2 shows the budget migrating toward later layers,
  /// which per-layer proportional quotas cannot do. kPerLayer exists as the
  /// ablation (bench_ablation_scope).
  optim::BudgetScope scope = optim::BudgetScope::kGlobal;
};

class DropBackOptimizer : public optim::Optimizer {
 public:
  DropBackOptimizer(std::vector<nn::Parameter*> params, float lr,
                    DropBackConfig config);

  // tracked_ holds a pointer into index_, so the object must stay put.
  DropBackOptimizer(const DropBackOptimizer&) = delete;
  DropBackOptimizer& operator=(const DropBackOptimizer&) = delete;

  /// One DropBack update from current gradients.
  void step() override;

  /// Number of steps taken so far.
  std::int64_t steps() const { return steps_; }

  bool frozen() const { return frozen_; }
  /// Force-freeze the current tracked set permanently (sticky — survives a
  /// schedule that would otherwise unfreeze, and round-trips through
  /// save_state/load_state).
  void freeze();

  /// Sets steps_per_epoch (epoch-phrased schedules need it; a pure
  /// step-phrased schedule ignores it). Trainer calls this before any
  /// resume or step.
  void set_steps_per_epoch(std::int64_t steps_per_epoch);

  const optim::BudgetSchedule& schedule() const { return *config_.schedule; }

  /// The live budget k_t of the most recent selection, clamped to the
  /// parameter count (dense phases report the full count). Before the first
  /// step this is the schedule's step-0 budget.
  std::int64_t current_budget() const { return current_budget_; }

  const DropBackConfig& config() const { return config_; }
  const TrackedSet& tracked() const { return tracked_; }
  const ParamIndex& param_index() const { return index_; }

  /// Weights that entered the tracked set on the most recent step (Fig. 2).
  std::int64_t last_churn() const { return tracked_.last_churn(); }

  /// Weights evicted from the tracked set on the most recent step.
  std::int64_t last_evictions() const { return tracked_.last_evictions(); }

  /// Quantiles (each q in [0,1]) of the most recent step's accumulated-
  /// gradient scores, over finite entries only (non-prunable parameters
  /// carry +inf sentinels). Returns empty if no selection has run yet;
  /// after freeze the scores — and hence the quantiles — stay at the last
  /// pre-freeze selection. Read-only: never perturbs training state.
  std::vector<double> score_quantiles(const std::vector<double>& qs) const;

  /// Live weights actually stored right now (<= budget after first step).
  std::int64_t live_weights() const;

  /// Compression vs storing every weight densely.
  double compression_ratio() const;

  /// Optional traffic accounting; pass nullptr to disable.
  void set_traffic_counter(energy::TrafficCounter* counter) {
    traffic_ = counter;
  }

  /// Serializes the optimizer's training state (step count, freeze flag,
  /// bit-packed tracked masks). Combined with an nn::checkpoint of the
  /// weights this resumes DropBack training exactly. The schedule's
  /// base_budget() and the total parameter count are stored and validated
  /// on load; corrupt or mismatched input raises util::IoError. With a
  /// non-constant schedule the canonical schedule spec is appended and
  /// validated on load, so a run killed mid-shrink or mid-re-dense can only
  /// resume under the same schedule (a ConstantSchedule appends nothing).
  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

 private:
  /// Step 4; `selected` says whether this step ran a selection (and so
  /// whether TrackedSet::evicted() belongs to it).
  void apply_update_and_mask(bool selected);
  /// Schedule decision at `step` (epoch derived from steps_per_epoch).
  optim::BudgetDecision decision_at(std::int64_t step) const;
  /// Recomputes the cached frozen flag for the *next* step.
  void refresh_frozen();

  DropBackConfig config_;
  ParamIndex index_;
  TrackedSet tracked_;
  std::vector<float> scores_;  // scratch reused across steps
  std::int64_t steps_ = 0;
  std::int64_t current_budget_ = 0;
  bool frozen_ = false;         // frozen for the upcoming step
  bool manual_frozen_ = false;  // sticky freeze() latch
  // The next apply writes every weight: set at construction, on load_state
  // and when a selection leaves the all-tracked state.
  bool full_sweep_ = true;
  energy::TrafficCounter* traffic_ = nullptr;
};

}  // namespace dropback::core
