// BudgetSchedule — schedule-driven weight budgets (docs/SCHEDULES.md).
//
// The paper trains under a fixed budget k and freezes the tracked set after
// a few epochs. A BudgetSchedule generalizes that pair into a deterministic
// function of (step, epoch, steps_per_epoch) returning the *live* budget
// k_t, whether selection is frozen at that step, and a per-step re-admission
// probability for untracked weights. Three implementations ship:
//
//   * ConstantSchedule    — fixed k + optional freeze point: the paper's
//                           run, built by constant_budget().
//   * DenseSparseDense    — dense warmup -> shrink to k (optionally freeze)
//                           -> re-dense, after DSD retraining
//                           (arXiv:1607.04381; src/baselines/dsd.hpp is the
//                           mask-based baseline this schedule mirrors on the
//                           DropBack tracked set).
//   * StochasticDropBack  — fixed k plus random re-admission of untracked
//                           weights ("Stochastic Model Pruning via Weight
//                           Dropping Away and Back", arXiv:1812.02035). The
//                           re-admission stream is counter-based
//                           (rng::indexed_uniform over (seed, step, weight
//                           index)), so it is bitwise identical for every
//                           thread count.
//
// Determinism contract: a schedule is a pure function of the SchedulePoint —
// it holds no mutable state, so a killed-and-resumed run re-derives the
// exact budget/freeze/re-admission trajectory from the restored step
// counter. DropBackOptimizer serializes the schedule's canonical spec()
// string into its DBOS state so resuming under a different schedule fails
// loudly instead of silently diverging.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

namespace dropback::optim {

/// Budget larger than any model: "track everything" (dense phase sentinel).
inline constexpr std::int64_t kDenseBudget =
    std::numeric_limits<std::int64_t>::max();

/// Where the budget competes — one global top-k (the paper; Table 2 shows
/// the budget migrating toward later layers) or per-layer proportional
/// quotas (the bench_ablation_scope ablation).
enum class BudgetScope { kGlobal, kPerLayer };

/// The time coordinate a schedule is evaluated at.
struct SchedulePoint {
  std::int64_t step = 0;   ///< 0-based optimizer step
  std::int64_t epoch = 0;  ///< step / steps_per_epoch (0 when unknown)
  std::int64_t steps_per_epoch = 0;  ///< 0 = unknown (step-phrased only)
};

/// What the schedule decides for one step.
struct BudgetDecision {
  /// Live budget k_t; >= the parameter count (e.g. kDenseBudget) selects
  /// everything — the dense phases of DenseSparseDense.
  std::int64_t budget = 0;
  /// True: the tracked set is not re-selected this step (frozen phase).
  bool frozen = false;
  /// Probability that each untracked weight is re-admitted into the tracked
  /// set this step (0 = no stochastic re-admission).
  float readmit_prob = 0.0F;
  /// Seed of the deterministic per-step re-admission stream.
  std::uint64_t readmit_seed = 0;
};

class BudgetSchedule {
 public:
  virtual ~BudgetSchedule() = default;

  /// The decision for step `t`. Must be a pure function of `t` (bitwise
  /// identical for every thread count and across checkpoint/resume).
  virtual BudgetDecision at(const SchedulePoint& t) const = 0;

  /// The paper-style sparse budget k — what "DropBack 20k" reports and what
  /// the DBOS state's budget field stores. Must be positive.
  virtual std::int64_t base_budget() const = 0;

  /// Canonical spec string, re-parseable by parse_budget_schedule(). Stored
  /// in DBOS state (non-constant schedules) to validate resumes.
  virtual std::string spec() const = 0;

  /// True when decisions depend on the epoch, i.e. steps_per_epoch must be
  /// known before stepping (Trainer provides it; DROPBACK_CHECKed).
  virtual bool epoch_phrased() const = 0;

  /// True only for ConstantSchedule: the DBOS byte layout then stays
  /// identical to the pre-schedule format (no schedule-state extension).
  virtual bool is_constant() const { return false; }
};

/// Fixed budget k with an optional freeze point, phrased in steps or epochs.
/// Reproduces the historical fixed-k semantics exactly, including the
/// edges: freeze_after_steps=0 and freeze_epoch=0 both still run one
/// selection window (the first step / the first epoch) before freezing,
/// matching how the pre-schedule optimizer and session behaved.
class ConstantSchedule : public BudgetSchedule {
 public:
  /// freeze_after_steps/freeze_epoch: -1 = never freeze. At most one of the
  /// two may be set.
  explicit ConstantSchedule(std::int64_t budget,
                            std::int64_t freeze_after_steps = -1,
                            std::int64_t freeze_epoch = -1);

  BudgetDecision at(const SchedulePoint& t) const override;
  std::int64_t base_budget() const override { return budget_; }
  std::string spec() const override;
  bool epoch_phrased() const override { return freeze_epoch_ >= 0; }
  bool is_constant() const override { return true; }

 private:
  std::int64_t budget_;
  std::int64_t freeze_after_steps_;
  std::int64_t freeze_epoch_;
};

/// Dense warmup -> shrink to k (optionally freeze) -> re-dense:
///   epochs [0, dense)                : budget = kDenseBudget (track all)
///   epochs [dense, dense + sparse)   : budget = k; frozen once `freeze`
///                                      epochs into the sparse phase
///   epochs [dense + sparse, ...)     : budget = final (default dense again),
///                                      selection unfrozen
/// sparse = -1 never re-densifies (dense warmup + sparse-forever).
class DenseSparseDense : public BudgetSchedule {
 public:
  DenseSparseDense(std::int64_t budget, std::int64_t dense_epochs,
                   std::int64_t sparse_epochs = -1,
                   std::int64_t freeze_after_epochs = -1,
                   std::int64_t final_budget = kDenseBudget);

  BudgetDecision at(const SchedulePoint& t) const override;
  std::int64_t base_budget() const override { return budget_; }
  std::string spec() const override;
  bool epoch_phrased() const override { return true; }

 private:
  std::int64_t budget_;
  std::int64_t dense_epochs_;
  std::int64_t sparse_epochs_;        // -1 = rest of the run
  std::int64_t freeze_after_epochs_;  // offset into the sparse phase; -1 off
  std::int64_t final_budget_;
};

/// Fixed budget k plus per-step stochastic re-admission: each untracked
/// weight independently re-enters the tracked set with probability p, drawn
/// from the counter-based stream (seed, step, global weight index). The
/// live set may exceed k between selections; the next top-k re-enforces the
/// budget, so re-admitted weights get one accumulation window to compete.
class StochasticDropBack : public BudgetSchedule {
 public:
  StochasticDropBack(std::int64_t budget, float readmit_prob,
                     std::uint64_t seed = 0x5DB5DB,
                     std::int64_t freeze_after_steps = -1,
                     std::int64_t freeze_epoch = -1);

  BudgetDecision at(const SchedulePoint& t) const override;
  std::int64_t base_budget() const override { return budget_; }
  std::string spec() const override;
  bool epoch_phrased() const override { return freeze_epoch_ >= 0; }

 private:
  std::int64_t budget_;
  float readmit_prob_;
  std::uint64_t seed_;
  std::int64_t freeze_after_steps_;
  std::int64_t freeze_epoch_;
};

/// A parsed --budget-schedule spec: the schedule plus the budget scope
/// (the optional `scope=global|layer` key, kGlobal by default).
struct ParsedSchedule {
  std::shared_ptr<const BudgetSchedule> schedule;
  BudgetScope scope = BudgetScope::kGlobal;
};

/// Parses the --budget-schedule mini-language (grammar in docs/SCHEDULES.md):
///
///   const:budget=20000[,freeze_step=N|freeze_epoch=E][,scope=global|layer]
///   dsd:budget=20000,dense=2[,sparse=5][,freeze=2][,final=K][,scope=...]
///   stochastic:budget=20000,p=0.01[,seed=S][,freeze_step=N|freeze_epoch=E]
///               [,scope=...]
///
/// Malformed specs raise std::invalid_argument via DROPBACK_CHECK with a
/// message naming the offending token.
ParsedSchedule parse_budget_schedule(const std::string& spec);

/// ConstantSchedule shared_ptr conveniences for call sites.
std::shared_ptr<const BudgetSchedule> constant_budget(
    std::int64_t budget, std::int64_t freeze_after_steps = -1);
std::shared_ptr<const BudgetSchedule> constant_budget_epochs(
    std::int64_t budget, std::int64_t freeze_epoch);

}  // namespace dropback::optim
