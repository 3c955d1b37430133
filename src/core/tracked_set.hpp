// Global top-k tracked-weight selection.
//
// Algorithm 1 sorts all accumulated gradients and keeps the k largest.
// select() finds lambda = S_k (the k-th largest score) with
// std::nth_element, O(n), and switches to a parallel two-pass
// candidate-pruning variant on large score vectors; the result is bitwise
// identical for any thread count (see docs/PARALLELISM.md). The paper's
// priority-queue formulation lives in core/reference_algorithm as the
// oracle dropback_core_test compares against.
//
// Weights are ordered by (score descending, global index ascending): INDEX
// ORDER IS THE DETERMINISTIC TIE-BREAK. When several weights share the
// threshold score, the lowest-indexed ones are selected, so serial,
// parallel and the heap oracle produce the same mask for the same scores
// (locked down by dropback_core_test and parallel_equivalence_test).
#pragma once

#include <cstdint>
#include <vector>

#include "core/accumulated_gradients.hpp"

namespace dropback::core {

/// The boolean tracked/untracked mask over all parameters, plus selection
/// statistics (churn, per-layer counts) consumed by the paper's figures.
class TrackedSet {
 public:
  /// Creates an all-tracked set (pre-first-selection state).
  explicit TrackedSet(const ParamIndex& index);

  /// Re-selects the tracked set as the top-k of `scores`.
  /// Ties at the threshold are broken by lower global index, and exactly
  /// min(k, n) weights are tracked. Records churn vs the previous selection.
  void select(const std::vector<float>& scores, std::int64_t k);

  /// Per-parameter variant: selects the top budgets[p] scores *within* each
  /// parameter independently (the ablation against the paper's global
  /// competition; see DropBackConfig::BudgetScope).
  void select_per_param(const std::vector<float>& scores,
                        const std::vector<std::int64_t>& budgets);

  /// Stochastic re-admission (StochasticDropBack): every currently untracked
  /// weight independently re-enters the set with probability `prob`, drawn
  /// from the counter-based stream mixed from (seed, step, global index) —
  /// bitwise identical for every thread count, in any shard order. Returns
  /// the number of weights re-admitted (also last_readmitted()). The set may
  /// exceed the budget until the next select() re-enforces it; re-admitted
  /// weights still hold their regenerated init value, so growth is
  /// regen-consistent by construction.
  std::int64_t readmit(std::uint64_t seed, std::int64_t step, float prob);

  bool all_tracked() const { return all_tracked_; }
  bool is_tracked(std::int64_t global_index) const;
  std::uint8_t* mask_of(std::size_t p);
  const std::uint8_t* mask_of(std::size_t p) const;

  std::int64_t tracked_count() const;
  /// Tracked weights inside parameter ordinal p (Table 2's per-layer counts).
  std::int64_t tracked_count_in(std::size_t p) const;

  /// Number of weights that entered the set in the last select() call
  /// (equals the number evicted when k is unchanged) — Figure 2's series.
  std::int64_t last_churn() const { return last_churn_; }

  /// Number of weights that left the set in the last select() call (the
  /// other half of the churn telemetry; differs from last_churn() when the
  /// budget changed or the previous state was all-tracked).
  std::int64_t last_evictions() const { return last_evictions_; }

  /// The threshold lambda of the last selection (k-th largest score).
  float last_lambda() const { return last_lambda_; }

  /// Number of weights stochastically re-admitted by the last readmit()
  /// call (reset to 0 by select(), which re-enforces the budget).
  std::int64_t last_readmitted() const { return last_readmitted_; }

  const ParamIndex& index() const { return *index_; }

  /// Overwrites the masks wholesale (checkpoint restore). Mask sizes must
  /// match the parameter sizes exactly.
  void restore(const std::vector<std::vector<std::uint8_t>>& masks,
               bool all_tracked);

 private:
  const ParamIndex* index_;
  std::vector<std::vector<std::uint8_t>> masks_;  // per param
  bool all_tracked_ = true;
  std::int64_t last_churn_ = 0;
  std::int64_t last_evictions_ = 0;
  std::int64_t last_readmitted_ = 0;
  float last_lambda_ = 0.0F;
};

}  // namespace dropback::core
