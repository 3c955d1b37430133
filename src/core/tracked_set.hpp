// Global top-k tracked-weight selection.
//
// Algorithm 1 sorts all accumulated gradients and keeps the k largest.
// select() finds lambda = S_k (the k-th largest score) and then writes the
// mask in one fused SIMD pass, so a step costs O(n) streaming passes plus
// work proportional to the band and the churn:
//
//   * Band select. Churn falls to a few dozen weights a step after the
//     first iterations (paper Fig. 2), so last step's lambda is a close
//     pivot. select() counts the scores above lambda_prev + w and at least
//     lambda_prev - w; when rank k falls inside that band it gathers the
//     band and runs nth_element on the band only. A miss says which side
//     lambda is on: the band moves just past the old one on that side, w
//     doubles, and it retries; after 12 misses it runs nth_element over all
//     scores. w starts at the last |lambda_t - lambda_{t-1}|; it is derived,
//     not configured. The full nth_element also runs when there is no
//     finite lambda_prev: the first selection, the first one after an
//     all-tracked state (k >= n), the first one after restore(), and the
//     one after a lambda of +inf. Every path finds the same lambda.
//   * Fused mask pass. mask = score > lambda, counting the weights that
//     entered and left and listing the evicted ones (evicted(), which the
//     optimizer's apply regenerates). The threshold ties then fill the
//     remaining slots in index order; their old bits are read first.
//
// Select is serial: the output is the same for every thread count
// (docs/PARALLELISM.md). The paper's priority-queue formulation lives in
// core/reference_algorithm as the oracle dropback_core_test and
// band_select_test compare against.
//
// The mask is one flat byte vector over the ParamIndex (nonzero =
// tracked); mask_of(p) is a view at the parameter's offset.
//
// Weights are ordered by (score descending, global index ascending): INDEX
// ORDER IS THE DETERMINISTIC TIE-BREAK. When several weights share the
// threshold score, the lowest-indexed ones are selected, so serial,
// parallel and the heap oracle produce the same mask for the same scores
// (locked down by dropback_core_test and parallel_equivalence_test).
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/accumulated_gradients.hpp"
#include "simd/kernels.hpp"

namespace dropback::core {

/// Raised by select() and select_per_param() when NaN scores leave the
/// k-th largest undefined. The tracked set is left exactly as it was.
class NanScoreError : public std::domain_error {
 public:
  using std::domain_error::domain_error;
};

/// The boolean tracked/untracked mask over all parameters, plus selection
/// statistics (churn, per-layer counts) consumed by the paper's figures.
class TrackedSet {
 public:
  /// Creates an all-tracked set (pre-first-selection state).
  explicit TrackedSet(const ParamIndex& index);

  /// Re-selects the tracked set as the top-k of `scores`.
  /// Ties at the threshold are broken by lower global index, and exactly
  /// min(k, n) weights are tracked. Records churn vs the previous selection.
  /// NaN scores are not ordered: when the search for lambda meets one (it
  /// returns a NaN lambda, or more than k - 1 scores above lambda, or fewer
  /// than k at or above it) select throws NanScoreError before it changes
  /// any state. The band search never compares a NaN, so there a NaN score
  /// ranks below every number. Detection costs no pass over the scores.
  void select(const std::vector<float>& scores, std::int64_t k);

  /// Per-parameter variant: selects the top budgets[p] scores *within* each
  /// parameter independently (the ablation against the paper's global
  /// competition; see optim::BudgetScope).
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
  /// Parameter p's slice of the flat mask.
  std::uint8_t* mask_of(std::size_t p) {
    return mask_.data() + index_->offset(p);
  }
  const std::uint8_t* mask_of(std::size_t p) const {
    return mask_.data() + index_->offset(p);
  }

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

  /// The threshold lambda of the last selection (k-th largest score);
  /// -inf after an all-tracked selection (k >= n). NaN means "no selection
  /// yet": a fresh set, and a restored one until its next select().
  float last_lambda() const { return last_lambda_; }

  /// Global indices, ascending, of the weights the last select() or
  /// select_per_param() moved from tracked to untracked. Empty when that
  /// selection started from the all-tracked state: then every unselected
  /// weight left, and callers sweep instead of walking a list.
  const std::vector<std::int64_t>& evicted() const { return evicted_; }

  /// Number of weights stochastically re-admitted by the last readmit()
  /// call (reset to 0 by select(), which re-enforces the budget).
  std::int64_t last_readmitted() const { return last_readmitted_; }

  const ParamIndex& index() const { return *index_; }

  /// Overwrites the flat mask wholesale (checkpoint restore); its size must
  /// be index().total(). Resets the selection statistics, and last_lambda()
  /// to NaN, so the next select() runs the full nth_element.
  void restore(std::vector<std::uint8_t> mask, bool all_tracked);

 private:
  /// lambda = the k-th largest of scores[0, n) (k < n), from the band
  /// around last_lambda_ when it is finite; *above = #(scores > lambda).
  float find_lambda(const float* scores, std::int64_t n, std::int64_t k,
                    std::int64_t* above);
  /// The first k - above threshold ties of scores[begin, begin + n), in
  /// index order. Throws NanScoreError when lambda and above cannot come
  /// from a NaN-free range: a NaN lambda, above >= k, or too few ties.
  std::vector<std::int64_t> threshold_ties(const float* scores,
                                           std::int64_t begin, std::int64_t n,
                                           std::int64_t k, float lambda,
                                           std::int64_t above) const;
  /// Tracks the top k of scores[begin, begin + n) given their threshold
  /// lambda, the count above it and the ties: the fused mask pass, then the
  /// ties. With a previous selection it appends the evictions to
  /// evicted(). Returns the range's churn and eviction counts.
  simd::MaskDelta write_mask(const float* scores, std::int64_t begin,
                             std::int64_t n, float lambda, std::int64_t above,
                             const std::vector<std::int64_t>& ties,
                             bool had_selection);

  static constexpr float kNoLambda = std::numeric_limits<float>::quiet_NaN();

  const ParamIndex* index_;
  std::vector<std::uint8_t> mask_;  // flat, over index_->total() weights
  bool all_tracked_ = true;
  std::int64_t last_churn_ = 0;
  std::int64_t last_evictions_ = 0;
  std::int64_t last_readmitted_ = 0;
  float last_lambda_ = kNoLambda;
  float lambda_drift_ = kNoLambda;  // |last lambda - the one before|
  std::vector<std::int64_t> evicted_;  // ascending global indices
};

}  // namespace dropback::core
