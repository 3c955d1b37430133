// Literal transcription of the paper's Algorithm 1, used as an executable
// specification.
//
// The listing in the paper recomputes every accumulated gradient and sorts
// the full set each iteration:
//
//   T = { |sum_i alpha * df/dw|  for tracked w }
//   U = { |alpha * df/dw|        for untracked w }   (empty once frozen)
//   S = sort(T u U);  lambda = S_k;  mask = 1(S > lambda)
//   W(t) = mask * (W(t-1) - alpha * grad f) + !mask * W(0)
//
// DropBackOptimizer implements the practical equivalent (nth_element
// selection, no stored W(0)). `reference_dropback_step` below is the
// slow-but-obvious version; tests/reference_equivalence_test proves the two
// produce identical weights step for step. `reference_topk_heap` is the
// paper's other formulation, a priority queue of size k, which
// dropback_core_test checks TrackedSet::select against.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.hpp"

namespace dropback::core {

struct ReferenceState {
  /// W(0) stored explicitly (the reference does not regenerate).
  std::vector<std::vector<float>> initial_weights;
  /// Whether the tracked set is frozen, and the frozen mask if so.
  bool frozen = false;
  std::vector<std::vector<std::uint8_t>> frozen_mask;
};

/// Initializes the reference state from the current (initial) weights.
ReferenceState make_reference_state(const std::vector<nn::Parameter*>& params);

/// One Algorithm-1 step: consumes the gradients currently stored on the
/// parameters and applies the masked update in place.
/// `k` is the tracked budget; `freeze_now` freezes the set selected this
/// step for all subsequent calls.
void reference_dropback_step(const std::vector<nn::Parameter*>& params,
                             ReferenceState& state, float lr, std::int64_t k,
                             bool freeze_now = false);

/// Global indices of the top-k `scores` via a bounded min-heap: scan once,
/// keep the k best. Ties at the threshold keep the lowest-indexed weights,
/// the same order TrackedSet::select uses. Returns min(k, n) indices in no
/// particular order.
std::vector<std::int64_t> reference_topk_heap(const std::vector<float>& scores,
                                              std::int64_t k);

}  // namespace dropback::core
