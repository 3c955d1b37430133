#include "core/reference_algorithm.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "util/check.hpp"

namespace dropback::core {

ReferenceState make_reference_state(
    const std::vector<nn::Parameter*>& params) {
  ReferenceState state;
  for (nn::Parameter* p : params) {
    DROPBACK_CHECK(p != nullptr, << "make_reference_state: null param");
    const float* w = p->var.value().data();
    state.initial_weights.emplace_back(w, w + p->numel());
  }
  return state;
}

void reference_dropback_step(const std::vector<nn::Parameter*>& params,
                             ReferenceState& state, float lr, std::int64_t k,
                             bool freeze_now) {
  DROPBACK_CHECK(params.size() == state.initial_weights.size(),
                 << "reference step: state mismatch");
  // Candidate update W' = W - lr * g, computed for every weight.
  std::vector<std::vector<float>> candidate(params.size());
  std::int64_t total = 0;
  for (std::size_t p = 0; p < params.size(); ++p) {
    const float* w = params[p]->var.value().data();
    const float* g =
        params[p]->var.has_grad() ? params[p]->var.grad().data() : nullptr;
    candidate[p].resize(static_cast<std::size_t>(params[p]->numel()));
    for (std::int64_t i = 0; i < params[p]->numel(); ++i) {
      candidate[p][static_cast<std::size_t>(i)] =
          g ? w[i] - lr * g[i] : w[i];
    }
    total += params[p]->numel();
  }

  std::vector<std::vector<std::uint8_t>> mask;
  if (state.frozen) {
    mask = state.frozen_mask;
  } else {
    // S = sort(T u U) over accumulated gradients |W' - W(0)| (for untracked
    // weights, W = W(0), so this is exactly |alpha * grad| — the U term).
    struct Scored {
      float score;
      std::size_t param;
      std::int64_t index;
    };
    std::vector<Scored> scored;
    scored.reserve(static_cast<std::size_t>(total));
    for (std::size_t p = 0; p < params.size(); ++p) {
      for (std::int64_t i = 0; i < params[p]->numel(); ++i) {
        scored.push_back(
            {std::fabs(candidate[p][static_cast<std::size_t>(i)] -
                       state.initial_weights[p][static_cast<std::size_t>(i)]),
             p, i});
      }
    }
    // Full sort, descending score; ties by (param, index) ascending to
    // mirror the optimizer's deterministic tie-breaking.
    std::stable_sort(scored.begin(), scored.end(),
                     [](const Scored& a, const Scored& b) {
                       return a.score > b.score;
                     });
    mask.resize(params.size());
    for (std::size_t p = 0; p < params.size(); ++p) {
      mask[p].assign(static_cast<std::size_t>(params[p]->numel()), 0);
    }
    const std::int64_t keep = std::min<std::int64_t>(k, total);
    for (std::int64_t r = 0; r < keep; ++r) {
      mask[scored[static_cast<std::size_t>(r)].param]
          [static_cast<std::size_t>(
              scored[static_cast<std::size_t>(r)].index)] = 1;
    }
    if (freeze_now) {
      state.frozen = true;
      state.frozen_mask = mask;
    }
  }

  // W(t) = mask * W' + !mask * W(0).
  for (std::size_t p = 0; p < params.size(); ++p) {
    float* w = params[p]->var.value().data();
    for (std::int64_t i = 0; i < params[p]->numel(); ++i) {
      w[i] = mask[p][static_cast<std::size_t>(i)]
                 ? candidate[p][static_cast<std::size_t>(i)]
                 : state.initial_weights[p][static_cast<std::size_t>(i)];
    }
  }
}

std::vector<std::int64_t> reference_topk_heap(const std::vector<float>& scores,
                                              std::int64_t k) {
  struct Entry {
    float score;
    std::int64_t idx;
  };
  // a beats b iff its score is higher, or equal with a lower index.
  auto beats = [](const Entry& a, const Entry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.idx < b.idx;
  };
  // priority_queue top = "largest" under the comparator: the eviction
  // candidate, the entry every other retained entry beats.
  std::priority_queue<Entry, std::vector<Entry>, decltype(beats)> heap(beats);
  const auto n = static_cast<std::int64_t>(scores.size());
  for (std::int64_t i = 0; i < n; ++i) {
    const Entry e{scores[static_cast<std::size_t>(i)], i};
    if (static_cast<std::int64_t>(heap.size()) < k) {
      heap.push(e);
    } else if (!heap.empty() && beats(e, heap.top())) {
      heap.pop();
      heap.push(e);
    }
  }
  std::vector<std::int64_t> out;
  out.reserve(heap.size());
  while (!heap.empty()) {
    out.push_back(heap.top().idx);
    heap.pop();
  }
  return out;
}

}  // namespace dropback::core
