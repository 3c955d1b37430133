#include "core/tracked_set.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>

#include "obs/profiler.hpp"
#include "rng/xorshift.hpp"
#include "simd/dispatch.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace dropback::core {

TrackedSet::TrackedSet(const ParamIndex& index) : index_(&index) {
  masks_.resize(index.num_params());
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    masks_[p].assign(static_cast<std::size_t>(index.param(p).numel()), 1);
  }
}

bool TrackedSet::is_tracked(std::int64_t global_index) const {
  if (all_tracked_) return true;
  const std::size_t p = index_->param_of(global_index);
  return masks_[p][static_cast<std::size_t>(global_index -
                                            index_->offset(p))] != 0;
}

std::uint8_t* TrackedSet::mask_of(std::size_t p) { return masks_[p].data(); }

const std::uint8_t* TrackedSet::mask_of(std::size_t p) const {
  return masks_[p].data();
}

std::int64_t TrackedSet::tracked_count() const {
  std::int64_t n = 0;
  for (const auto& mask : masks_) {
    for (std::uint8_t m : mask) n += m;
  }
  return n;
}

std::int64_t TrackedSet::tracked_count_in(std::size_t p) const {
  std::int64_t n = 0;
  for (std::uint8_t m : masks_[p]) n += m;
  return n;
}

namespace {

/// Emits the top-k of `scores[indices]` (higher score wins, lower index
/// breaks ties), given that `indices` is sorted ascending: first everything
/// strictly above the k-th-largest threshold lambda, then threshold-equal
/// entries in index order. The parallel two-pass variant funnels through
/// this, so it is tie-identical to topk_fullsort by construction.
std::vector<std::int64_t> select_with_threshold(
    const std::vector<float>& scores, const std::vector<std::int64_t>& indices,
    std::int64_t k) {
  std::vector<float> scratch;
  scratch.reserve(indices.size());
  for (std::int64_t g : indices) {
    scratch.push_back(scores[static_cast<std::size_t>(g)]);
  }
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   scratch.end(), std::greater<float>());
  const float lambda = scratch[static_cast<std::size_t>(k - 1)];
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(k));
  // First everything strictly above the threshold...
  for (std::int64_t g : indices) {
    if (scores[static_cast<std::size_t>(g)] > lambda) out.push_back(g);
  }
  // ...then fill the remaining slots with threshold-equal weights in index
  // order, so the mask is deterministic under ties.
  std::int64_t remaining = k - static_cast<std::int64_t>(out.size());
  for (std::size_t i = 0; i < indices.size() && remaining > 0; ++i) {
    if (scores[static_cast<std::size_t>(indices[i])] == lambda) {
      out.push_back(indices[i]);
      --remaining;
    }
  }
  return out;
}

/// Top-k selection by nth_element (Algorithm 1's sort, done in O(n)).
/// The two threshold passes of select_with_threshold run on the SIMD
/// compact prepass kernel: strictly-above hits first, then threshold-equal
/// hits in ascending index order until the budget is exact — the same
/// entries, in the same tie-break order, as the scalar scan.
std::vector<std::int64_t> topk_fullsort(const std::vector<float>& scores,
                                        std::int64_t k) {
  const std::int64_t n = static_cast<std::int64_t>(scores.size());
  std::vector<float> scratch(scores);
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   scratch.end(), std::greater<float>());
  const float lambda = scratch[static_cast<std::size_t>(k - 1)];
  const simd::Kernels& kernels = simd::kernels();
  std::vector<std::int64_t> out(static_cast<std::size_t>(k));
  const std::int64_t above = kernels.compact_cmp(
      scores.data(), n, lambda, simd::Cmp::kGt, 0, k, out.data());
  const std::int64_t ties = kernels.compact_cmp(
      scores.data(), n, lambda, simd::Cmp::kEq, 0, k - above,
      out.data() + above);
  out.resize(static_cast<std::size_t>(above + ties));
  return out;
}

/// Parallel two-pass variant of topk_fullsort. Pass 1 shards the scores and
/// prunes each shard to its local top-k candidates with nth_element (any
/// global top-k weight is necessarily in its own shard's top-k, and a
/// shard's k-th largest can never exceed the global k-th largest, so the
/// candidate union is a superset of the winners including all threshold
/// ties). Pass 2 runs the exact serial selection over the pruned candidate
/// list — bit-identical output to topk_fullsort for every shard count.
std::vector<std::int64_t> topk_fullsort_parallel(
    const std::vector<float>& scores, std::int64_t k, int shards) {
  const std::int64_t n = static_cast<std::int64_t>(scores.size());
  std::vector<std::vector<std::int64_t>> shard_cands(
      static_cast<std::size_t>(shards));
  const simd::Kernels& kernels = simd::kernels();
  util::global_pool().run(shards, [&](int s) {
    const std::int64_t begin = n * s / shards;
    const std::int64_t end = n * (s + 1) / shards;
    auto& cand = shard_cands[static_cast<std::size_t>(s)];
    const std::int64_t len = end - begin;
    if (len <= k) {
      cand.resize(static_cast<std::size_t>(len));
      std::iota(cand.begin(), cand.end(), begin);
      return;
    }
    std::vector<float> scratch(scores.begin() + begin, scores.begin() + end);
    std::nth_element(scratch.begin(),
                     scratch.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     scratch.end(), std::greater<float>());
    const float local_lambda = scratch[static_cast<std::size_t>(k - 1)];
    // Count, size exactly, then compact global indices on the SIMD top-k
    // prepass kernels — ascending index order, like the scalar scan.
    const std::int64_t hits = kernels.count_cmp(scores.data() + begin, len,
                                                local_lambda, simd::Cmp::kGe);
    cand.resize(static_cast<std::size_t>(hits));
    kernels.compact_cmp(scores.data() + begin, len, local_lambda,
                        simd::Cmp::kGe, begin, hits, cand.data());
  });
  // Shards cover [0, n) in order, so the concatenation is index-sorted.
  std::vector<std::int64_t> candidates;
  for (const auto& cand : shard_cands) {
    candidates.insert(candidates.end(), cand.begin(), cand.end());
  }
  return select_with_threshold(scores, candidates, k);
}

/// Scores below this size select serially; the candidate pass needs enough
/// work per shard to amortize the dispatch.
constexpr std::int64_t kMinParallelSelect = 1 << 15;

std::vector<std::int64_t> topk_fullsort_auto(const std::vector<float>& scores,
                                             std::int64_t k) {
  const std::int64_t n = static_cast<std::int64_t>(scores.size());
  const int threads = util::num_threads();
  if (threads <= 1 || n < kMinParallelSelect) return topk_fullsort(scores, k);
  // Shards need to be meaningfully larger than k for the local nth_element
  // prune to discard anything.
  const std::int64_t max_useful = n / std::max<std::int64_t>(1, 2 * k);
  const int shards = static_cast<int>(std::clamp<std::int64_t>(
      max_useful, 1, static_cast<std::int64_t>(threads)));
  if (shards <= 1) return topk_fullsort(scores, k);
  return topk_fullsort_parallel(scores, k, shards);
}

}  // namespace

void TrackedSet::select(const std::vector<float>& scores, std::int64_t k) {
  DROPBACK_PROFILE_SCOPE("dropback_select");
  const std::int64_t n = static_cast<std::int64_t>(scores.size());
  DROPBACK_CHECK(n == index_->total(), << "select: scores size " << n
                                       << " != total " << index_->total());
  DROPBACK_CHECK(k > 0, << "select: k must be positive");
  if (k >= n) {
    // Budget covers everything; trivially all tracked. Churn counters stay
    // exact: everything untracked before is (re-)admitted now.
    std::int64_t grown = 0;
    for (auto& mask : masks_) {
      for (std::uint8_t m : mask) grown += m == 0 ? 1 : 0;
      std::fill(mask.begin(), mask.end(), 1);
    }
    last_churn_ = all_tracked_ ? 0 : grown;
    last_evictions_ = 0;
    last_readmitted_ = 0;
    last_lambda_ = -std::numeric_limits<float>::infinity();
    all_tracked_ = true;
    return;
  }

  const std::vector<std::int64_t> selected = topk_fullsort_auto(scores, k);

  // Rebuild masks, counting entries that were untracked before.
  std::vector<std::vector<std::uint8_t>> old_masks;
  const bool had_selection = !all_tracked_;
  if (had_selection) old_masks = masks_;
  for (auto& mask : masks_) std::fill(mask.begin(), mask.end(), 0);

  float lambda = std::numeric_limits<float>::infinity();
  std::int64_t churn = 0;
  for (std::int64_t g : selected) {
    const std::size_t p = index_->param_of(g);
    const std::size_t local = static_cast<std::size_t>(g - index_->offset(p));
    masks_[p][local] = 1;
    lambda = std::min(lambda, scores[static_cast<std::size_t>(g)]);
    if (!had_selection || old_masks[p][local] == 0) ++churn;
  }
  // Evictions: previously tracked weights that fell out of the set. With no
  // prior selection everything was implicitly tracked, so all non-selected
  // weights count as evicted.
  std::int64_t evictions = 0;
  if (had_selection) {
    for (std::size_t p = 0; p < masks_.size(); ++p) {
      for (std::size_t i = 0; i < masks_[p].size(); ++i) {
        if (old_masks[p][i] != 0 && masks_[p][i] == 0) ++evictions;
      }
    }
  } else {
    evictions = index_->total() - static_cast<std::int64_t>(selected.size());
  }
  last_churn_ = churn;
  last_evictions_ = evictions;
  last_readmitted_ = 0;
  last_lambda_ = lambda;
  all_tracked_ = false;
}

std::int64_t TrackedSet::readmit(std::uint64_t seed, std::int64_t step,
                                 float prob) {
  DROPBACK_PROFILE_SCOPE("dropback_readmit");
  DROPBACK_CHECK(prob >= 0.0F && prob <= 1.0F,
                 << "readmit: probability " << prob << " outside [0, 1]");
  last_readmitted_ = 0;
  if (all_tracked_ || prob <= 0.0F) return 0;
  // One stream per step; each weight draws at its global index, so the
  // decision is a pure function of (seed, step, index) — no thread or shard
  // order can change it (the same construction as InitSpec regeneration).
  const std::uint64_t stream =
      rng::splitmix64(seed ^ (0x5DB0000ULL + static_cast<std::uint64_t>(step)));
  std::int64_t total = 0;
  for (std::size_t p = 0; p < masks_.size(); ++p) {
    std::uint8_t* mask = masks_[p].data();
    const std::int64_t base = index_->offset(p);
    const std::int64_t n = index_->param(p).numel();
    std::atomic<std::int64_t> readmitted{0};
    util::parallel_for(4096, n, [&, mask, base](std::int64_t b,
                                                std::int64_t e) {
      std::int64_t local = 0;
      for (std::int64_t i = b; i < e; ++i) {
        if (mask[static_cast<std::size_t>(i)] != 0) continue;
        const auto g = static_cast<std::uint64_t>(base + i);
        if (rng::indexed_uniform(stream, g) < prob) {
          mask[static_cast<std::size_t>(i)] = 1;
          ++local;
        }
      }
      readmitted.fetch_add(local, std::memory_order_relaxed);
    });
    total += readmitted.load();
  }
  last_readmitted_ = total;
  return total;
}

void TrackedSet::restore(const std::vector<std::vector<std::uint8_t>>& masks,
                         bool all_tracked) {
  DROPBACK_CHECK(masks.size() == masks_.size(),
                 << "restore: " << masks.size() << " masks for "
                 << masks_.size() << " params");
  for (std::size_t p = 0; p < masks.size(); ++p) {
    DROPBACK_CHECK(masks[p].size() == masks_[p].size(),
                   << "restore: mask size mismatch at param " << p);
    masks_[p] = masks[p];
  }
  all_tracked_ = all_tracked;
  last_churn_ = 0;
  last_evictions_ = 0;
  last_readmitted_ = 0;
}

void TrackedSet::select_per_param(const std::vector<float>& scores,
                                  const std::vector<std::int64_t>& budgets) {
  DROPBACK_CHECK(static_cast<std::int64_t>(scores.size()) == index_->total(),
                 << "select_per_param: scores size mismatch");
  DROPBACK_CHECK(budgets.size() == index_->num_params(),
                 << "select_per_param: " << budgets.size() << " budgets for "
                 << index_->num_params() << " params");
  std::vector<std::vector<std::uint8_t>> old_masks;
  const bool had_selection = !all_tracked_;
  if (had_selection) old_masks = masks_;

  std::int64_t churn = 0;
  float lambda = std::numeric_limits<float>::infinity();
  bool everything_tracked = true;
  for (std::size_t p = 0; p < index_->num_params(); ++p) {
    const std::int64_t n = index_->param(p).numel();
    const std::int64_t k = budgets[p];
    DROPBACK_CHECK(k > 0, << "select_per_param: budget for param " << p);
    auto& mask = masks_[p];
    if (k >= n) {
      std::fill(mask.begin(), mask.end(), 1);
      continue;
    }
    everything_tracked = false;
    const std::vector<float> slice(
        scores.begin() + index_->offset(p),
        scores.begin() + index_->offset(p) + n);
    const auto selected = topk_fullsort(slice, k);
    std::fill(mask.begin(), mask.end(), 0);
    for (std::int64_t local : selected) {
      mask[static_cast<std::size_t>(local)] = 1;
      lambda = std::min(lambda, slice[static_cast<std::size_t>(local)]);
      if (!had_selection || old_masks[p][static_cast<std::size_t>(local)] == 0) {
        ++churn;
      }
    }
  }
  std::int64_t evictions = 0;
  if (had_selection) {
    for (std::size_t p = 0; p < masks_.size(); ++p) {
      for (std::size_t i = 0; i < masks_[p].size(); ++i) {
        if (old_masks[p][i] != 0 && masks_[p][i] == 0) ++evictions;
      }
    }
  } else if (!everything_tracked) {
    evictions = index_->total() - tracked_count();
  }
  last_churn_ = churn;
  last_evictions_ = evictions;
  last_readmitted_ = 0;
  last_lambda_ = lambda;
  all_tracked_ = everything_tracked;
}

}  // namespace dropback::core
