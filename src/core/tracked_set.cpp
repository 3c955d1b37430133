#include "core/tracked_set.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "rng/xorshift.hpp"
#include "simd/dispatch.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace dropback::core {

namespace {

/// Band positions select() tries before it runs nth_element over all
/// scores. Each miss costs one SIMD count pass, and the band's width has
/// doubled 2^11 times by the last try.
constexpr int kBandAttempts = 12;

/// Smallest band width after a miss, relative to |lambda_prev|, so a zero
/// drift still widens.
constexpr float kMinRelativeWidth = 1.0F / 256.0F;

/// Elements per fused-mask-pass call (see write_mask).
constexpr std::int64_t kRemaskChunk = 4096;

/// The k-th largest of s[0, n), 0 < k <= n, by nth_element over a copy.
float kth_largest(const float* s, std::int64_t n, std::int64_t k) {
  std::vector<float> copy(s, s + n);
  std::nth_element(copy.begin(), copy.begin() + (k - 1), copy.end(),
                   std::greater<float>());
  return copy[static_cast<std::size_t>(k - 1)];
}

}  // namespace

TrackedSet::TrackedSet(const ParamIndex& index)
    : index_(&index), mask_(static_cast<std::size_t>(index.total()), 1) {}

bool TrackedSet::is_tracked(std::int64_t global_index) const {
  DROPBACK_CHECK(global_index >= 0 && global_index < index_->total(),
                 << "is_tracked(" << global_index << ") of "
                 << index_->total());
  return all_tracked_ || mask_[static_cast<std::size_t>(global_index)] != 0;
}

std::int64_t TrackedSet::tracked_count() const {
  return static_cast<std::int64_t>(
      std::count_if(mask_.begin(), mask_.end(),
                    [](std::uint8_t m) { return m != 0; }));
}

std::int64_t TrackedSet::tracked_count_in(std::size_t p) const {
  const std::uint8_t* mask = mask_of(p);
  return static_cast<std::int64_t>(
      std::count_if(mask, mask + index_->param(p).numel(),
                    [](std::uint8_t m) { return m != 0; }));
}

float TrackedSet::find_lambda(const float* scores, std::int64_t n,
                              std::int64_t k, std::int64_t* above) {
  const simd::Kernels& kernels = simd::kernels();
  const float prev = last_lambda_;
  if (!all_tracked_ && std::isfinite(prev)) {
    // lambda lies in the band [lo, hi] iff fewer than k scores exceed hi
    // and at least k reach lo; it is then the (k - above_hi)-th largest in
    // the band.
    float w = std::isfinite(lambda_drift_) ? lambda_drift_ : 0.0F;
    float lo = prev - w;
    float hi = prev + w;
    std::int64_t above_hi = kernels.count_cmp(scores, n, hi, simd::Cmp::kGt);
    std::int64_t from_lo = kernels.count_cmp(scores, n, lo, simd::Cmp::kGe);
    for (int attempt = 0; attempt < kBandAttempts; ++attempt) {
      if (above_hi < k && from_lo >= k) {
        std::vector<float> band(static_cast<std::size_t>(from_lo - above_hi));
        const std::int64_t size = kernels.band_gather(
            scores, n, lo, hi, from_lo - above_hi, band.data());
        const std::int64_t rank = k - above_hi - 1;
        std::nth_element(band.begin(), band.begin() + rank,
                         band.begin() + size, std::greater<float>());
        const float lambda = band[static_cast<std::size_t>(rank)];
        *above = above_hi + kernels.count_cmp(band.data(), size, lambda,
                                              simd::Cmp::kGt);
        return lambda;
      }
      // A miss says which side lambda is on. The next band starts just
      // past this one on that side, twice as wide, so one of its counts is
      // already known: #(s >= next float above hi) = #(s > hi), and
      // #(s > next float below lo) = #(s >= lo).
      w = std::max({2.0F * w, std::abs(prev) * kMinRelativeWidth,
                    std::numeric_limits<float>::min()});
      if (above_hi >= k) {
        lo = std::nextafter(hi, std::numeric_limits<float>::infinity());
        hi = lo + w;
        from_lo = above_hi;
        above_hi = kernels.count_cmp(scores, n, hi, simd::Cmp::kGt);
      } else {
        hi = std::nextafter(lo, -std::numeric_limits<float>::infinity());
        lo = hi - w;
        above_hi = from_lo;
        from_lo = kernels.count_cmp(scores, n, lo, simd::Cmp::kGe);
      }
    }
  }
  const float lambda = kth_largest(scores, n, k);
  *above = kernels.count_cmp(scores, n, lambda, simd::Cmp::kGt);
  return lambda;
}

std::vector<std::int64_t> TrackedSet::threshold_ties(
    const float* scores, std::int64_t begin, std::int64_t n, std::int64_t k,
    float lambda, std::int64_t above) const {
  // Over numbers, lambda = S_k has fewer than k scores above it and at
  // least k at or above it. A NaN breaks nth_element's ordering, and these
  // are the ways it shows in the search's own result.
  const auto reject = [&] {
    throw NanScoreError("select: NaN scores leave the k-th largest of " +
                        std::to_string(n) + " undefined (k " +
                        std::to_string(k) + ", lambda " +
                        std::to_string(lambda) + ", " + std::to_string(above) +
                        " above it)");
  };
  if (std::isnan(lambda) || above >= k) reject();
  std::vector<std::int64_t> ties(static_cast<std::size_t>(k - above));
  const std::int64_t found = simd::kernels().compact_cmp(
      scores + begin, n, lambda, simd::Cmp::kEq, begin, k - above,
      ties.data());
  if (found < k - above) reject();
  return ties;
}

simd::MaskDelta TrackedSet::write_mask(const float* scores, std::int64_t begin,
                                       std::int64_t n, float lambda,
                                       std::int64_t above,
                                       const std::vector<std::int64_t>& ties,
                                       bool had_selection) {
  const simd::Kernels& kernels = simd::kernels();
  // The ties' bits from before the fused pass overwrites them.
  std::vector<std::uint8_t> tie_was(ties.size());
  for (std::size_t j = 0; j < ties.size(); ++j) {
    tie_was[j] = mask_[static_cast<std::size_t>(ties[j])];
  }

  // The fused pass, a chunk at a time: a chunk evicts at most its own
  // length, so the list only ever holds the evictions plus one chunk.
  const std::size_t first_listed = evicted_.size();
  std::size_t listed = first_listed;
  simd::MaskDelta delta{0, 0};
  for (std::int64_t c = begin; c < begin + n; c += kRemaskChunk) {
    const std::int64_t len = std::min(kRemaskChunk, begin + n - c);
    const std::int64_t cap = had_selection ? len : 0;
    const std::size_t room = listed + static_cast<std::size_t>(cap);
    if (evicted_.size() < room) evicted_.resize(room);
    const simd::MaskDelta d =
        kernels.remask(scores + c, len, lambda, mask_.data() + c, c, cap,
                       evicted_.data() + listed);
    listed += static_cast<std::size_t>(std::min(d.left, cap));
    delta.entered += d.entered;
    delta.left += d.left;
  }
  evicted_.resize(listed);
  for (std::int64_t g : ties) mask_[static_cast<std::size_t>(g)] = 1;
  const auto selected = above + static_cast<std::int64_t>(ties.size());
  if (!had_selection) {
    // Everything was implicitly tracked: every selected weight counts as
    // entering and every other weight as evicted (none listed).
    return {selected, n - selected};
  }

  // A tie that was tracked before left in the fused pass and is back now:
  // no eviction after all, so it leaves the list.
  for (std::size_t j = 0; j < ties.size(); ++j) {
    if (tie_was[j] != 0) {
      --delta.left;
    } else {
      ++delta.entered;
    }
  }
  const auto is_tie = [&](std::int64_t g) {
    return std::binary_search(ties.begin(), ties.end(), g);
  };
  evicted_.erase(std::remove_if(evicted_.begin() + first_listed,
                                evicted_.end(), is_tie),
                 evicted_.end());
  return delta;
}

void TrackedSet::select(const std::vector<float>& scores, std::int64_t k) {
  DROPBACK_TRACE_SPAN("dropback_select");
  const std::int64_t n = static_cast<std::int64_t>(scores.size());
  DROPBACK_CHECK(n == index_->total(), << "select: scores size " << n
                                       << " != total " << index_->total());
  DROPBACK_CHECK(k > 0, << "select: k must be positive");
  if (k >= n) {
    // Budget covers everything; trivially all tracked. Churn counters stay
    // exact: everything untracked before is (re-)admitted now.
    const std::int64_t grown = n - tracked_count();
    std::fill(mask_.begin(), mask_.end(), 1);
    last_churn_ = all_tracked_ ? 0 : grown;
    last_evictions_ = 0;
    last_readmitted_ = 0;
    evicted_.clear();
    last_lambda_ = -std::numeric_limits<float>::infinity();
    lambda_drift_ = kNoLambda;
    all_tracked_ = true;
    return;
  }

  const bool had_selection = !all_tracked_;
  const float prev = last_lambda_;
  std::int64_t above = 0;
  const float lambda = find_lambda(scores.data(), n, k, &above);
  const std::vector<std::int64_t> ties =
      threshold_ties(scores.data(), 0, n, k, lambda, above);
  evicted_.clear();
  last_readmitted_ = 0;
  const simd::MaskDelta delta =
      write_mask(scores.data(), 0, n, lambda, above, ties, had_selection);
  last_churn_ = delta.entered;
  last_evictions_ = delta.left;
  lambda_drift_ = std::isfinite(prev) ? std::abs(lambda - prev) : kNoLambda;
  last_lambda_ = lambda;
  all_tracked_ = false;
}

std::int64_t TrackedSet::readmit(std::uint64_t seed, std::int64_t step,
                                 float prob) {
  DROPBACK_TRACE_SPAN("dropback_readmit");
  DROPBACK_CHECK(prob >= 0.0F && prob <= 1.0F,
                 << "readmit: probability " << prob << " outside [0, 1]");
  last_readmitted_ = 0;
  if (all_tracked_ || prob <= 0.0F) return 0;
  // One stream per step; each weight draws at its global index, so the
  // decision is a pure function of (seed, step, index) — no thread or shard
  // order can change it (the same construction as InitSpec regeneration).
  const std::uint64_t stream =
      rng::splitmix64(seed ^ (0x5DB0000ULL + static_cast<std::uint64_t>(step)));
  std::uint8_t* mask = mask_.data();
  std::atomic<std::int64_t> readmitted{0};
  util::parallel_for(4096, index_->total(), [&, mask](std::int64_t b,
                                                      std::int64_t e) {
    std::int64_t local = 0;
    for (std::int64_t g = b; g < e; ++g) {
      if (mask[static_cast<std::size_t>(g)] != 0) continue;
      if (rng::indexed_uniform(stream, static_cast<std::uint64_t>(g)) <
          prob) {
        mask[static_cast<std::size_t>(g)] = 1;
        ++local;
      }
    }
    readmitted.fetch_add(local, std::memory_order_relaxed);
  });
  last_readmitted_ = readmitted.load();
  return last_readmitted_;
}

void TrackedSet::restore(std::vector<std::uint8_t> mask, bool all_tracked) {
  DROPBACK_CHECK(static_cast<std::int64_t>(mask.size()) == index_->total(),
                 << "restore: mask of " << mask.size() << " entries for "
                 << index_->total() << " weights");
  for (std::uint8_t& m : mask) m = m != 0 ? 1 : 0;
  mask_ = std::move(mask);
  all_tracked_ = all_tracked;
  last_churn_ = 0;
  last_evictions_ = 0;
  last_readmitted_ = 0;
  last_lambda_ = kNoLambda;
  lambda_drift_ = kNoLambda;
  evicted_.clear();
}

void TrackedSet::select_per_param(const std::vector<float>& scores,
                                  const std::vector<std::int64_t>& budgets) {
  DROPBACK_CHECK(static_cast<std::int64_t>(scores.size()) == index_->total(),
                 << "select_per_param: scores size mismatch");
  DROPBACK_CHECK(budgets.size() == index_->num_params(),
                 << "select_per_param: " << budgets.size() << " budgets for "
                 << index_->num_params() << " params");
  const simd::Kernels& kernels = simd::kernels();
  const bool had_selection = !all_tracked_;

  // Every parameter's threshold first, so a NaN anywhere throws before any
  // mask changes.
  struct Threshold {
    float lambda;
    std::int64_t above;
    std::vector<std::int64_t> ties;
  };
  std::vector<Threshold> thresholds(index_->num_params());
  for (std::size_t p = 0; p < index_->num_params(); ++p) {
    const std::int64_t n = index_->param(p).numel();
    const std::int64_t k = budgets[p];
    DROPBACK_CHECK(k > 0, << "select_per_param: budget for param " << p);
    if (k >= n) continue;
    const std::int64_t begin = index_->offset(p);
    const float* slice = scores.data() + begin;
    Threshold& t = thresholds[p];
    t.lambda = kth_largest(slice, n, k);
    t.above = kernels.count_cmp(slice, n, t.lambda, simd::Cmp::kGt);
    t.ties = threshold_ties(scores.data(), begin, n, k, t.lambda, t.above);
  }

  evicted_.clear();
  std::int64_t churn = 0;
  std::int64_t evictions = 0;
  float lambda = std::numeric_limits<float>::infinity();
  bool everything_tracked = true;
  for (std::size_t p = 0; p < index_->num_params(); ++p) {
    const std::int64_t n = index_->param(p).numel();
    if (budgets[p] >= n) {
      std::fill(mask_of(p), mask_of(p) + n, 1);
      continue;
    }
    everything_tracked = false;
    const Threshold& t = thresholds[p];
    const simd::MaskDelta delta =
        write_mask(scores.data(), index_->offset(p), n, t.lambda, t.above,
                   t.ties, had_selection);
    lambda = std::min(lambda, t.lambda);
    churn += delta.entered;
    evictions += delta.left;
  }
  last_churn_ = churn;
  last_evictions_ = evictions;
  last_readmitted_ = 0;
  last_lambda_ = lambda;
  lambda_drift_ = kNoLambda;
  all_tracked_ = everything_tracked;
}

}  // namespace dropback::core
