#include "core/accumulated_gradients.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace dropback::core {

namespace {
// Scoring is a pure per-weight map (regen + |.|), so shards over the weight
// range are independent and the output is thread-count-invariant bit for
// bit. Grain keeps tiny bias vectors on the calling thread.
constexpr std::int64_t kScoreGrain = 4096;
}  // namespace

ParamIndex::ParamIndex(std::vector<nn::Parameter*> params)
    : params_(std::move(params)) {
  offsets_.reserve(params_.size() + 1);
  offsets_.push_back(0);
  for (nn::Parameter* p : params_) {
    DROPBACK_CHECK(p != nullptr, << "ParamIndex: null parameter");
    total_ += p->numel();
    offsets_.push_back(total_);
  }
}

std::size_t ParamIndex::param_of(std::int64_t g) const {
  DROPBACK_CHECK(g >= 0 && g < total_, << "param_of(" << g << ") of "
                                       << total_);
  // offsets_ is sorted; upper_bound-1 locates the containing parameter.
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), g);
  return static_cast<std::size_t>(std::distance(offsets_.begin(), it)) - 1;
}

void compute_scores(const ParamIndex& index, float lr,
                    std::vector<float>& scores) {
  DROPBACK_TRACE_SPAN("dropback_scores");
  scores.resize(static_cast<std::size_t>(index.total()));
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    nn::Parameter& param = index.param(p);
    const std::int64_t n = param.numel();
    float* out = scores.data() + index.offset(p);
    if (!param.prunable) {
      std::fill(out, out + n, std::numeric_limits<float>::infinity());
      continue;
    }
    const float* w = param.var.value().data();
    const float* g = param.var.has_grad() ? param.var.grad().data() : nullptr;
    const rng::InitSpec& init = param.init;
    // Fused regen + |w - lr*g - w0| on the SIMD score kernel. The kernel is
    // a pure per-index map (docs/SIMD.md), so sharding it keeps the output
    // thread-count-invariant bit for bit.
    const simd::RegenSpec spec = init.regen_spec();
    const simd::Kernels& kernels = simd::kernels();
    util::parallel_for(
        kScoreGrain, n, [=, &kernels](std::int64_t b, std::int64_t e) {
          kernels.score(w + b, g != nullptr ? g + b : nullptr, lr, spec,
                        static_cast<std::uint64_t>(b), e - b, out + b);
        });
  }
}

}  // namespace dropback::core
