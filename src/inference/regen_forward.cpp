#include "inference/regen_forward.hpp"

#include <algorithm>

#include "simd/dispatch.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace dropback::inference {

namespace {

/// Materializes one contiguous flat range [first, first+count) of a record
/// into `buf`: regenerate the whole block on the SIMD regen kernel
/// (InitSpec::fill_range is bitwise value_at per index), then overwrite the
/// tracked positions from the sorted entry list with one advancing cursor.
/// Counts one read per tracked entry and one regen per untracked slot, like
/// the paper's regenerative traffic model.
void materialize_range(const core::SparseParamRecord& rec, std::int64_t first,
                       std::int64_t count, float* buf, std::uint64_t* reads,
                       std::uint64_t* regens) {
  rec.init.fill_range(static_cast<std::uint64_t>(first), buf,
                      static_cast<std::size_t>(count));
  const auto& entries = rec.entries;
  // Binary search for the first tracked entry >= first.
  std::size_t lo = 0, hi = entries.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (static_cast<std::int64_t>(entries[mid].first) < first) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  std::uint64_t tracked = 0;
  for (std::size_t e = lo;
       e < entries.size() &&
       static_cast<std::int64_t>(entries[e].first) < first + count;
       ++e) {
    buf[static_cast<std::int64_t>(entries[e].first) - first] =
        entries[e].second;
    ++tracked;
  }
  *reads += tracked;
  *regens += static_cast<std::uint64_t>(count) - tracked;
}

/// Output rows (Linear) or channels (conv) materialized at a time: one
/// full 4-vector gemm_acc tile on AVX-512.
constexpr std::int64_t kPanelRows = 64;

/// Writes the tracked entries of weight rows [o0, o0 + n) (row length k)
/// over their regenerated values in the transposed panel, row r at
/// panel[l * n + r]. Entries are sorted, so one cursor `e` walks them
/// across all panels and a row cursor replaces a division per entry.
/// Returns how many entries it wrote.
std::uint64_t overlay_panel(const core::SparseEntries<float>& entries,
                            std::size_t& e, std::int64_t o0, std::int64_t n,
                            std::int64_t k, float* panel) {
  const std::size_t begin = e;
  const auto panel_end = static_cast<std::uint64_t>((o0 + n) * k);
  std::int64_t r = 0;
  auto row_first = static_cast<std::uint64_t>(o0 * k);
  for (; e < entries.size() && entries[e].first < panel_end; ++e) {
    const std::uint64_t index = entries[e].first;
    while (index >= row_first + static_cast<std::uint64_t>(k)) {
      ++r;
      row_first += static_cast<std::uint64_t>(k);
    }
    const auto l = static_cast<std::int64_t>(index - row_first);
    panel[l * n + r] = entries[e].second;
  }
  return e - begin;
}

}  // namespace

RegenLinear::RegenLinear(const core::SparseParamRecord* weight,
                         const core::SparseParamRecord* bias)
    : weight_(weight), bias_(bias) {
  DROPBACK_CHECK(weight != nullptr && weight->shape.size() == 2,
                 << "RegenLinear: weight must be 2-D");
  out_ = weight->shape[0];
  in_ = weight->shape[1];
  if (bias) {
    DROPBACK_CHECK(tensor::numel_of(bias->shape) == out_,
                   << "RegenLinear: bias size mismatch");
  }
}

tensor::Tensor RegenLinear::forward(const tensor::Tensor& x,
                                    energy::TrafficCounter* traffic) const {
  DROPBACK_CHECK(x.ndim() == 2 && x.size(1) == in_,
                 << "RegenLinear: input " << tensor::shape_str(x.shape())
                 << " vs in_features " << in_);
  const std::int64_t m = x.size(0);
  tensor::Tensor y({m, out_});
  const float* px = x.data();
  float* py = y.data();
  std::uint64_t reads = 0, regens = 0;
  // Rows [o0, o0+n) of W are the contiguous flat range [o0*in, (o0+n)*in):
  // regenerate them transposed (the [in, n] panel gemm_acc takes as B),
  // overlay the tracked entries there and accumulate x · panel straight
  // into y's columns [o0, o0+n). Only one panel of weights is ever live —
  // the paper's budget is about persistent weight storage, not working
  // memory. x is A, as in matmul_nt, so each output is the same float
  // chain plus one float bias add: bitwise matmul_nt + add_row_vector.
  std::vector<float> bias;
  if (bias_) {
    bias.resize(static_cast<std::size_t>(out_));
    materialize_range(*bias_, 0, out_, bias.data(), &reads, &regens);
  }
  std::vector<float> panel(static_cast<std::size_t>(kPanelRows * in_));
  const simd::Kernels& kernels = simd::kernels();
  const simd::RegenSpec spec = weight_->init.regen_spec();
  std::size_t entry = 0;
  for (std::int64_t o0 = 0; o0 < out_; o0 += kPanelRows) {
    const std::int64_t n = std::min(kPanelRows, out_ - o0);
    kernels.regen_pack(spec, static_cast<std::uint64_t>(o0 * in_), n, in_,
                       panel.data());
    const std::uint64_t tracked =
        overlay_panel(weight_->entries, entry, o0, n, in_, panel.data());
    reads += tracked;
    regens += static_cast<std::uint64_t>(n * in_) - tracked;
    kernels.gemm_acc(m, n, in_, px, in_, 1, panel.data(), n, py + o0, out_);
  }
  for (std::int64_t b = 0; b < m && !bias.empty(); ++b) {
    for (std::int64_t j = 0; j < out_; ++j) {
      py[b * out_ + j] += bias[static_cast<std::size_t>(j)];
    }
  }
  if (traffic) {
    traffic->dram_reads += reads;
    traffic->regens += regens;
    traffic->float_ops += static_cast<std::uint64_t>(m) *
                          static_cast<std::uint64_t>(out_) *
                          static_cast<std::uint64_t>(in_) * 2;
  }
  return y;
}

std::int64_t RegenLinear::live_floats() const {
  std::int64_t n = static_cast<std::int64_t>(weight_->entries.size());
  if (bias_) n += static_cast<std::int64_t>(bias_->entries.size());
  return n;
}

RegenConv2d::RegenConv2d(const core::SparseParamRecord* weight,
                         const core::SparseParamRecord* bias,
                         tensor::Conv2dSpec spec)
    : weight_(weight), bias_(bias), spec_(spec) {
  DROPBACK_CHECK(weight != nullptr && weight->shape.size() == 4,
                 << "RegenConv2d: weight must be 4-D");
  DROPBACK_CHECK(weight->shape[2] == spec.kernel_h &&
                     weight->shape[3] == spec.kernel_w,
                 << "RegenConv2d: kernel mismatch");
}

tensor::Tensor RegenConv2d::forward(const tensor::Tensor& x,
                                    energy::TrafficCounter* traffic) const {
  DROPBACK_CHECK(x.ndim() == 4 && x.size(1) == weight_->shape[1],
                 << "RegenConv2d: input " << tensor::shape_str(x.shape()));
  const std::int64_t n = x.size(0);
  const std::int64_t cout = weight_->shape[0];
  const std::int64_t patch =
      weight_->shape[1] * spec_.kernel_h * spec_.kernel_w;
  const std::int64_t oh = spec_.out_h(x.size(2));
  const std::int64_t ow = spec_.out_w(x.size(3));
  const std::int64_t plane = oh * ow;
  // Each panel of output channels' filters is materialized and run through
  // tensor::conv2d; every output is its own chain there, so the result is
  // bitwise conv2d's with only one panel of weights live.
  tensor::Tensor y({n, cout, oh, ow});
  float* py = y.data();
  std::uint64_t reads = 0, regens = 0;
  for (std::int64_t o0 = 0; o0 < cout; o0 += kPanelRows) {
    const std::int64_t oc = std::min(kPanelRows, cout - o0);
    tensor::Tensor filters({oc, weight_->shape[1], spec_.kernel_h,
                            spec_.kernel_w});
    materialize_range(*weight_, o0 * patch, oc * patch, filters.data(),
                      &reads, &regens);
    tensor::Tensor panel_bias;
    if (bias_) {
      panel_bias = tensor::Tensor({oc});
      materialize_range(*bias_, o0, oc, panel_bias.data(), &reads, &regens);
    }
    const tensor::Tensor part = tensor::conv2d(x, filters, panel_bias, spec_);
    for (std::int64_t b = 0; b < n; ++b) {
      std::copy_n(part.data() + b * oc * plane, oc * plane,
                  py + (b * cout + o0) * plane);
    }
  }
  if (traffic) {
    traffic->dram_reads += reads;
    traffic->regens += regens;
    traffic->float_ops += static_cast<std::uint64_t>(n * plane) *
                          static_cast<std::uint64_t>(cout) *
                          static_cast<std::uint64_t>(patch) * 2;
  }
  return y;
}

std::int64_t RegenConv2d::live_floats() const {
  std::int64_t n = static_cast<std::int64_t>(weight_->entries.size());
  if (bias_) n += static_cast<std::int64_t>(bias_->entries.size());
  return n;
}

RegenMlp::RegenMlp(const core::SparseWeightStore& store) {
  DROPBACK_CHECK(store.num_params() % 2 == 0,
                 << "RegenMlp: store must hold (weight, bias) pairs, got "
                 << store.num_params() << " records");
  for (std::size_t p = 0; p < store.num_params(); p += 2) {
    const auto& w = store.record(p);
    const auto& b = store.record(p + 1);
    DROPBACK_CHECK(w.shape.size() == 2 && b.shape.size() == 1,
                   << "RegenMlp: unexpected record layout at " << p);
    layers_.emplace_back(&w, &b);
    if (p >= 2) {
      DROPBACK_CHECK(layers_[layers_.size() - 2].out_features() ==
                         layers_.back().in_features(),
                     << "RegenMlp: layer width mismatch at " << p);
    }
  }
}

tensor::Tensor RegenMlp::forward(const tensor::Tensor& x,
                                 energy::TrafficCounter* traffic) const {
  DROPBACK_CHECK(!layers_.empty(), << "RegenMlp: no layers");
  tensor::Tensor h =
      x.ndim() == 2 ? x : x.reshape({x.size(0), -1});
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    h = layers_[l].forward(h, traffic);
    if (l + 1 < layers_.size()) h = tensor::relu(h);
  }
  return h;
}

std::int64_t RegenMlp::live_floats() const {
  std::int64_t n = 0;
  for (const auto& layer : layers_) n += layer.live_floats();
  return n;
}

std::int64_t RegenMlp::dense_floats() const {
  std::int64_t n = 0;
  for (const auto& layer : layers_) {
    n += layer.in_features() * layer.out_features() + layer.out_features();
  }
  return n;
}

}  // namespace dropback::inference
