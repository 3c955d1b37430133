#include "core/sparse_backward.hpp"

#include "obs/trace.hpp"
#include "tensor/matmul.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace dropback::core {

// Parallelization note (docs/PARALLELISM.md): all three kernels below
// partition by tracked-coordinate ranges. Coordinates are unique, so each
// output element (one gradient slot, one weight cell) is owned by exactly
// one shard, and each shard runs the serial inner loop in the serial order
// — results are bitwise identical for every thread count. Untracked
// coordinates never appear in `coords`, so no gradient is accumulated (or
// even touched) for them: the frozen-phase backward does O(k · batch) work
// regardless of how many threads share it.

namespace {
// Minimum coordinates per shard. The inner loops are a few ops per
// coordinate (grad_w: 2·batch flops; apply: one FMA), so small ranges are
// cheaper inline than dispatched.
constexpr std::int64_t kCoordGrain = 512;
}  // namespace

std::vector<TrackedCoord> tracked_coords(const std::uint8_t* mask,
                                         std::int64_t out_features,
                                         std::int64_t in_features) {
  DROPBACK_TRACE_SPAN("tracked_coords");
  // Two-pass so the fill can run shard-parallel while keeping the exact
  // serial (row-major) coordinate order: count tracked entries per row,
  // prefix-sum into per-row output offsets, then fill rows independently.
  std::vector<std::int64_t> row_offsets(
      static_cast<std::size_t>(out_features) + 1, 0);
  util::parallel_for(
      /*grain=*/1, out_features, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t o = begin; o < end; ++o) {
          const std::uint8_t* row = mask + o * in_features;
          std::int64_t count = 0;
          for (std::int64_t i = 0; i < in_features; ++i) {
            count += row[i] ? 1 : 0;
          }
          row_offsets[static_cast<std::size_t>(o) + 1] = count;
        }
      });
  for (std::int64_t o = 0; o < out_features; ++o) {
    row_offsets[static_cast<std::size_t>(o) + 1] +=
        row_offsets[static_cast<std::size_t>(o)];
  }
  std::vector<TrackedCoord> coords(
      static_cast<std::size_t>(row_offsets[static_cast<std::size_t>(
          out_features)]));
  util::parallel_for(
      /*grain=*/1, out_features, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t o = begin; o < end; ++o) {
          const std::uint8_t* row = mask + o * in_features;
          std::size_t at =
              static_cast<std::size_t>(row_offsets[static_cast<std::size_t>(o)]);
          for (std::int64_t i = 0; i < in_features; ++i) {
            if (row[i]) {
              coords[at++] = {static_cast<std::int32_t>(o),
                              static_cast<std::int32_t>(i)};
            }
          }
        }
      });
  return coords;
}

tensor::Tensor dense_linear_grad_w(const tensor::Tensor& x,
                                   const tensor::Tensor& gy) {
  DROPBACK_CHECK(x.ndim() == 2 && gy.ndim() == 2 && x.size(0) == gy.size(0),
                 << "dense_linear_grad_w: x "
                 << tensor::shape_str(x.shape()) << ", gy "
                 << tensor::shape_str(gy.shape()));
  return tensor::matmul_tn(gy, x);  // [out, in]
}

std::vector<float> sparse_linear_grad_w(
    const tensor::Tensor& x, const tensor::Tensor& gy,
    const std::vector<TrackedCoord>& coords) {
  DROPBACK_CHECK(x.ndim() == 2 && gy.ndim() == 2 && x.size(0) == gy.size(0),
                 << "sparse_linear_grad_w: batch mismatch");
  DROPBACK_TRACE_SPAN("sparse_grad_w");
  const std::int64_t batch = x.size(0);
  const std::int64_t in = x.size(1);
  const std::int64_t out = gy.size(1);
  const float* px = x.data();
  const float* pg = gy.data();
  std::vector<float> grads(coords.size());
  const std::int64_t n = static_cast<std::int64_t>(coords.size());
  util::parallel_for(
      kCoordGrain, n, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t c = begin; c < end; ++c) {
          const std::int64_t o = coords[static_cast<std::size_t>(c)].out;
          const std::int64_t i = coords[static_cast<std::size_t>(c)].in;
          DROPBACK_ASSERT(o >= 0 && o < out && i >= 0 && i < in,
                          << "sparse_linear_grad_w: coordinate out of range");
          double acc = 0.0;
          for (std::int64_t b = 0; b < batch; ++b) {
            acc += static_cast<double>(pg[b * out + o]) * px[b * in + i];
          }
          grads[static_cast<std::size_t>(c)] = static_cast<float>(acc);
        }
      });
  return grads;
}

void apply_sparse_update(tensor::Tensor& w,
                         const std::vector<TrackedCoord>& coords,
                         const std::vector<float>& grads, float lr) {
  DROPBACK_CHECK(coords.size() == grads.size(),
                 << "apply_sparse_update: size mismatch");
  DROPBACK_CHECK(w.ndim() == 2, << "apply_sparse_update: weight must be 2-D");
  DROPBACK_TRACE_SPAN("sparse_apply");
  const std::int64_t in = w.size(1);
  float* pw = w.data();
  const std::int64_t n = static_cast<std::int64_t>(coords.size());
  util::parallel_for(
      kCoordGrain, n, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t c = begin; c < end; ++c) {
          const auto& coord = coords[static_cast<std::size_t>(c)];
          pw[static_cast<std::int64_t>(coord.out) * in + coord.in] -=
              lr * grads[static_cast<std::size_t>(c)];
        }
      });
}

std::int64_t dense_grad_w_flops(std::int64_t batch, std::int64_t out,
                                std::int64_t in) {
  return 2 * batch * out * in;
}

std::int64_t sparse_grad_w_flops(std::int64_t batch, std::int64_t k) {
  return 2 * batch * k;
}

}  // namespace dropback::core
