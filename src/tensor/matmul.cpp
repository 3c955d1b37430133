#include "tensor/matmul.hpp"

#include <algorithm>
#include <vector>

#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace dropback::tensor {

namespace {

/// Kernels below are parallelized by row panels of C: each shard owns a
/// contiguous range of output rows and runs the exact serial inner loops
/// over them, so every C element sees the same accumulation order as the
/// single-threaded code and the result is bitwise thread-count-invariant.
/// Shards only materialize once the whole product exceeds this many flops.
constexpr std::int64_t kMinParallelFlops = 1 << 16;

std::int64_t row_grain(std::int64_t flops_per_row) {
  return std::max<std::int64_t>(
      1, kMinParallelFlops / std::max<std::int64_t>(1, flops_per_row));
}

/// pack_nt of rows [0, n) into `packed`, padding included.
void pack_groups(const float* b, std::int64_t n, std::int64_t k,
                 float* packed) {
  constexpr std::int64_t W = simd::kPackWidth;
  for (std::int64_t g = 0; g * W < n; ++g) {
    float* group = packed + g * W * k;
    const std::int64_t width = std::min(W, n - g * W);
    for (std::int64_t t = 0; t < width; ++t) {
      const float* brow = b + (g * W + t) * k;
      for (std::int64_t l = 0; l < k; ++l) group[l * W + t] = brow[l];
    }
    for (std::int64_t t = width; t < W; ++t) {
      for (std::int64_t l = 0; l < k; ++l) group[l * W + t] = 0.0F;
    }
  }
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  DROPBACK_TRACE_SPAN("matmul");
  DROPBACK_CHECK(a.ndim() == 2 && b.ndim() == 2,
                 << "matmul needs 2-D operands, got " << shape_str(a.shape())
                 << " x " << shape_str(b.shape()));
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  DROPBACK_CHECK(b.size(0) == k, << "matmul: inner dims " << k << " vs "
                                 << b.size(0));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // C[i][j] = sum_l A[i][l] * B[l][j]: a float chain per output, l
  // ascending, zero A terms skipped — the gemm_acc contract. Shards own C
  // row ranges, so no chain is ever split.
  const simd::Kernels& kernels = simd::kernels();
  util::parallel_for(row_grain(k * n), m, [=, &kernels](std::int64_t i0,
                                                        std::int64_t i1) {
    kernels.gemm_acc(i1 - i0, n, k, pa + i0 * k, k, 1, pb, n, pc + i0 * n, n);
  });
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  DROPBACK_TRACE_SPAN("matmul_tn");
  DROPBACK_CHECK(a.ndim() == 2 && b.ndim() == 2, << "matmul_tn needs 2-D");
  const std::int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  DROPBACK_CHECK(b.size(0) == k, << "matmul_tn: inner dims " << k << " vs "
                                 << b.size(0));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // C[i][j] = sum_l A[l][i] * B[l][j]: gemm_acc reads Aᵀ in place (row
  // stride 1, column stride m), so no transpose is materialized.
  const simd::Kernels& kernels = simd::kernels();
  util::parallel_for(row_grain(k * n), m, [=, &kernels](std::int64_t i0,
                                                        std::int64_t i1) {
    kernels.gemm_acc(i1 - i0, n, k, pa + i0, 1, m, pb, n, pc + i0 * n, n);
  });
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  DROPBACK_TRACE_SPAN("matmul_nt");
  DROPBACK_CHECK(a.ndim() == 2 && b.ndim() == 2, << "matmul_nt needs 2-D");
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  DROPBACK_CHECK(b.size(1) == k, << "matmul_nt: inner dims " << k << " vs "
                                 << b.size(1));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // C[i][j] = dot(A row i, B row j): both rows contiguous. Per element the
  // math is a float product accumulated into a double, l ascending — the
  // tile microkernel preserves exactly that sequence per output. B is
  // packed once so the microkernel streams one contiguous panel per column
  // tile.
  const std::vector<float> packed = pack_nt(pb, n, k);
  const float* pp = packed.data();
  // Shards own whole kTileRows-row tiles of C.
  constexpr std::int64_t R = simd::kTileRows;
  const simd::Kernels& kernels = simd::kernels();
  util::parallel_for(row_grain(R * k * n), (m + R - 1) / R,
                     [=, &kernels](std::int64_t t0, std::int64_t t1) {
                       const std::int64_t i0 = t0 * R;
                       const std::int64_t i1 = std::min(t1 * R, m);
                       kernels.gemm_nt(pa + i0 * k, i1 - i0, pp, k, n,
                                       pc + i0 * n);
                     });
  return c;
}

std::vector<float> pack_nt(const float* b, std::int64_t n, std::int64_t k) {
  constexpr std::int64_t W = simd::kPackWidth;
  const std::int64_t groups = (n + W - 1) / W;
  std::vector<float> packed(static_cast<std::size_t>(groups * W * k));
  float* pp = packed.data();
  // Packing is a pure copy — shard-order invisible.
  util::parallel_for(row_grain(W * k), groups, [=](std::int64_t g0,
                                                   std::int64_t g1) {
    pack_groups(b + g0 * W * k, std::min(n, g1 * W) - g0 * W, k,
                pp + g0 * W * k);
  });
  return packed;
}

}  // namespace dropback::tensor
