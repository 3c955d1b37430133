#include "tensor/matmul.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "tensor/ops.hpp"
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

/// C[m, n] = A·B on gemm_acc, A(i, l) = a[i*a_rs + l*a_cs] and B[k, n]
/// row-major: a float chain per output, l ascending, zero A terms skipped.
/// Shards own C row ranges, so no chain is ever split.
Tensor acc_product(std::int64_t m, std::int64_t k, std::int64_t n,
                   const float* a, std::int64_t a_rs, std::int64_t a_cs,
                   const float* b) {
  Tensor c({m, n});
  float* pc = c.data();
  const simd::Kernels& kernels = simd::kernels();
  util::parallel_for(row_grain(k * n), m, [=, &kernels](std::int64_t i0,
                                                        std::int64_t i1) {
    kernels.gemm_acc(i1 - i0, n, k, a + i0 * a_rs, a_rs, a_cs, b, n,
                     pc + i0 * n, n);
  });
  return c;
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
  return acc_product(m, k, n, a.data(), k, 1, b.data());
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  DROPBACK_TRACE_SPAN("matmul_tn");
  DROPBACK_CHECK(a.ndim() == 2 && b.ndim() == 2, << "matmul_tn needs 2-D");
  const std::int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  DROPBACK_CHECK(b.size(0) == k, << "matmul_tn: inner dims " << k << " vs "
                                 << b.size(0));
  // gemm_acc reads Aᵀ in place (row stride 1, column stride m).
  return acc_product(m, k, n, a.data(), 1, m, b.data());
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  DROPBACK_TRACE_SPAN("matmul_nt");
  DROPBACK_CHECK(a.ndim() == 2 && b.ndim() == 2, << "matmul_nt needs 2-D");
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  DROPBACK_CHECK(b.size(1) == k, << "matmul_nt: inner dims " << k << " vs "
                                 << b.size(1));
  // A keeps the left operand's role, so a zero activation skips its term —
  // the Linear forward's ReLU and pixel zeros never reach the multiply.
  const Tensor bt = transpose2d(b);
  return acc_product(m, k, n, a.data(), k, 1, bt.data());
}

}  // namespace dropback::tensor
