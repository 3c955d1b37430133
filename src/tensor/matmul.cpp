#include "tensor/matmul.hpp"

#include <algorithm>
#include <vector>

#include "obs/profiler.hpp"
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

/// One C row's accumulation over the A entries in [l0, l1), on the SIMD
/// axpy kernels: crow += A[l] * B-row(l) for every nonzero A[l], pairing
/// consecutive nonzero terms into axpy2 so the crow traffic halves. The
/// per-element operation order — ascending l, multiply then add — is
/// exactly the serial j-inner loop's, so the result is bitwise identical
/// for every dispatch target (docs/SIMD.md).
void accumulate_rows(const simd::Kernels& kernels, float* crow,
                     const float* avals, std::int64_t astride,
                     const float* pb, std::int64_t n, std::int64_t l0,
                     std::int64_t l1) {
  std::int64_t l = l0;
  while (l < l1) {
    const float a0 = avals[l * astride];
    // dbk-lint: allow(R5): exact-zero skip is the sparse fast path
    if (a0 == 0.0F) {
      ++l;
      continue;
    }
    std::int64_t l2 = l + 1;
    // dbk-lint: allow(R5): exact-zero skip is the sparse fast path
    while (l2 < l1 && avals[l2 * astride] == 0.0F) ++l2;
    if (l2 < l1) {
      kernels.axpy2(crow, pb + l * n, a0, pb + l2 * n, avals[l2 * astride],
                    n);
      l = l2 + 1;
    } else {
      kernels.axpy(crow, pb + l * n, a0, n);
      break;
    }
  }
}

/// Small/medium kernel: i-k-j ordering, streaming contiguous B rows.
void matmul_ikj(const float* pa, const float* pb, float* pc, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  const simd::Kernels& kernels = simd::kernels();
  util::parallel_for(row_grain(k * n), m, [=, &kernels](std::int64_t i0,
                                                        std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      accumulate_rows(kernels, pc + i * n, pa + i * k, 1, pb, n, 0, k);
    }
  });
}

/// Cache-blocked kernel for large operands: tiles over (i, l) so the C row
/// panel and the B row panel stay resident in L1/L2 across the inner loops.
/// The row-panel split happens on the outer i blocks, keeping each shard's
/// (i, l) tile walk identical to the serial one.
void matmul_blocked(const float* pa, const float* pb, float* pc,
                    std::int64_t m, std::int64_t k, std::int64_t n) {
  constexpr std::int64_t kBlockI = 32;
  constexpr std::int64_t kBlockL = 128;
  const std::int64_t iblocks = (m + kBlockI - 1) / kBlockI;
  const simd::Kernels& kernels = simd::kernels();
  util::parallel_for(
      row_grain(kBlockI * k * n), iblocks,
      [=, &kernels](std::int64_t b0, std::int64_t b1) {
        for (std::int64_t ib = b0; ib < b1; ++ib) {
          const std::int64_t i0 = ib * kBlockI;
          const std::int64_t i1 = std::min(i0 + kBlockI, m);
          for (std::int64_t l0 = 0; l0 < k; l0 += kBlockL) {
            const std::int64_t l1 = std::min(l0 + kBlockL, k);
            for (std::int64_t i = i0; i < i1; ++i) {
              accumulate_rows(kernels, pc + i * n, pa + i * k, 1, pb, n, l0,
                              l1);
            }
          }
        }
      });
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  DROPBACK_PROFILE_SCOPE("matmul");
  DROPBACK_CHECK(a.ndim() == 2 && b.ndim() == 2,
                 << "matmul needs 2-D operands, got " << shape_str(a.shape())
                 << " x " << shape_str(b.shape()));
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  DROPBACK_CHECK(b.size(0) == k, << "matmul: inner dims " << k << " vs "
                                 << b.size(0));
  Tensor c({m, n});
  // Blocked path once the B panel (k x n floats) overflows L2.
  if (k * n > 256 * 1024) {
    matmul_blocked(a.data(), b.data(), c.data(), m, k, n);
  } else {
    matmul_ikj(a.data(), b.data(), c.data(), m, k, n);
  }
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  DROPBACK_PROFILE_SCOPE("matmul_tn");
  DROPBACK_CHECK(a.ndim() == 2 && b.ndim() == 2, << "matmul_tn needs 2-D");
  const std::int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  DROPBACK_CHECK(b.size(0) == k, << "matmul_tn: inner dims " << k << " vs "
                                 << b.size(0));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // C[i][j] = sum_l A[l][i] * B[l][j]. Shards own C row ranges; the l loop
  // stays outermost within a shard, so per-element accumulation order (l
  // ascending) matches the serial kernel exactly; the j loop runs on the
  // SIMD axpy kernel.
  const simd::Kernels& kernels = simd::kernels();
  util::parallel_for(row_grain(k * n), m, [=, &kernels](std::int64_t i0,
                                                        std::int64_t i1) {
    for (std::int64_t l = 0; l < k; ++l) {
      const float* arow = pa + l * m;
      const float* brow = pb + l * n;
      for (std::int64_t i = i0; i < i1; ++i) {
        const float aval = arow[i];
        // dbk-lint: allow(R5): exact-zero skip is the sparse fast path
        if (aval == 0.0F) continue;
        kernels.axpy(pc + i * n, brow, aval, n);
      }
    }
  });
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  DROPBACK_PROFILE_SCOPE("matmul_nt");
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
  // tile microkernel preserves exactly that sequence per output.
  //
  // Pack B once into kPackWidth-column groups (packed[g*W*k + l*W + t] =
  // B[g*W+t][l]), the last group zero-padded, so the microkernel streams one
  // contiguous panel per column tile. Packing is a pure copy — shard-order
  // invisible.
  constexpr std::int64_t W = simd::kPackWidth;
  const std::int64_t groups = (n + W - 1) / W;
  std::vector<float> packed(static_cast<std::size_t>(groups * W * k));
  float* pp = packed.data();
  util::parallel_for(row_grain(W * k), groups, [=](std::int64_t g0,
                                                   std::int64_t g1) {
    for (std::int64_t g = g0; g < g1; ++g) {
      float* group = pp + g * W * k;
      const std::int64_t width = std::min(W, n - g * W);
      for (std::int64_t t = 0; t < width; ++t) {
        const float* brow = pb + (g * W + t) * k;
        for (std::int64_t l = 0; l < k; ++l) group[l * W + t] = brow[l];
      }
    }
  });
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

}  // namespace dropback::tensor
