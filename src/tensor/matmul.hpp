// Dense matrix multiplication kernels.
//
// Three entry points cover all of training's needs without materializing
// transposes:
//   matmul    : C = A   · B      (A[m,k], B[k,n])
//   matmul_tn : C = Aᵀ  · B      (A[k,m], B[k,n])   — weight gradients
//   matmul_nt : C = A   · Bᵀ     (A[m,k], B[n,k])   — forward passes
//
// matmul and matmul_tn run on the SIMD float-chain accumulate (gemm_acc:
// register tiles, exact zero skip, strided A); matmul_nt on the packed NT
// microkernel (gemm_nt: double accumulation per output). docs/SIMD.md has
// the per-output operation order each one keeps.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace dropback::tensor {

Tensor matmul(const Tensor& a, const Tensor& b);
Tensor matmul_tn(const Tensor& a, const Tensor& b);
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// B[n, k] (row-major) in the layout simd gemm_nt streams: ceil(n / W)
/// groups of W = simd::kPackWidth columns, packed[g*W*k + l*W + t] =
/// B[g*W + t][l], the last group zero-padded.
std::vector<float> pack_nt(const float* b, std::int64_t n, std::int64_t k);

}  // namespace dropback::tensor
