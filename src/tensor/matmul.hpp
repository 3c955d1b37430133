// Dense matrix multiplication kernels.
//
// Three entry points cover all of training's needs:
//   matmul    : C = A   · B      (A[m,k], B[k,n])
//   matmul_tn : C = Aᵀ  · B      (A[k,m], B[k,n])   — weight gradients
//   matmul_nt : C = A   · Bᵀ     (A[m,k], B[n,k])   — forward passes
//
// All three run on the SIMD float-chain accumulate (gemm_acc: register
// tiles, exact zero skip, strided A) with A in the role of the left
// operand: every output is a float chain from +0 over l ascending that
// skips the terms whose A factor is ±0. matmul_tn reads Aᵀ in place;
// matmul_nt copies Bᵀ once (tensor::transpose2d). docs/SIMD.md has the
// per-output order.
#pragma once

#include "tensor/tensor.hpp"

namespace dropback::tensor {

Tensor matmul(const Tensor& a, const Tensor& b);
Tensor matmul_tn(const Tensor& a, const Tensor& b);
Tensor matmul_nt(const Tensor& a, const Tensor& b);

}  // namespace dropback::tensor
