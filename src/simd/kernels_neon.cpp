// NEON backend: 4 float / 4 u32 lanes, baseline on aarch64. Compiled with
// -ffp-contract=off (src/CMakeLists.txt) — aarch64 compilers contract
// multiply-adds into fmla by default, which would break bitwise parity
// with the x86 scalar reference.
#include "simd/kernels.hpp"
#include "simd/kernels_impl.hpp"

#if defined(__aarch64__)

namespace dropback::simd {

namespace {
using B = vec::Neon;
}

const Kernels kNeonKernels = {
    "neon",
    &impl::gemm_acc<B>,
    &impl::regen_fill<B>,
    &impl::regen_pack<B>,
    &impl::score<B>,
    &impl::apply_masked<B>,
    &impl::update_tracked<B>,
    &impl::count_cmp<B>,
    &impl::compact_cmp<B>,
    &impl::band_gather<B>,
    &impl::remask<B>,
};

}  // namespace dropback::simd

#endif  // __aarch64__
