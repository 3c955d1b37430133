// AVX2 backend: 8 float / 8 u32 lanes. Compiled with -mavx2
// -ffp-contract=off (src/CMakeLists.txt) — contract=off matters here
// because -mavx2 makes FMA contraction possible and FMA skips the
// per-element rounding step the scalar reference performs.
#include "simd/kernels.hpp"
#include "simd/kernels_impl.hpp"

#if defined(__x86_64__)

namespace dropback::simd {

namespace {
using B = vec::Avx2;
}

const Kernels kAvx2Kernels = {
    "avx2",
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

#endif  // __x86_64__
