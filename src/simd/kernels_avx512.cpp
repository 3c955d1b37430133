// AVX-512 backend: 16 float / 16 u32 lanes; the regen byte sum's 512-bit
// maddubs/madd are BW. Compiled with -mavx512f -mavx512bw -ffp-contract=off
// (src/CMakeLists.txt); dispatch requires both CPUID features.
#include "simd/kernels.hpp"
#include "simd/kernels_impl.hpp"

#if defined(__x86_64__)

namespace dropback::simd {

namespace {
using B = vec::Avx512;
}

const Kernels kAvx512Kernels = {
    "avx512",
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
