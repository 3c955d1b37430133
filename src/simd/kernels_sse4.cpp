// SSE4.2 backend: 4 float / 4 u32 lanes. Compiled with -msse4.2
// -ffp-contract=off (src/CMakeLists.txt); only entered when
// __builtin_cpu_supports("sse4.2") holds.
#include "simd/kernels.hpp"
#include "simd/kernels_impl.hpp"

#if defined(__x86_64__)

namespace dropback::simd {

namespace {
using B = vec::Sse4;
}

const Kernels kSse4Kernels = {
    "sse4",
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
