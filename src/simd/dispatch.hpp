// Runtime SIMD dispatch (docs/SIMD.md).
//
// The library compiles one translation unit per vector target (SSE4.2,
// AVX2, AVX-512, NEON — see src/CMakeLists.txt for the per-file -m flags)
// plus the scalar reference, and picks one kernel table at runtime:
//
//   * by default the best target the CPU supports (CPUID via
//     __builtin_cpu_supports on x86-64; NEON is baseline on aarch64);
//   * overridable with DROPBACK_SIMD=scalar|sse4|avx2|avx512|neon|auto in
//     the environment or --simd=... on tool command lines.
//
// Because every target is bitwise identical to the scalar reference (the
// determinism contract in simd/kernels.hpp), the choice of target never
// changes a single output bit — only throughput. Golden tests therefore
// hold across hosts with different vector extensions.
#pragma once

#include <string>
#include <vector>

#include "simd/kernels.hpp"

namespace dropback::util {
class Flags;
}

namespace dropback::simd {

enum class Target : int {
  kScalar = 0,
  kSse4 = 1,
  kAvx2 = 2,
  kAvx512 = 3,
  kNeon = 4,
};

/// Stable lowercase name: "scalar", "sse4", "avx2", "avx512", "neon".
const char* target_name(Target t);

/// Parses a target name (as accepted by DROPBACK_SIMD, excluding "auto").
/// Returns false on unknown names.
bool parse_target(const std::string& name, Target* out);

/// True when `t` was compiled into this binary AND the running CPU supports
/// it. kScalar is always supported.
bool target_supported(Target t);

/// The widest supported target on this host (what "auto" resolves to).
Target best_target();

/// All supported targets, ascending, kScalar first. The conformance suite
/// iterates this list.
std::vector<Target> available_targets();

/// The active target. First call resolves DROPBACK_SIMD from the
/// environment ("auto"/unset picks best_target(); unknown or unsupported
/// values throw). Thread-safe.
Target active_target();

/// Forces the active target (test/bench hook). Throws if unsupported.
void set_target(Target t);

/// Kernel table for an explicit target (must be supported).
const Kernels& kernels_for(Target t);

/// Kernel table for the active target — the one call sites use.
inline const Kernels& kernels() { return kernels_for(active_target()); }

/// Applies a --simd=NAME flag (util::Flags also surfaces DROPBACK_SIMD).
/// No-op when the flag is absent.
void configure_simd(const util::Flags& flags);

/// The spin-wait hint (x86 `pause`, ARM `yield`) for a busy-wait loop such
/// as the thread pool's: it lets a sibling hyperthread run and costs no
/// memory traffic. A no-op on other targets.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield");
#endif
}

}  // namespace dropback::simd
