#include "simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <sstream>

#include "util/check.hpp"
#include "util/flags.hpp"

namespace dropback::simd {
namespace {

/// Active target, lazily resolved from DROPBACK_SIMD. -1 = unresolved.
std::atomic<int> g_target{-1};

bool compiled_in(Target t) {
  switch (t) {
    case Target::kScalar:
      return true;
    case Target::kSse4:
    case Target::kAvx2:
    case Target::kAvx512:
#if defined(__x86_64__)
      return true;
#else
      return false;
#endif
    case Target::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool cpu_supports(Target t) {
  switch (t) {
    case Target::kScalar:
      return true;
#if defined(__x86_64__)
    case Target::kSse4:
      return __builtin_cpu_supports("sse4.2") != 0;
    case Target::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Target::kAvx512:
      // The kernels use foundation and BW (the regen byte sum) instructions.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0;
#endif
#if defined(__aarch64__)
    case Target::kNeon:
      return true;  // NEON is baseline on aarch64.
#endif
    default:
      return false;
  }
}

std::string supported_list() {
  std::ostringstream os;
  const char* sep = "";
  for (Target t : available_targets()) {
    os << sep << target_name(t);
    sep = "|";
  }
  return os.str();
}

Target resolve_from_env() {
  const char* env = std::getenv("DROPBACK_SIMD");
  const std::string name = env == nullptr ? std::string() : std::string(env);
  if (name.empty() || name == "auto") return best_target();
  Target t = Target::kScalar;
  DROPBACK_CHECK(parse_target(name, &t),
                 << "DROPBACK_SIMD=" << name
                 << " is not a valid target (scalar|sse4|avx2|avx512|neon|"
                    "auto)");
  DROPBACK_CHECK(target_supported(t),
                 << "DROPBACK_SIMD=" << name
                 << " is not supported on this host (available: "
                 << supported_list() << ")");
  return t;
}

}  // namespace

const char* target_name(Target t) {
  switch (t) {
    case Target::kScalar:
      return "scalar";
    case Target::kSse4:
      return "sse4";
    case Target::kAvx2:
      return "avx2";
    case Target::kAvx512:
      return "avx512";
    case Target::kNeon:
      return "neon";
  }
  return "unknown";
}

bool parse_target(const std::string& name, Target* out) {
  if (name == "scalar") {
    *out = Target::kScalar;
  } else if (name == "sse4") {
    *out = Target::kSse4;
  } else if (name == "avx2") {
    *out = Target::kAvx2;
  } else if (name == "avx512") {
    *out = Target::kAvx512;
  } else if (name == "neon") {
    *out = Target::kNeon;
  } else {
    return false;
  }
  return true;
}

bool target_supported(Target t) { return compiled_in(t) && cpu_supports(t); }

Target best_target() {
  Target best = Target::kScalar;
  for (Target t : {Target::kSse4, Target::kAvx2, Target::kAvx512,
                   Target::kNeon}) {
    if (target_supported(t)) best = t;
  }
  return best;
}

std::vector<Target> available_targets() {
  std::vector<Target> out;
  for (Target t : {Target::kScalar, Target::kSse4, Target::kAvx2,
                   Target::kAvx512, Target::kNeon}) {
    if (target_supported(t)) out.push_back(t);
  }
  return out;
}

Target active_target() {
  int cur = g_target.load(std::memory_order_acquire);
  if (cur < 0) {
    const Target resolved = resolve_from_env();
    // First resolver wins; concurrent callers agree because resolution is a
    // pure function of the environment.
    g_target.compare_exchange_strong(cur, static_cast<int>(resolved),
                                     std::memory_order_acq_rel);
    cur = g_target.load(std::memory_order_acquire);
  }
  return static_cast<Target>(cur);
}

void set_target(Target t) {
  DROPBACK_CHECK(target_supported(t),
                 << "SIMD target " << target_name(t)
                 << " is not supported on this host (available: "
                 << supported_list() << ")");
  g_target.store(static_cast<int>(t), std::memory_order_release);
}

const Kernels& kernels_for(Target t) {
  switch (t) {
#if defined(__x86_64__)
    case Target::kSse4:
      if (cpu_supports(Target::kSse4)) return kSse4Kernels;
      break;
    case Target::kAvx2:
      if (cpu_supports(Target::kAvx2)) return kAvx2Kernels;
      break;
    case Target::kAvx512:
      if (cpu_supports(Target::kAvx512)) return kAvx512Kernels;
      break;
#endif
#if defined(__aarch64__)
    case Target::kNeon:
      return kNeonKernels;
#endif
    default:
      break;
  }
  return kScalarKernels;
}

void configure_simd(const util::Flags& flags) {
  const auto value = flags.get("simd");
  if (!value.has_value()) return;
  if (*value == "auto" || value->empty()) {
    set_target(best_target());
    return;
  }
  Target t = Target::kScalar;
  DROPBACK_CHECK(parse_target(*value, &t),
                 << "--simd=" << *value
                 << " is not a valid target (scalar|sse4|avx2|avx512|neon|"
                    "auto)");
  set_target(t);
}

}  // namespace dropback::simd
