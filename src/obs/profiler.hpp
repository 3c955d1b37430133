// The profile view of span tracing: which scope is hot across the run.
//
// Every closing DROPBACK_TRACE_SPAN (obs/trace.hpp) adds its wall time to
// its thread's span totals, a tree keyed by label path. collect_profile()
// merges every thread's totals by path into one ProfileReport — the
// `threads` field of an entry counts how many distinct threads contributed
// to it. A pool worker's shard work nests under its "pool_shards" span,
// while the dispatching thread's span (e.g. "matmul") covers the full
// dispatch wall time, so per-kernel attribution needs no cross-thread
// bookkeeping. The totals do not wrap with the span ring, so the profile
// is exact however many spans the ring dropped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace dropback::obs {

/// The same as set_tracing_enabled() / reset_trace(); kept for callers
/// that predate the single span mechanism.
inline void set_profiling_enabled(bool enabled) {
  set_tracing_enabled(enabled);
}
inline void reset_profile() { reset_trace(); }

/// One merged scope in depth-first order.
struct ProfileEntry {
  std::string path;   ///< "/"-joined ancestry, e.g. "step/forward/matmul"
  std::string name;   ///< leaf label
  int depth = 0;      ///< 0 for roots
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  int threads = 0;    ///< distinct threads that entered this scope

  double total_us() const { return static_cast<double>(total_ns) / 1e3; }
  double total_ms() const { return static_cast<double>(total_ns) / 1e6; }
};

/// Merged view over every thread's span totals.
struct ProfileReport {
  std::vector<ProfileEntry> entries;  ///< DFS order, siblings by time desc

  /// Entry with this exact path, or nullptr.
  const ProfileEntry* find(const std::string& path) const;

  /// Fraction of `path`'s wall time attributed to its direct children
  /// (a training step keeps >= 90% of its wall time in named scopes).
  double child_coverage(const std::string& path) const;

  /// Column-aligned table (util::Table): scope, calls, total ms, % of
  /// parent, threads.
  std::string pretty() const;

  /// One kernel_timing_json line per entry (name = full path), the schema
  /// shared with bench_micro --speedup.
  std::string to_jsonl() const;
};

/// Merges all threads' span totals. Call at quiescence (e.g. after
/// Trainer::run returns), like TraceCollector::collect().
ProfileReport collect_profile();

}  // namespace dropback::obs
