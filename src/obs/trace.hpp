// Span tracing: the one scope-timing primitive, with two views.
//
//   void worker() {
//     DROPBACK_TRACE_SPAN("run_batch");
//     ...
//   }
//
// A closing span lands in two places on its own thread:
//
//   * the span ring — the span itself (trace id, parent, start, duration),
//     exported as Chrome trace JSON (--trace-out, Perfetto, `metrics_tool
//     trace`). It answers the per-request question: for *this* request or
//     step, how much of its latency was queue wait vs batch formation vs
//     variant regen vs kernel exec. Every span carries a trace id
//     propagated across thread boundaries (client -> queue -> worker ->
//     kernel pool), so one request's spans reassemble into a tree no matter
//     how many threads touched it.
//   * the span totals — a tree keyed by label path ("step/forward/matmul")
//     holding calls and total nanoseconds, merged across threads by
//     collect_profile() (obs/profiler.hpp, --profile). It answers "which
//     scope is hot across the run" and stays exact however often the ring
//     wrapped.
//
// Design:
//
//   * Hot path: no locks, and no allocation once a label path has been
//     seen. Recording a span is a relaxed fetch-add for its id, one clock
//     read at each end, a child lookup in the thread's totals tree, a ring
//     slot write and a release cursor store. When the ring wraps, the oldest spans are
//     overwritten and counted as dropped (TraceSnapshot::dropped), never
//     blocking the writer; the totals do not wrap.
//   * TSan-clean: each ring has exactly one writer (its owning thread).
//     TraceCollector and collect_profile() read at quiescence (after
//     stop()/join or a pool dispatch returned); a snapshot taken mid-flight
//     may split a trace.
//   * One clock read per span end, in nanoseconds, from the injectable
//     util::ClockSource (set_trace_clock). The ring keeps microseconds
//     derived from it, so tests export byte-deterministic traces under a
//     ManualClock; the totals keep nanoseconds. Raw steady_clock reads are
//     banned outside util/ by lint rule R9 for exactly this reason.
//   * Runtime-gated (tracing_enabled(), default off: one relaxed load per
//     site, and no clock read unless the site asks for its duration).
//     tests/obs_equivalence_test.cpp proves spans on/off is bitwise
//     invisible to trained weights, checkpoint bytes, and served outputs.
//
// Context propagation contract: a thread's current TraceContext is thread
// local. Whoever crosses a thread boundary carries the context explicitly —
// serve::Request ferries it from submit() through the queue and batcher to
// the worker, and util::ThreadPool::run() hands the caller's context to its
// pool workers — and the receiving thread adopts it with a
// ScopedTraceContext for the duration of the borrowed work.
//
// Export: TraceCollector::export_json() emits Chrome trace-event JSON
// ({"traceEvents":[{"name","cat","ph":"X","ts","dur","pid","tid","args"}]}),
// loadable directly in Perfetto / chrome://tracing; `metrics_tool trace`
// computes per-request critical paths from the same file
// (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/steady_clock.hpp"

namespace dropback::obs {

/// Identifies the trace (request/step) a thread is currently working for.
/// trace_id == 0 means "no active trace"; span_id is the innermost open
/// span (0 at the root) and becomes the parent of new spans.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

/// One completed span as seen by the collector/exporter.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root of its trace
  std::string name;
  int tid = 0;  ///< stable per-thread id (registration order)
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
};

/// collect() output: spans across all threads plus how many were lost to
/// ring wraparound since the last reset_trace().
struct TraceSnapshot {
  std::vector<SpanRecord> spans;
  std::uint64_t dropped = 0;
};

/// Clock behind every span timestamp. Null restores the production steady
/// clock. Affects spans started after the call; set it before enabling.
void set_trace_clock(util::ClockSource* clock);
util::ClockSource& trace_clock();

/// Ring capacity (spans per thread) applied to rings created or reset after
/// the call; reset_trace() re-applies it to existing rings. Default 4096.
void set_trace_ring_capacity(std::size_t spans_per_thread);

/// Drops every thread's recorded spans, dropped-span counts and span
/// totals, and resizes the rings to the current capacity. Call at
/// quiescence.
void reset_trace();

/// One label path of a thread's span totals. `parent` indexes the same
/// vector and is always lower; entry 0 is the unnamed root.
struct SpanTotal {
  const char* name = "";
  int parent = -1;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
};

/// Reads spans out of every thread's ring (oldest surviving first per
/// thread) and aggregates the dropped counts. Rings are single-writer and
/// the collector takes no lock on them, so call at quiescence — after
/// stop()/join established a happens-before with every writer.
class TraceCollector {
 public:
  static TraceSnapshot collect();
  /// Every thread's span totals since the last reset_trace(), one vector
  /// per thread — the input of collect_profile().
  static std::vector<std::vector<SpanTotal>> totals();
  /// Chrome trace-event / Perfetto JSON for a snapshot. Events are complete
  /// ("ph":"X") spans sorted by (ts, -dur, span_id) so parents precede
  /// children; args carry trace/span/parent ids. A trailing instant event
  /// reports dropped spans when any were lost.
  static std::string export_json(const TraceSnapshot& snapshot);
  static std::string export_json();  ///< collect() + export.
};

/// Parses export_json() output (or any Chrome trace JSON whose "X" events
/// carry our args) back into records — the `metrics_tool trace` reader.
/// Throws std::runtime_error on malformed input. Non-"X" events are skipped.
std::vector<SpanRecord> parse_chrome_trace(const std::string& text);

/// Runtime master switch; default off. Off costs one relaxed atomic load
/// per site. Toggling does not clear recorded spans.
bool tracing_enabled();
void set_tracing_enabled(bool enabled);

/// The calling thread's current context (copy; cheap).
TraceContext current_trace_context();

/// Fresh root context for a new request/step when tracing is enabled;
/// {0, 0} when disabled. Does not change the calling thread's context —
/// adopt it with ScopedTraceContext or carry it in the request.
TraceContext begin_trace();

/// Adopts `ctx` as the calling thread's context for the guard's lifetime —
/// the receiving side of every cross-thread handoff.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// Records an externally-timed span under `ctx` (e.g. a queue wait whose
/// endpoints were stamped on different threads). `name` must be a string
/// literal. It counts in the calling thread's span totals under its
/// innermost open span. No-op when tracing is disabled or ctx.trace_id == 0.
void record_span(const char* name, const TraceContext& ctx,
                 std::int64_t start_us, std::int64_t end_us);

/// RAII span under the thread's current context: on close it is written
/// to the thread's ring and added to its span totals. `name` must be a
/// string literal (stored by pointer until collection). Inert when tracing
/// is disabled at entry, unless `elapsed_ns` is given: then the span reads
/// trace_clock() once at each end, traced or not, and on close stores
/// end - start in *elapsed_ns.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::int64_t* elapsed_ns = nullptr);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void* ring_ = nullptr;  // ThreadRing*, nullptr when disabled at entry
  const char* name_ = nullptr;
  std::int64_t* elapsed_ns_ = nullptr;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_ = 0;
};

/// DROPBACK_TRACE_SPAN("label") opens a span to the end of the scope;
/// DROPBACK_TRACE_SPAN("label", &ns) also stores its duration in `ns`.
#define DROPBACK_TRACE_CONCAT2(a, b) a##b
#define DROPBACK_TRACE_CONCAT(a, b) DROPBACK_TRACE_CONCAT2(a, b)
#define DROPBACK_TRACE_SPAN(...)                     \
  ::dropback::obs::TraceSpan DROPBACK_TRACE_CONCAT( \
      dropback_trace_span_, __LINE__)(__VA_ARGS__)

}  // namespace dropback::obs
