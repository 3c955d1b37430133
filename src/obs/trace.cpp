#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"

namespace dropback::obs {

namespace {

constexpr std::size_t kDefaultRingCapacity = 4096;

std::atomic<util::ClockSource*> g_clock{nullptr};
std::atomic<std::size_t> g_ring_capacity{kDefaultRingCapacity};
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_trace_id{1};
std::atomic<std::uint64_t> g_next_span_id{1};

/// A completed span as stored on the hot path: string literal by pointer,
/// fixed size, trivially copyable into a ring slot.
struct RawSpan {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  const char* name = "";
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
};

/// One thread's span ring and span totals. Single writer (the owning
/// thread); the collector acquire-loads `cursor` and reads at quiescence.
/// `cursor` counts spans ever written, so dropped = cursor - capacity once
/// it wraps.
struct ThreadRing {
  /// A span total plus its first-child / next-sibling links (-1 = none).
  struct Node {
    SpanTotal total;
    int child = -1;
    int sibling = -1;
  };

  std::atomic<std::uint64_t> cursor{0};
  std::vector<RawSpan> slots;
  std::vector<Node> nodes;  // nodes[0] = the unnamed root
  int node = 0;             // innermost open span's node; 0 = none open
  int tid = 0;
  TraceContext ctx;  // owner-thread only (ScopedTraceContext / TraceSpan)

  explicit ThreadRing(std::size_t capacity, int id)
      : slots(capacity), nodes(1), tid(id) {}

  void write(const RawSpan& span) {
    const std::uint64_t c = cursor.load(std::memory_order_relaxed);
    slots[static_cast<std::size_t>(c % slots.size())] = span;
    cursor.store(c + 1, std::memory_order_release);
  }

  /// The node for label `name` under `parent`, created on first use.
  /// Labels compare by content: literals from different TUs may not be
  /// pooled.
  int child_of(int parent, const char* name) {
    int* link = &nodes[static_cast<std::size_t>(parent)].child;
    while (*link >= 0) {
      const SpanTotal& t = nodes[static_cast<std::size_t>(*link)].total;
      if (t.name == name || std::strcmp(t.name, name) == 0) return *link;
      link = &nodes[static_cast<std::size_t>(*link)].sibling;
    }
    const int id = static_cast<int>(nodes.size());
    *link = id;  // before the push_back, which may move `link`'s target
    nodes.push_back(Node{SpanTotal{name, parent, 0, 0}});
    return id;
  }

  void add(int id, std::uint64_t ns) {
    SpanTotal& t = nodes[static_cast<std::size_t>(id)].total;
    ++t.calls;
    t.total_ns += ns;
  }

  void reset(std::size_t capacity) {
    slots.assign(capacity, RawSpan{});
    cursor.store(0, std::memory_order_release);
    nodes.assign(1, Node{});
    node = 0;
  }
};

struct RingRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadRing>> rings;
};

RingRegistry& registry() {
  static RingRegistry* r = new RingRegistry();  // never freed: threads may
  return *r;                                    // outlive static teardown
}

ThreadRing& local_ring() {
  // The shared_ptr keeps the ring alive in the registry after thread exit,
  // so short-lived worker threads still contribute to the export.
  thread_local std::shared_ptr<ThreadRing> ring = [] {
    RingRegistry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto t = std::make_shared<ThreadRing>(
        g_ring_capacity.load(std::memory_order_relaxed),
        static_cast<int>(r.rings.size()));
    r.rings.push_back(t);
    return t;
  }();
  return *ring;
}

std::vector<std::shared_ptr<ThreadRing>> all_rings() {
  RingRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.rings;
}

}  // namespace

void set_trace_clock(util::ClockSource* clock) {
  g_clock.store(clock, std::memory_order_release);
}

util::ClockSource& trace_clock() {
  util::ClockSource* clock = g_clock.load(std::memory_order_acquire);
  return clock != nullptr ? *clock : util::steady_clock_source();
}

void set_trace_ring_capacity(std::size_t spans_per_thread) {
  g_ring_capacity.store(std::max<std::size_t>(1, spans_per_thread),
                        std::memory_order_relaxed);
}

bool tracing_enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_tracing_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

TraceContext current_trace_context() { return local_ring().ctx; }

TraceContext begin_trace() {
  if (!tracing_enabled()) return {};
  return {g_next_trace_id.fetch_add(1, std::memory_order_relaxed), 0};
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx) {
  ThreadRing& ring = local_ring();
  saved_ = ring.ctx;
  ring.ctx = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { local_ring().ctx = saved_; }

void record_span(const char* name, const TraceContext& ctx,
                 std::int64_t start_us, std::int64_t end_us) {
  if (!tracing_enabled() || ctx.trace_id == 0) return;
  RawSpan span;
  span.trace_id = ctx.trace_id;
  span.span_id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  span.parent_id = ctx.span_id;
  span.name = name;
  span.start_us = start_us;
  span.dur_us = end_us >= start_us ? end_us - start_us : 0;
  ThreadRing& ring = local_ring();
  ring.write(span);
  ring.add(ring.child_of(ring.node, name),
           static_cast<std::uint64_t>(span.dur_us) * 1000);
}

TraceSpan::TraceSpan(const char* name, std::int64_t* elapsed_ns)
    : elapsed_ns_(elapsed_ns) {
  if (!tracing_enabled()) {
    if (elapsed_ns != nullptr) start_ns_ = trace_clock().now_ns();
    return;
  }
  ThreadRing& ring = local_ring();
  name_ = name;
  parent_ = ring.ctx.span_id;
  span_id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  ring.ctx.span_id = span_id_;  // children opened inside nest under us
  ring.node = ring.child_of(ring.node, name);
  ring_ = &ring;
  start_ns_ = trace_clock().now_ns();
}

TraceSpan::~TraceSpan() {
  if (ring_ == nullptr) {
    if (elapsed_ns_ != nullptr) {
      *elapsed_ns_ = trace_clock().now_ns() - start_ns_;
    }
    return;
  }
  const std::int64_t end_ns = trace_clock().now_ns();
  if (elapsed_ns_ != nullptr) *elapsed_ns_ = end_ns - start_ns_;
  ThreadRing& ring = *static_cast<ThreadRing*>(ring_);
  RawSpan span;
  span.trace_id = ring.ctx.trace_id;
  span.span_id = span_id_;
  span.parent_id = parent_;
  span.name = name_;
  span.start_us = start_ns_ / 1000;
  span.dur_us = end_ns / 1000 - span.start_us;
  ring.write(span);
  ring.ctx.span_id = parent_;
  // Spans close innermost first, so ours is the open node — unless a
  // reset_trace() since our entry sent it back to the root.
  if (ring.node != 0) {
    ring.add(ring.node, static_cast<std::uint64_t>(end_ns - start_ns_));
    ring.node = ring.nodes[static_cast<std::size_t>(ring.node)].total.parent;
  }
}

void reset_trace() {
  const std::size_t capacity =
      g_ring_capacity.load(std::memory_order_relaxed);
  for (const auto& ring : all_rings()) ring->reset(capacity);
}

TraceSnapshot TraceCollector::collect() {
  TraceSnapshot snapshot;
  for (const auto& ring : all_rings()) {
    const std::uint64_t written =
        ring->cursor.load(std::memory_order_acquire);
    const std::uint64_t capacity =
        static_cast<std::uint64_t>(ring->slots.size());
    const std::uint64_t kept = std::min(written, capacity);
    if (written > capacity) snapshot.dropped += written - capacity;
    // Oldest surviving span first: slots [written - kept, written).
    for (std::uint64_t i = written - kept; i < written; ++i) {
      const RawSpan& raw =
          ring->slots[static_cast<std::size_t>(i % capacity)];
      SpanRecord record;
      record.trace_id = raw.trace_id;
      record.span_id = raw.span_id;
      record.parent_id = raw.parent_id;
      record.name = raw.name;
      record.tid = ring->tid;
      record.start_us = raw.start_us;
      record.dur_us = raw.dur_us;
      snapshot.spans.push_back(std::move(record));
    }
  }
  return snapshot;
}

std::vector<std::vector<SpanTotal>> TraceCollector::totals() {
  std::vector<std::vector<SpanTotal>> out;
  for (const auto& ring : all_rings()) {
    std::vector<SpanTotal>& thread = out.emplace_back();
    for (const ThreadRing::Node& node : ring->nodes) {
      thread.push_back(node.total);
    }
  }
  return out;
}

std::string TraceCollector::export_json(const TraceSnapshot& snapshot) {
  std::vector<const SpanRecord*> ordered;
  ordered.reserve(snapshot.spans.size());
  for (const SpanRecord& span : snapshot.spans) ordered.push_back(&span);
  // Parents before children: earlier start first, longer duration first on
  // ties, span id as the final deterministic tiebreak.
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const SpanRecord* a, const SpanRecord* b) {
                     if (a->start_us != b->start_us) {
                       return a->start_us < b->start_us;
                     }
                     if (a->dur_us != b->dur_us) return a->dur_us > b->dur_us;
                     return a->span_id < b->span_id;
                   });
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord* span : ordered) {
    if (!first) out += ',';
    first = false;
    out += util::JsonObject()
               .add("name", span->name)
               .add("cat", "dropback")
               .add("ph", "X")
               .add("ts", span->start_us)
               .add("dur", span->dur_us)
               .add("pid", 1)
               .add("tid", span->tid)
               .add_raw("args", util::JsonObject()
                                    .add("trace", span->trace_id)
                                    .add("span", span->span_id)
                                    .add("parent", span->parent_id)
                                    .str())
               .str();
  }
  if (snapshot.dropped > 0) {
    if (!first) out += ',';
    out += util::JsonObject()
               .add("name", "dropped_spans")
               .add("cat", "dropback")
               .add("ph", "I")
               .add("ts", std::int64_t{0})
               .add("pid", 1)
               .add("tid", 0)
               .add_raw("args", util::JsonObject()
                                    .add("count", snapshot.dropped)
                                    .str())
               .str();
  }
  out += "]}";
  return out;
}

std::string TraceCollector::export_json() { return export_json(collect()); }

namespace {

[[noreturn]] void trace_parse_error(const std::string& what,
                                    std::size_t pos) {
  throw std::runtime_error("trace JSON: " + what + " near byte " +
                           std::to_string(pos));
}

/// Extracts one balanced {...} object starting at `pos` (which must point
/// at '{'), honoring string literals and escapes. Returns the object text
/// including braces and advances `pos` past it.
std::string take_object(const std::string& text, std::size_t& pos) {
  if (pos >= text.size() || text[pos] != '{') {
    trace_parse_error("expected '{'", pos);
  }
  int depth = 0;
  bool in_string = false;
  const std::size_t begin = pos;
  for (; pos < text.size(); ++pos) {
    const char c = text[pos];
    if (in_string) {
      if (c == '\\') {
        ++pos;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (--depth == 0) {
        ++pos;
        return text.substr(begin, pos - begin);
      }
    }
  }
  trace_parse_error("unterminated object", begin);
}

/// Splices a nested "args":{...} object's fields into the enclosing flat
/// object so parse_flat_object can read it (args keys never collide with
/// the event's own keys in our schema).
std::string flatten_args(const std::string& object_text) {
  const std::size_t key = object_text.find("\"args\"");
  if (key == std::string::npos) return object_text;
  std::size_t pos = object_text.find('{', key);
  if (pos == std::string::npos) trace_parse_error("malformed args", key);
  const std::string inner = take_object(object_text, pos);
  std::string out = object_text.substr(0, key);
  const std::string fields = inner.substr(1, inner.size() - 2);
  if (!fields.empty()) {
    out += fields;
  } else if (!out.empty() && out.back() == ',') {
    out.pop_back();  // "...,"args":{}" -> drop the dangling comma
  }
  out += object_text.substr(pos);
  return out;
}

/// `key`'s number truncated toward zero, or 0 when absent or not a number.
/// A negative, non-finite or >= 2^63 value is malformed: converting it to
/// an integer would be undefined behaviour.
std::uint64_t field_u64(const std::map<std::string, util::JsonValue>& fields,
                        const char* key, std::size_t event_pos) {
  const auto it = fields.find(key);
  if (it == fields.end() ||
      it->second.type != util::JsonValue::Type::kNumber) {
    return 0;
  }
  const double v = it->second.number;
  if (!(v >= 0.0 && v < 0x1p63)) {
    trace_parse_error(std::string(key) + " out of range", event_pos);
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

std::vector<SpanRecord> parse_chrome_trace(const std::string& text) {
  std::vector<SpanRecord> spans;
  const std::size_t key = text.find("\"traceEvents\"");
  if (key == std::string::npos) {
    trace_parse_error("missing traceEvents", 0);
  }
  std::size_t pos = text.find('[', key);
  if (pos == std::string::npos) {
    trace_parse_error("traceEvents is not an array", key);
  }
  ++pos;
  for (;;) {
    while (pos < text.size() &&
           (text[pos] == ',' || text[pos] == ' ' || text[pos] == '\n' ||
            text[pos] == '\r' || text[pos] == '\t')) {
      ++pos;
    }
    if (pos >= text.size()) trace_parse_error("unterminated array", pos);
    if (text[pos] == ']') break;
    const std::size_t event_pos = pos;
    const std::string event = take_object(text, pos);
    const auto fields = util::parse_flat_object(flatten_args(event));
    const auto ph = fields.find("ph");
    if (ph == fields.end() ||
        ph->second.type != util::JsonValue::Type::kString) {
      trace_parse_error("event without ph", event_pos);
    }
    if (ph->second.string != "X") continue;  // instants, metadata, ...
    const auto name = fields.find("name");
    if (name == fields.end() ||
        name->second.type != util::JsonValue::Type::kString) {
      trace_parse_error("X event without name", event_pos);
    }
    const auto field = [&](const char* key) {
      return field_u64(fields, key, event_pos);
    };
    SpanRecord record;
    record.name = name->second.string;
    record.start_us = static_cast<std::int64_t>(field("ts"));
    record.dur_us = static_cast<std::int64_t>(field("dur"));
    record.tid = static_cast<int>(field("tid"));
    record.trace_id = field("trace");
    record.span_id = field("span");
    record.parent_id = field("parent");
    spans.push_back(std::move(record));
  }
  return spans;
}

}  // namespace dropback::obs
