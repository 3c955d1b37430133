// Span tracing tests: RAII nesting and parent links, cross-thread context
// propagation (explicit handoff + ScopedTraceContext adoption), ring
// wraparound with dropped-span accounting, timed spans and the trainer's
// JSONL `*_ms` fields that they fill, byte-deterministic Chrome-trace
// export under an injectable ManualClock, and the export -> parse round trip
// that `metrics_tool trace` depends on, including a seeded mutation fuzz
// of that reader.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dropback_optimizer.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/models/lenet.hpp"
#include "obs/trace.hpp"
#include "rng/xorshift.hpp"
#include "train/trainer.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/steady_clock.hpp"

namespace {

using namespace dropback;

// Every test runs against the same process-wide rings, so each one starts
// from a clean slate and restores the production defaults on the way out.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_trace_clock(&clock_);
    obs::set_trace_ring_capacity(4096);
    obs::reset_trace();
    obs::set_tracing_enabled(true);
  }

  void TearDown() override {
    obs::set_tracing_enabled(false);
    obs::set_trace_clock(nullptr);
    obs::set_trace_ring_capacity(4096);
    obs::reset_trace();
  }

  const obs::SpanRecord* find(const obs::TraceSnapshot& snap,
                              const std::string& name) {
    for (const auto& span : snap.spans) {
      if (span.name == name) return &span;
    }
    return nullptr;
  }

  util::ManualClock clock_;
};

TEST_F(TraceTest, NestedSpansLinkParentsAndUseInjectedClock) {
  const obs::TraceContext root = obs::begin_trace();
  ASSERT_NE(root.trace_id, 0U);
  {
    obs::ScopedTraceContext adopt(root);
    clock_.advance_us(100);
    obs::TraceSpan outer("step");
    clock_.advance_us(40);
    {
      obs::TraceSpan inner("forward");
      clock_.advance_us(10);
    }
    clock_.advance_us(5);
  }
  const obs::TraceSnapshot snap = obs::TraceCollector::collect();
  ASSERT_EQ(snap.spans.size(), 2U);
  EXPECT_EQ(snap.dropped, 0U);

  const obs::SpanRecord* outer = find(snap, "step");
  const obs::SpanRecord* inner = find(snap, "forward");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->trace_id, root.trace_id);
  EXPECT_EQ(inner->trace_id, root.trace_id);
  EXPECT_EQ(outer->parent_id, 0U);  // root span of its trace
  EXPECT_EQ(inner->parent_id, outer->span_id);
  // Timestamps are exactly the manual clock's: injection is total.
  EXPECT_EQ(outer->start_us, 100);
  EXPECT_EQ(outer->dur_us, 55);
  EXPECT_EQ(inner->start_us, 140);
  EXPECT_EQ(inner->dur_us, 10);
}

TEST_F(TraceTest, SiblingSpansShareAParentSequentially) {
  const obs::TraceContext root = obs::begin_trace();
  {
    obs::ScopedTraceContext adopt(root);
    obs::TraceSpan step("step");
    { obs::TraceSpan a("forward"); }
    { obs::TraceSpan b("backward"); }
  }
  const obs::TraceSnapshot snap = obs::TraceCollector::collect();
  const obs::SpanRecord* step = find(snap, "step");
  const obs::SpanRecord* a = find(snap, "forward");
  const obs::SpanRecord* b = find(snap, "backward");
  ASSERT_NE(step, nullptr);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // After `a` closes, the context's open span must be `step` again, not `a`.
  EXPECT_EQ(a->parent_id, step->span_id);
  EXPECT_EQ(b->parent_id, step->span_id);
  EXPECT_NE(a->span_id, b->span_id);
}

TEST_F(TraceTest, ContextPropagatesAcrossThreadsByExplicitHandoff) {
  const obs::TraceContext root = obs::begin_trace();
  obs::TraceContext handoff;
  {
    obs::ScopedTraceContext adopt(root);
    obs::TraceSpan submit("submit");
    clock_.advance_us(3);
    handoff = obs::current_trace_context();  // what a Request would carry
  }
  std::thread worker([&] {
    obs::ScopedTraceContext adopt(handoff);
    obs::TraceSpan exec("exec");
    clock_.advance_us(7);
  });
  worker.join();

  const obs::TraceSnapshot snap = obs::TraceCollector::collect();
  const obs::SpanRecord* submit = find(snap, "submit");
  const obs::SpanRecord* exec = find(snap, "exec");
  ASSERT_NE(submit, nullptr);
  ASSERT_NE(exec, nullptr);
  // One trace, two threads: the id rode the explicit handoff.
  EXPECT_EQ(exec->trace_id, root.trace_id);
  EXPECT_EQ(exec->parent_id, submit->span_id);
  EXPECT_NE(exec->tid, submit->tid);
  // The worker's ring outlives the worker: collect() after join sees it.
  EXPECT_EQ(exec->dur_us, 7);
}

TEST_F(TraceTest, AdoptionRestoresThePreviousContextOnExit) {
  const obs::TraceContext a = obs::begin_trace();
  const obs::TraceContext b = obs::begin_trace();
  obs::ScopedTraceContext outer(a);
  {
    obs::ScopedTraceContext inner(b);
    EXPECT_EQ(obs::current_trace_context().trace_id, b.trace_id);
  }
  EXPECT_EQ(obs::current_trace_context().trace_id, a.trace_id);
}

TEST_F(TraceTest, RingWraparoundKeepsNewestAndCountsDropped) {
  obs::set_trace_ring_capacity(4);
  obs::reset_trace();
  const obs::TraceContext root = obs::begin_trace();
  for (int i = 0; i < 10; ++i) {
    obs::record_span("segment", root, i, i + 1);
  }
  const obs::TraceSnapshot snap = obs::TraceCollector::collect();
  ASSERT_EQ(snap.spans.size(), 4U);
  EXPECT_EQ(snap.dropped, 6U);
  // The survivors are the newest four, oldest surviving first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(snap.spans[i].start_us, 6 + i);
  }
  // A later collect() reports the same totals (dropped is derived from the
  // cursor, not consumed).
  EXPECT_EQ(obs::TraceCollector::collect().dropped, 6U);
}

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  obs::set_tracing_enabled(false);
  EXPECT_EQ(obs::begin_trace().trace_id, 0U);
  {
    obs::TraceSpan span("invisible");
    DROPBACK_TRACE_SPAN("also_invisible");
  }
  obs::record_span("ctxless", obs::TraceContext{}, 0, 5);
  obs::record_span("ctxful", obs::TraceContext{42, 0}, 0, 5);
  const obs::TraceSnapshot snap = obs::TraceCollector::collect();
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_EQ(snap.dropped, 0U);
}

TEST_F(TraceTest, RecordSpanWithoutATraceIsANoOp) {
  obs::record_span("orphan", obs::TraceContext{}, 0, 5);
  EXPECT_TRUE(obs::TraceCollector::collect().spans.empty());
}

TEST_F(TraceTest, ResetClearsSpansAndDropCounts) {
  obs::set_trace_ring_capacity(2);
  obs::reset_trace();
  const obs::TraceContext root = obs::begin_trace();
  for (int i = 0; i < 5; ++i) obs::record_span("s", root, i, i + 1);
  EXPECT_EQ(obs::TraceCollector::collect().dropped, 3U);
  obs::reset_trace();
  const obs::TraceSnapshot snap = obs::TraceCollector::collect();
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_EQ(snap.dropped, 0U);
}

TEST_F(TraceTest, TimedSpanReportsItsDurationTracedOrNot) {
  for (const bool traced : {true, false}) {
    obs::set_tracing_enabled(traced);
    std::int64_t ns = -1;
    {
      DROPBACK_TRACE_SPAN("timed", &ns);
      clock_.advance_us(7);
    }
    EXPECT_EQ(ns, 7000) << "traced=" << traced;
  }
  // Untraced, the span only timed itself: the ring holds the traced one.
  const obs::TraceSnapshot snap = obs::TraceCollector::collect();
  ASSERT_EQ(snap.spans.size(), 1U);
  EXPECT_EQ(snap.spans[0].dur_us, 7);
}

// ---------------------------------------------------------------------------
// Trainer: the JSONL `*_ms` fields are span durations on the trace clock
// ---------------------------------------------------------------------------

class TrainerClockTest : public ::testing::Test {
 protected:
  void TearDown() override { obs::set_trace_clock(nullptr); }

  /// The JSONL stream of a short seeded DropBack run: 8 steps over 2
  /// epochs, a checkpoint every 3 steps and at each epoch end. Both runs
  /// share the checkpoint path, which the checkpoint records carry.
  static std::string train_stream(const std::string& tag) {
    data::SyntheticMnistOptions data_opt;
    data_opt.num_samples = 64;
    data_opt.seed = 1;
    auto train_set = data::make_synthetic_mnist(data_opt);
    data_opt.num_samples = 32;
    data_opt.seed = 2;
    auto val_set = data::make_synthetic_mnist(data_opt);
    auto model = nn::models::make_mnist_100_100(3);
    core::DropBackConfig config;
    config.schedule = optim::constant_budget(2000);
    core::DropBackOptimizer opt(model->collect_parameters(), 0.1F, config);
    train::TrainConfig options;
    options.epochs = 2;
    options.batch_size = 16;
    options.checkpoint_path = ::testing::TempDir() + "/trainer_clock.dbts";
    options.checkpoint_every = 3;
    options.metrics_out =
        ::testing::TempDir() + "/trainer_clock_" + tag + ".jsonl";
    train::Trainer(*model, opt, *train_set, *val_set, options).run();
    return util::read_file(options.metrics_out);
  }

  /// `jsonl` with the value of every `ms` and `*_ms` field replaced by 0.
  static std::string zero_ms_fields(const std::string& jsonl) {
    static const std::regex kMsField(R"rx(("(?:[a-z_]+_)?ms"):[^,}]*)rx");
    return std::regex_replace(jsonl, kMsField, "$1:0");
  }

  const std::regex kMsKey{"(?:[a-z_]+_)?ms"};

  util::ManualClock frozen_{1000};  // never advanced
};

TEST_F(TrainerClockTest, StreamMsFieldsAreSpanDurations) {
  const std::string real = train_stream("real");
  obs::set_trace_clock(&frozen_);
  const std::string frozen = train_stream("frozen");

  // Under a clock that never moves, every `*_ms` field of every record is
  // exactly 0...
  std::map<std::string, int> records;
  std::istringstream lines(frozen);
  for (std::string line; std::getline(lines, line);) {
    const auto rec = util::parse_flat_object(line);
    ++records[rec.at("type").string];
    for (const auto& [key, value] : rec) {
      if (!std::regex_match(key, kMsKey)) continue;
      EXPECT_EQ(value.type, util::JsonValue::Type::kNumber) << line;
      EXPECT_EQ(value.number, 0.0) << key << " in " << line;
    }
  }
  EXPECT_EQ(records["step"], 8);
  EXPECT_EQ(records["epoch"], 2);
  EXPECT_EQ(records["checkpoint"], 4);  // steps 3 and 6, two epoch ends
  EXPECT_EQ(records["summary"], 1);
  // ...and every other byte is the real-clock run's, whose clock did move.
  EXPECT_NE(zero_ms_fields(real), real);
  EXPECT_EQ(zero_ms_fields(real), frozen);
}

// ---------------------------------------------------------------------------
// Exporter: byte-deterministic JSON, Perfetto-compatible shape, round trip
// ---------------------------------------------------------------------------

obs::SpanRecord make_span(std::uint64_t trace, std::uint64_t span,
                          std::uint64_t parent, const char* name, int tid,
                          std::int64_t start, std::int64_t dur) {
  obs::SpanRecord r;
  r.trace_id = trace;
  r.span_id = span;
  r.parent_id = parent;
  r.name = name;
  r.tid = tid;
  r.start_us = start;
  r.dur_us = dur;
  return r;
}

TEST(TraceExportTest, GoldenChromeTraceBytes) {
  obs::TraceSnapshot snap;
  // Deliberately out of order: the exporter sorts (ts, -dur, span_id) so
  // parents precede children in the file.
  snap.spans.push_back(make_span(7, 2, 1, "exec", 1, 10, 5));
  snap.spans.push_back(make_span(7, 1, 0, "request", 0, 10, 30));
  const std::string json = obs::TraceCollector::export_json(snap);
  EXPECT_EQ(
      json,
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"request\",\"cat\":\"dropback\",\"ph\":\"X\",\"ts\":10,"
      "\"dur\":30,\"pid\":1,\"tid\":0,"
      "\"args\":{\"trace\":7,\"span\":1,\"parent\":0}},"
      "{\"name\":\"exec\",\"cat\":\"dropback\",\"ph\":\"X\",\"ts\":10,"
      "\"dur\":5,\"pid\":1,\"tid\":1,"
      "\"args\":{\"trace\":7,\"span\":2,\"parent\":1}}]}");
}

TEST(TraceExportTest, DroppedSpansSurfaceAsAnInstantEvent) {
  obs::TraceSnapshot snap;
  snap.spans.push_back(make_span(1, 1, 0, "s", 0, 0, 1));
  snap.dropped = 12;
  const std::string json = obs::TraceCollector::export_json(snap);
  EXPECT_NE(json.find("\"name\":\"dropped_spans\",\"cat\":\"dropback\","
                      "\"ph\":\"I\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\":{\"count\":12}"), std::string::npos) << json;
  // The reader skips non-"X" events rather than tripping on them.
  EXPECT_EQ(obs::parse_chrome_trace(json).size(), 1U);
}

TEST(TraceExportTest, ParseRoundTripsEveryField) {
  obs::TraceSnapshot snap;
  snap.spans.push_back(make_span(3, 8, 0, "queue_wait", 2, 100, 40));
  snap.spans.push_back(make_span(3, 9, 8, "exec", 4, 140, 25));
  const std::vector<obs::SpanRecord> parsed =
      obs::parse_chrome_trace(obs::TraceCollector::export_json(snap));
  ASSERT_EQ(parsed.size(), 2U);
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].trace_id, snap.spans[i].trace_id);
    EXPECT_EQ(parsed[i].span_id, snap.spans[i].span_id);
    EXPECT_EQ(parsed[i].parent_id, snap.spans[i].parent_id);
    EXPECT_EQ(parsed[i].name, snap.spans[i].name);
    EXPECT_EQ(parsed[i].tid, snap.spans[i].tid);
    EXPECT_EQ(parsed[i].start_us, snap.spans[i].start_us);
    EXPECT_EQ(parsed[i].dur_us, snap.spans[i].dur_us);
  }
}

TEST(TraceExportTest, EmptySnapshotIsStillValidJson) {
  const std::string json =
      obs::TraceCollector::export_json(obs::TraceSnapshot{});
  EXPECT_EQ(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
  EXPECT_TRUE(obs::parse_chrome_trace(json).empty());
}

TEST(TraceExportTest, ParserRejectsMalformedInput) {
  EXPECT_THROW(obs::parse_chrome_trace("{}"), std::runtime_error);
  EXPECT_THROW(obs::parse_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}"),
               std::runtime_error);  // X event without a name
  EXPECT_THROW(obs::parse_chrome_trace("{\"traceEvents\":[{"),
               std::runtime_error);
  // Whitespace and trailing metadata events are tolerated.
  const std::string spaced =
      "{ \"traceEvents\": [\n"
      "  { \"name\": \"s\", \"ph\": \"X\", \"ts\": 1, \"dur\": 2,"
      " \"tid\": 0, \"args\": { \"trace\": 5, \"span\": 1, \"parent\": 0 } "
      "},\n"
      "  { \"name\": \"process_name\", \"ph\": \"M\" }\n"
      "] }";
  const auto parsed = obs::parse_chrome_trace(spaced);
  ASSERT_EQ(parsed.size(), 1U);
  EXPECT_EQ(parsed[0].trace_id, 5U);
}

/// One "X" event whose numeric field `key` reads `value`.
std::string event_with(const std::string& key, const std::string& value) {
  std::map<std::string, std::string> f = {{"ts", "1"},    {"dur", "2"},
                                          {"tid", "0"},   {"trace", "5"},
                                          {"span", "1"},  {"parent", "0"}};
  f[key] = value;
  return "{\"traceEvents\":[{\"name\":\"s\",\"ph\":\"X\",\"ts\":" +
         f["ts"] + ",\"dur\":" + f["dur"] + ",\"tid\":" + f["tid"] +
         ",\"args\":{\"trace\":" + f["trace"] + ",\"span\":" + f["span"] +
         ",\"parent\":" + f["parent"] + "}}]}";
}

TEST(TraceExportTest, ParserRejectsNumbersNoIdCanHold) {
  // A negative or >= 2^63 value has no uint64/int64 conversion; casting it
  // anyway was undefined behaviour (UBSan float-cast-overflow).
  for (const char* key : {"ts", "dur", "tid", "trace", "span", "parent"}) {
    for (const char* bad : {"-5", "-0.5", "9223372036854775808", "1e300"}) {
      EXPECT_THROW(obs::parse_chrome_trace(event_with(key, bad)),
                   std::runtime_error)
          << key << "=" << bad;
    }
  }
  // Fractions still truncate, and the largest exact doubles still parse.
  EXPECT_EQ(obs::parse_chrome_trace(event_with("ts", "4.75"))[0].start_us, 4);
  EXPECT_EQ(
      obs::parse_chrome_trace(event_with("span", "9007199254740992"))[0]
          .span_id,
      9007199254740992U);
}

/// One random edit: any byte, a JSON-significant byte, a truncation, a
/// digit changed into another digit, or a number's sign flipped.
void mutate(std::string& text, rng::Xorshift128& rng) {
  static const std::string kJsonBytes = "-+.0123456789eE\"{}[],: ";
  if (text.empty()) return;
  const std::size_t at =
      rng.uniform_int(static_cast<std::uint32_t>(text.size()));
  switch (rng.uniform_int(5)) {
    case 0:
      text[at] = static_cast<char>(rng.next_u32());
      break;
    case 1:
      text[at] = kJsonBytes[rng.uniform_int(
          static_cast<std::uint32_t>(kJsonBytes.size()))];
      break;
    case 2:
      text.resize(at);
      break;
    case 3: {
      const std::size_t digit = text.find_first_of("0123456789", at);
      if (digit != std::string::npos) {
        text[digit] = static_cast<char>('0' + rng.uniform_int(10));
      }
      break;
    }
    default: {
      const std::size_t colon = text.find(':', at);
      if (colon == std::string::npos || colon + 1 >= text.size()) break;
      if (text[colon + 1] == '-') {
        text.erase(colon + 1, 1);
      } else {
        text.insert(colon + 1, "-");
      }
    }
  }
}

TEST(TraceExportTest, MutatedExportsParseOrThrow) {
  obs::TraceSnapshot snap;
  snap.spans.push_back(make_span(7, 1, 0, "request", 0, 10, 30));
  snap.spans.push_back(make_span(7, 2, 1, "exec", 1, 12, 5));
  snap.spans.push_back(make_span(8, 3, 0, "queue_wait", 2, 40, 1234567));
  snap.dropped = 3;
  const std::string base = obs::TraceCollector::export_json(snap);
  rng::Xorshift128 rng(0x7ACE5EED);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string text = base;
    const std::uint32_t edits = 1 + rng.uniform_int(3);
    for (std::uint32_t e = 0; e < edits; ++e) mutate(text, rng);
    // Anything but a parse or std::runtime_error (another exception, a
    // crash, a sanitizer report) fails the test.
    try {
      obs::parse_chrome_trace(text);
      ++parsed;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
