// Profile view tests: runtime on/off gating, nested span paths, cross-thread
// merge semantics, child coverage, the unified kernel-timing JSONL dump,
// and exactness of the span totals against the span ring under a
// ManualClock, including after the ring wrapped.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/steady_clock.hpp"

namespace {

using namespace dropback;

void spin_for_us(int us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset_trace();
    obs::set_tracing_enabled(true);
  }
  void TearDown() override {
    obs::set_tracing_enabled(false);
    obs::set_trace_clock(nullptr);
    obs::set_trace_ring_capacity(4096);
    obs::reset_trace();
  }
};

TEST_F(ProfilerTest, DisabledRecordsNothing) {
  obs::set_tracing_enabled(false);
  {
    DROPBACK_TRACE_SPAN("ghost");
    spin_for_us(10);
  }
  EXPECT_EQ(obs::collect_profile().find("ghost"), nullptr);
}

TEST_F(ProfilerTest, NestedSpansBuildPaths) {
  for (int i = 0; i < 3; ++i) {
    DROPBACK_TRACE_SPAN("outer");
    spin_for_us(50);
    {
      DROPBACK_TRACE_SPAN("inner");
      spin_for_us(20);
    }
    {
      // dbk-lint: allow(R6): duplicate on purpose — proves same-label merge
      DROPBACK_TRACE_SPAN("inner");  // same label merges, calls add up
      spin_for_us(20);
    }
  }
  const obs::ProfileReport report = obs::collect_profile();
  const obs::ProfileEntry* outer = report.find("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, 3U);
  EXPECT_EQ(outer->depth, 0);
  const obs::ProfileEntry* inner = report.find("outer/inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->calls, 6U);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(inner->name, "inner");
  // A child's wall time is bounded by its parent's.
  EXPECT_LE(inner->total_ns, outer->total_ns);
  EXPECT_GT(inner->total_ns, 0U);
}

TEST_F(ProfilerTest, MergeAcrossThreadsCountsThreads) {
  auto work = [] {
    DROPBACK_TRACE_SPAN("worker");
    spin_for_us(30);
  };
  std::thread t1(work);
  std::thread t2(work);
  t1.join();
  t2.join();
  work();  // main thread too
  const obs::ProfileReport report = obs::collect_profile();
  const obs::ProfileEntry* entry = report.find("worker");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->calls, 3U);
  EXPECT_EQ(entry->threads, 3);
}

TEST_F(ProfilerTest, ResetDropsData) {
  {
    DROPBACK_TRACE_SPAN("gone");
    spin_for_us(5);
  }
  ASSERT_NE(obs::collect_profile().find("gone"), nullptr);
  obs::reset_trace();
  EXPECT_EQ(obs::collect_profile().find("gone"), nullptr);
  // Recording keeps working after a reset.
  {
    DROPBACK_TRACE_SPAN("fresh");
    spin_for_us(5);
  }
  EXPECT_NE(obs::collect_profile().find("fresh"), nullptr);
}

TEST_F(ProfilerTest, ResetInsideAnOpenSpanDropsOnlyThatSpan) {
  {
    DROPBACK_TRACE_SPAN("stale");
    obs::reset_trace();
    DROPBACK_TRACE_SPAN("after");
  }
  const obs::ProfileReport report = obs::collect_profile();
  EXPECT_EQ(report.find("stale"), nullptr);
  const obs::ProfileEntry* after = report.find("after");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->calls, 1U);
  EXPECT_EQ(report.entries.size(), 1U);
}

TEST_F(ProfilerTest, ChildCoverageAttributesStepTime) {
  {
    DROPBACK_TRACE_SPAN("step");
    {
      DROPBACK_TRACE_SPAN("forward");
      spin_for_us(400);
    }
    {
      DROPBACK_TRACE_SPAN("backward");
      spin_for_us(400);
    }
    // A tiny unattributed remainder (loop overhead) is expected.
  }
  const obs::ProfileReport report = obs::collect_profile();
  const double coverage = report.child_coverage("step");
  EXPECT_GT(coverage, 0.9);
  EXPECT_LE(coverage, 1.0 + 1e-9);
  EXPECT_EQ(report.child_coverage("no_such_scope"), 0.0);
}

TEST_F(ProfilerTest, JsonlDumpUsesUnifiedKernelSchema) {
  {
    DROPBACK_TRACE_SPAN("step");
    DROPBACK_TRACE_SPAN("forward");
    spin_for_us(10);
  }
  const obs::ProfileReport report = obs::collect_profile();
  const std::string jsonl = report.to_jsonl();
  // One record per entry; each parses as the shared kernel-timing schema
  // {"name","calls","total_us","threads"} with the full path as name.
  std::size_t pos = 0;
  int records = 0;
  bool saw_nested = false;
  while (pos < jsonl.size()) {
    std::size_t end = jsonl.find('\n', pos);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    const auto rec = util::parse_flat_object(line);
    ASSERT_EQ(rec.at("name").type, util::JsonValue::Type::kString);
    ASSERT_EQ(rec.at("calls").type, util::JsonValue::Type::kNumber);
    ASSERT_EQ(rec.at("total_us").type, util::JsonValue::Type::kNumber);
    ASSERT_EQ(rec.at("threads").type, util::JsonValue::Type::kNumber);
    if (rec.at("name").string == "step/forward") saw_nested = true;
    ++records;
  }
  EXPECT_GE(records, 2);
  EXPECT_TRUE(saw_nested);
}

TEST_F(ProfilerTest, PrettyTableListsScopes) {
  {
    DROPBACK_TRACE_SPAN("alpha");
    DROPBACK_TRACE_SPAN("beta");
    spin_for_us(10);
  }
  const std::string table = obs::collect_profile().pretty();
  EXPECT_NE(table.find("alpha"), std::string::npos) << table;
  EXPECT_NE(table.find("beta"), std::string::npos) << table;
  EXPECT_NE(table.find("scope"), std::string::npos) << table;
}

TEST_F(ProfilerTest, ToggleMidRunKeepsEarlierData) {
  {
    DROPBACK_TRACE_SPAN("kept");
    spin_for_us(5);
  }
  obs::set_tracing_enabled(false);
  {
    DROPBACK_TRACE_SPAN("dropped");
    spin_for_us(5);
  }
  obs::set_tracing_enabled(true);
  const obs::ProfileReport report = obs::collect_profile();
  EXPECT_NE(report.find("kept"), nullptr);
  EXPECT_EQ(report.find("dropped"), nullptr);
}

// ---------------------------------------------------------------------------
// Span totals vs the span ring, under a ManualClock
// ---------------------------------------------------------------------------

// 500 steps of a 3 µs "step" span around a 2 µs "forward" span.
void run_manual_steps(util::ManualClock& clock) {
  for (int i = 0; i < 500; ++i) {
    DROPBACK_TRACE_SPAN("step");
    clock.advance_us(1);
    {
      DROPBACK_TRACE_SPAN("forward");
      clock.advance_us(2);
    }
  }
}

TEST_F(ProfilerTest, TotalsStayExactAfterTheRingWraps) {
  util::ManualClock clock;
  obs::set_trace_clock(&clock);
  obs::set_trace_ring_capacity(4);
  obs::reset_trace();
  run_manual_steps(clock);  // 1,000 spans into a 4-slot ring
  const obs::TraceSnapshot snapshot = obs::TraceCollector::collect();
  EXPECT_EQ(snapshot.spans.size(), 4U);
  EXPECT_EQ(snapshot.dropped, 996U);
  const obs::ProfileReport report = obs::collect_profile();
  ASSERT_EQ(report.entries.size(), 2U);
  const obs::ProfileEntry* step = report.find("step");
  const obs::ProfileEntry* forward = report.find("step/forward");
  ASSERT_NE(step, nullptr);
  ASSERT_NE(forward, nullptr);
  EXPECT_EQ(step->calls, 500U);
  EXPECT_EQ(step->total_ns, 500U * 3000U);
  EXPECT_EQ(forward->calls, 500U);
  EXPECT_EQ(forward->total_ns, 500U * 2000U);
  EXPECT_EQ(step->threads, 1);
}

TEST_F(ProfilerTest, TotalsEqualTheRingWhenNothingWasDropped) {
  util::ManualClock clock;
  obs::set_trace_clock(&clock);
  run_manual_steps(clock);
  const obs::TraceSnapshot snapshot = obs::TraceCollector::collect();
  ASSERT_EQ(snapshot.dropped, 0U);
  std::map<std::string, std::uint64_t> ring_ns;
  for (const obs::SpanRecord& span : snapshot.spans) {
    ring_ns[span.name] += static_cast<std::uint64_t>(span.dur_us) * 1000;
  }
  std::map<std::string, std::uint64_t> profile_ns;
  for (const obs::ProfileEntry& entry : obs::collect_profile().entries) {
    profile_ns[entry.name] += entry.total_ns;
  }
  EXPECT_EQ(ring_ns, profile_ns);
  EXPECT_EQ(ring_ns.size(), 2U);
}

TEST_F(ProfilerTest, JsonlBytesArePinnedUnderManualClock) {
  util::ManualClock clock;
  obs::set_trace_clock(&clock);
  run_manual_steps(clock);
  EXPECT_EQ(obs::collect_profile().to_jsonl(),
            "{\"name\":\"step\",\"calls\":500,\"total_us\":1500,"
            "\"threads\":1}\n"
            "{\"name\":\"step/forward\",\"calls\":500,\"total_us\":1000,"
            "\"threads\":1}\n");
}

}  // namespace
