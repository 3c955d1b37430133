// MetricsRegistry, JSON helpers, and event-stream schema tests (ISSUE 3):
// histogram bucket boundaries including under/overflow bins, counter wrap
// modulo 2^64, snapshot-while-writing from concurrent threads, and the
// golden field-order schema of the JSONL step record.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_stream.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace {

using namespace dropback;

TEST(JsonTest, EscapeAndNumberRoundTrip) {
  EXPECT_EQ(util::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(util::json_number(3.0), "3");
  EXPECT_EQ(util::json_number(std::numeric_limits<double>::infinity()), "null");
  // Shortest-round-trip: the value survives a print/parse cycle bit-exactly.
  const double v = 0.1 + 0.2;
  const auto rec =
      util::parse_flat_object("{\"v\":" + util::json_number(v) + "}");
  EXPECT_EQ(rec.at("v").number, v);
}

TEST(JsonTest, ParseFlatObjectTypes) {
  const auto rec = util::parse_flat_object(
      R"({"s":"x","n":-2.5,"t":true,"f":false,"z":null})");
  EXPECT_EQ(rec.at("s").type, util::JsonValue::Type::kString);
  EXPECT_EQ(rec.at("s").string, "x");
  EXPECT_EQ(rec.at("n").number, -2.5);
  EXPECT_TRUE(rec.at("t").boolean);
  EXPECT_FALSE(rec.at("f").boolean);
  EXPECT_EQ(rec.at("z").type, util::JsonValue::Type::kNull);
}

TEST(JsonTest, ParseRejectsCorruptInputLoudly) {
  EXPECT_THROW(util::parse_flat_object("{\"a\":1"), std::runtime_error);
  EXPECT_THROW(util::parse_flat_object("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(util::parse_flat_object("not json"), std::runtime_error);
  EXPECT_THROW(util::parse_flat_object("{\"a\":{\"nested\":1}}"),
               std::runtime_error);
  EXPECT_THROW(util::parse_flat_object("{\"a\":1}trailing"),
               std::runtime_error);
}

TEST(JsonTest, KernelTimingSchema) {
  const std::string line = util::kernel_timing_json("matmul", 3, 1500, 2);
  EXPECT_EQ(line,
            R"({"name":"matmul","calls":3,"total_us":1500,"threads":2})");
  const auto rec = util::parse_flat_object(line);
  EXPECT_EQ(rec.at("name").string, "matmul");
  EXPECT_EQ(rec.at("calls").number, 3.0);
}

TEST(MetricsTest, CounterWrapsModulo2e64) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("wrap");
  c.add(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(c.value(), std::numeric_limits<std::uint64_t>::max());
  c.add(2);  // odometer semantics: wraps, does not saturate
  EXPECT_EQ(c.value(), 1U);
}

TEST(MetricsTest, RegistryReturnsSameMetric) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x");
  a.add(3);
  EXPECT_EQ(&reg.counter("x"), &a);
}

TEST(MetricsTest, SnapshotJsonShape) {
  obs::MetricsRegistry reg;
  reg.counter("steps").add(7);
  reg.gauge("loss").set(1.5);
  const std::string snap = reg.snapshot_json();
  EXPECT_NE(snap.find("\"counters\":{\"steps\":7}"), std::string::npos)
      << snap;
  EXPECT_NE(snap.find("\"loss\":1.5"), std::string::npos) << snap;
}

TEST(LogHistogramTest, BucketingAndQuantileAccuracy) {
  // 1 .. 16 covered by 4 octaves of 8 sub-buckets: relative quantile error
  // is bounded by 1/sub_buckets = 12.5%.
  obs::LogHistogram h(1.0, 16.0, 8);
  EXPECT_EQ(h.octaves(), 4);
  EXPECT_EQ(h.num_buckets(), 4U * 8U + 2U);

  EXPECT_EQ(h.bucket_index(0.5), 0U);                     // underflow
  EXPECT_EQ(h.bucket_index(16.0), h.num_buckets() - 1);   // overflow
  EXPECT_EQ(h.bucket_index(1.0), 1U);                     // first finite bin
  // First bin of the second octave is [2, 2.25).
  EXPECT_EQ(h.bucket_index(2.0), 1U + 8U);
  EXPECT_DOUBLE_EQ(h.bucket_upper(1U + 8U), 2.25);

  // Quantiles stay within one sub-bucket of the true value across octaves.
  for (const double v : {1.5, 3.0, 7.7, 12.0}) {
    obs::LogHistogram one(1.0, 16.0, 8);
    one.observe(v);
    const double q = one.quantile(0.5);
    EXPECT_GE(q, v);
    EXPECT_LE(q, v * (1.0 + 1.0 / 8.0) + 1e-12) << "v=" << v;
  }
}

TEST(LogHistogramTest, EdgeCasesMatchFixedHistogramContract) {
  obs::LogHistogram h(0.01, 1000.0, 16);
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty -> 0

  h.observe(0.001);  // underflow reports min_value
  EXPECT_EQ(h.quantile(0.0), 0.01);

  obs::LogHistogram over(0.01, 1000.0, 16);
  over.observe(5000.0);  // overflow clamps to max_value, no extrapolation
  over.observe(1e12);
  EXPECT_EQ(over.quantile(0.5), 1000.0);
  EXPECT_EQ(over.quantile(1.0), 1000.0);

  // NaN lands in the underflow bin rather than corrupting an index.
  obs::LogHistogram nan_h(0.01, 1000.0, 16);
  nan_h.observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(nan_h.bucket_count(0), 1U);
}

TEST(LogHistogramTest, AccurateOverFourDecadesWhereFixedBucketsAreNot) {
  // p99 of a bimodal latency mix: 98 fast (0.2ms) + 2 slow (150ms). The old
  // serve bounds {...,100,200,...} could only answer "200"; the log
  // histogram pins it within ~6%.
  obs::LogHistogram h(0.01, 600000.0, 16);
  for (int i = 0; i < 98; ++i) h.observe(0.2);
  h.observe(150.0);
  h.observe(150.0);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p99, 150.0);
  EXPECT_LE(p99, 150.0 * 1.07);
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 0.2);
  EXPECT_LE(p50, 0.2 * 1.07);
}

TEST(LogHistogramTest, RegistrySnapshotEmitsSparseBuckets) {
  obs::MetricsRegistry reg;
  obs::LogHistogram& h = reg.log_histogram("lat", 0.01, 1000.0, 16);
  EXPECT_EQ(&reg.log_histogram("lat", 9.0, 99.0, 4), &h);  // first wins
  h.observe(1.0);
  h.observe(1.0);
  const std::string snap = reg.snapshot_json();
  EXPECT_NE(snap.find("\"log_histograms\":{\"lat\":{"), std::string::npos)
      << snap;
  EXPECT_NE(snap.find("\"count\":2"), std::string::npos) << snap;
  const std::size_t idx = h.bucket_index(1.0);
  EXPECT_NE(snap.find("\"buckets\":[[" + std::to_string(idx) + ",2]]"),
            std::string::npos)
      << snap;
}

TEST(MetricsTest, SnapshotWhileWritingFromThreads) {
  // Writers hammer a counter, gauge, and log histogram while the main
  // thread snapshots concurrently; under -DDROPBACK_SANITIZE=thread this
  // also proves the registry race-free. The final counts are exact.
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  obs::Gauge& g = reg.gauge("g");
  obs::LogHistogram& h = reg.log_histogram("h", 0.5, 4.0, 4);
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c.add(1);
        g.set(static_cast<double>(t));
        h.observe(i % 2 == 0 ? 0.0 : 1.0);
      }
    });
  }
  for (int s = 0; s < 50; ++s) {
    const std::string snap = reg.snapshot_json();
    EXPECT_NE(snap.find("\"c\":"), std::string::npos);
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
}

// Golden schema: the exact field order of a step record, as documented in
// obs/event_stream.hpp and consumed by metrics_tool. Any change here is a
// telemetry format break and must update docs/OBSERVABILITY.md.
TEST(EventSchemaTest, StepRecordGoldenFieldOrder) {
  obs::StepEvent ev;
  ev.step = 12;
  ev.epoch = 1;
  ev.loss = 2.5;
  ev.acc = 0.25;
  ev.has_dropback = true;
  ev.churn_in = 10;
  ev.churn_out = 7;
  ev.tracked = 2000;
  ev.budget = 2000;
  ev.occupancy = 1.0;
  ev.has_quantiles = true;
  ev.grad_q50 = 0.25;
  ev.grad_q90 = 0.5;
  ev.grad_q99 = 0.75;
  ev.step_ms = 8.5;
  ev.forward_ms = 2.0;
  ev.backward_ms = 3.0;
  ev.optimizer_ms = 3.5;
  EXPECT_EQ(
      ev.to_json(),
      R"({"type":"step","step":12,"epoch":1,"loss":2.5,"acc":0.25,)"
      R"("churn_in":10,"churn_out":7,"tracked":2000,"budget":2000,)"
      R"("occupancy":1,"grad_q50":0.25,"grad_q90":0.5,"grad_q99":0.75,)"
      R"("step_ms":8.5,"forward_ms":2,"backward_ms":3,"optimizer_ms":3.5})");
}

TEST(EventSchemaTest, StepRecordNullsWithoutDropBack) {
  obs::StepEvent ev;
  ev.step = 1;
  const auto rec = util::parse_flat_object(ev.to_json());
  EXPECT_EQ(rec.at("type").string, "step");
  EXPECT_EQ(rec.at("churn_in").type, util::JsonValue::Type::kNull);
  EXPECT_EQ(rec.at("grad_q50").type, util::JsonValue::Type::kNull);
  EXPECT_EQ(rec.at("occupancy").type, util::JsonValue::Type::kNull);
}

TEST(EventSchemaTest, OtherRecordsParseWithTypes) {
  obs::EpochEvent ep;
  ep.epoch = 2;
  ep.frozen = true;
  EXPECT_EQ(util::parse_flat_object(ep.to_json()).at("type").string, "epoch");
  obs::CheckpointEvent cp;
  cp.path = "a\"b";  // exercises escaping through the full record path
  EXPECT_EQ(util::parse_flat_object(cp.to_json()).at("path").string, "a\"b");
  obs::AnomalyEvent an;
  an.what = "loss is nan";
  an.policy = "skip";
  EXPECT_EQ(util::parse_flat_object(an.to_json()).at("policy").string, "skip");
  obs::SummaryEvent su;
  su.steps = 5;
  EXPECT_EQ(util::parse_flat_object(su.to_json()).at("steps").number, 5.0);
}

TEST(EventStreamTest, MemorySinkCountsAndKeepsLines) {
  auto sink = std::make_unique<obs::MemorySink>();
  auto* raw = sink.get();
  obs::EventStream stream(std::move(sink));
  stream.emit("{\"type\":\"step\"}");
  stream.emit("{\"type\":\"summary\"}");
  EXPECT_EQ(stream.records(), 2);
  ASSERT_EQ(raw->lines().size(), 2U);
  EXPECT_EQ(raw->lines()[0], "{\"type\":\"step\"}");
}

}  // namespace
