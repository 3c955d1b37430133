// Chaos test for the inference server (the tentpole acceptance test,
// docs/SERVING.md): sustain ~2x the measured service capacity for a fixed
// window while read faults fire continuously and a permanently corrupt
// variant is in rotation, then prove:
//   * zero crashes — every submitted request resolves with a typed Outcome
//     (the process surviving IS the headline assertion; under
//     -DDROPBACK_SANITIZE=thread this test also gates on TSan findings);
//   * bounded p99 — every kOk was delivered within its deadline (strict
//     deadline semantics), so the ok-latency p99 is bounded by the deadline
//     plus a small delivery-window slack;
//   * accurate accounting — submitted == admitted + rejected and
//     admitted == ok + shed + unavailable hold exactly; shed/degraded/
//     quarantined show up in both the metrics registry and the JSONL
//     event stream.
// Single-threaded driver: the overload, fault re-arming, and result checks
// all run on the main thread (no raw threads; the server owns its workers).
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "nn/models/lenet.hpp"
#include "obs/event_stream.hpp"
#include "obs/metrics.hpp"
#include "rng/xorshift.hpp"
#include "serve/server.hpp"
#include "util/atomic_file.hpp"
#include "util/fault_injection.hpp"
#include "util/json.hpp"
#include "util/steady_clock.hpp"

namespace dropback::serve {
namespace {

namespace T = dropback::tensor;

T::Tensor random_input(std::uint64_t seed) {
  rng::Xorshift128 rng(seed);
  T::Tensor t({1, 12});
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(-1, 1);
  return t;
}

core::SparseWeightStore small_store(std::uint64_t seed) {
  nn::models::Mlp model(12, {8}, 4, seed);
  auto params = model.collect_parameters();
  rng::Xorshift128 rng(seed * 977 + 1);
  for (nn::Parameter* p : params) {
    T::Tensor& v = p->var.value();
    for (int k = 0; k < 5 && k < v.numel(); ++k) {
      v[rng.next_u64() % static_cast<std::uint64_t>(v.numel())] +=
          rng.uniform(0.2F, 0.9F);
    }
  }
  return core::SparseWeightStore::from_params(params);
}

TEST(ServeChaos, TwoXOverloadWithFaultsNoCrashBoundedP99) {
  obs::MetricsRegistry::global().reset();
  const std::string dir = ::testing::TempDir() + "serve_chaos";
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  const std::vector<std::string> models = {"m0", "m1", "m2", "m3"};
  for (std::size_t i = 0; i < models.size(); ++i) {
    small_store(50 + i).save_file(dir + "/" + models[i] + ".dbsw");
  }
  small_store(99).save_file(dir + "/fallback.dbsw");
  // One variant is corrupt for the whole run: every request for it rides
  // the quarantine -> fallback ladder and must come back degraded.
  {
    std::string bytes = util::read_file(dir + "/m3.dbsw");
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^
                                                0xFF);
    util::atomic_write_file(
        dir + "/m3.dbsw",
        [&](std::ostream& out) { out << bytes; });
  }

  constexpr std::int64_t kDeadlineUs = 50'000;
  auto events_sink = std::make_unique<obs::MemorySink>();
  obs::MemorySink* events = events_sink.get();
  obs::EventStream stream(std::move(events_sink));

  ServerConfig config;
  config.threads = 3;
  config.admission = {/*queue_capacity=*/48, /*max_inflight=*/64};
  config.batch.max_batch = 4;
  config.cache.dir = dir;
  config.cache.capacity = 2;  // < variant count: constant reload pressure
  config.cache.max_load_attempts = 2;
  config.cache.retry_backoff_us = 200;
  config.cache.quarantine_us = 20'000;
  config.cache.fallback_model = "fallback";
  config.default_deadline_us = kDeadlineUs;
  config.events = &stream;
  // The MLP forward is sub-microsecond, far too fast for an open-loop
  // driver on one thread to outrun three workers. The chaos hook gives
  // every batch execution a real, measurable cost so "2x the measured
  // service rate" is genuine sustained overload, not noise.
  util::ClockSource& clock = util::steady_clock_source();
  config.chaos_hook = [&clock](const char* stage) {
    if (std::string_view(stage) == "exec") clock.sleep_us(3'000);
  };
  InferenceServer server(config);

  // Phase A — measure pipelined service capacity: submit a burst that
  // keeps all workers busy, then divide the drain time across it. (A
  // serial closed loop would measure latency, not throughput, and "2x"
  // of that would still be under capacity.)
  constexpr int kProbe = 40;  // < queue_capacity: the probe is never shaped
  const std::int64_t probe_start = clock.now_us();
  {
    std::vector<std::shared_ptr<ResponseSlot>> probe;
    for (int i = 0; i < kProbe; ++i) {
      // Generous explicit deadline: the probe measures capacity and must
      // stay clean even on a sanitizer-slowed or loaded CI box.
      probe.push_back(
          server.submit(models[i % 3], random_input(i), 5'000'000));
    }
    for (const auto& slot : probe) ASSERT_TRUE(slot->wait_us(5'000'000));
    for (const auto& slot : probe) {
      ASSERT_EQ(slot->outcome(), Outcome::kOk) << outcome_name(
          slot->outcome());
    }
  }
  const std::int64_t per_request_us =
      std::max<std::int64_t>(1, (clock.now_us() - probe_start) / kProbe);

  // Phase B — open-loop overload at 2x measured capacity for a fixed
  // window, re-arming a rotating read fault throughout. Fire-and-forget:
  // slots are kept and checked after the storm.
  //
  // The probe can be inflated on a sanitizer-slowed or co-loaded host
  // (instrumented locks, cold variant loads), and pacing at half of an
  // inflated measurement sits below true capacity — the storm then never
  // sheds or rejects anything. The chaos hook bounds true service time
  // from below: 3ms per batch of <=4 across 3 workers is 250us/request,
  // so clamping the gap to half that floor keeps the offered load a
  // genuine overload no matter what the probe measured.
  const std::int64_t submit_gap_us =
      std::min<std::int64_t>(per_request_us / 2, 125);  // 2x offered load
  constexpr std::int64_t kStormUs = 400'000;
  std::vector<std::shared_ptr<ResponseSlot>> slots;
  const util::FaultSpec kFaults[] = {
      {util::FaultKind::kReadError, 0},
      {util::FaultKind::kShortRead, 32},
      {util::FaultKind::kStall, 1},
  };
  // Pace against absolute due-times: sleep_us oversleeps by tens of
  // microseconds per call, and naive sleep-per-iteration pacing would eat
  // the entire overload margin. Falling behind schedule self-corrects by
  // submitting back-to-back until caught up.
  const std::int64_t storm_start = clock.now_us();
  std::int64_t next_due_us = storm_start;
  for (std::uint64_t i = 0; clock.now_us() - storm_start < kStormUs; ++i) {
    const std::int64_t now = clock.now_us();
    if (now < next_due_us) clock.sleep_us(next_due_us - now);
    if (i % 16 == 0) util::arm_fault(kFaults[(i / 16) % 3]);
    slots.push_back(
        server.submit(models[i % models.size()], random_input(1000 + i)));
    next_due_us += submit_gap_us;
  }
  util::disarm_fault();

  // Zero crashes / zero stranded slots: everything resolves.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    ASSERT_TRUE(slots[i]->wait_us(10'000'000)) << "request " << i;
    ASSERT_NE(slots[i]->outcome(), Outcome::kPending);
  }
  server.stop();

  // Accounting identities, exact.
  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(slots.size()) +
                             static_cast<std::uint64_t>(kProbe));
  EXPECT_EQ(s.submitted, s.admitted + s.rejected());
  EXPECT_EQ(s.admitted, s.ok + s.shed() + s.unavailable);

  // The overload and the corrupt variant actually bit: the robustness
  // machinery engaged (load was shaped and/or shed) and degraded serving
  // happened. m3 requests can never be clean-ok.
  EXPECT_GT(s.ok, 0U);
  EXPECT_GT(s.degraded, 0U);
  EXPECT_GT(s.rejected() + s.shed(), 0U);
  auto& reg = obs::MetricsRegistry::global();
  EXPECT_GE(reg.counter("serve.cache.quarantine").value(), 1U);

  // Bounded p99: strict deadline semantics make every kOk latency at most
  // deadline + the deliver window; assert with generous slack for CI noise.
  std::vector<std::int64_t> ok_latencies;
  for (const auto& slot : slots) {
    if (slot->outcome() == Outcome::kOk) {
      ok_latencies.push_back(slot->latency_us());
    }
  }
  if (!ok_latencies.empty()) {
    std::sort(ok_latencies.begin(), ok_latencies.end());
    const std::int64_t p99 =
        ok_latencies[ok_latencies.size() * 99 / 100];
    EXPECT_LE(p99, kDeadlineUs + 25'000);
  }

  // Telemetry joined up: the summary event totals match the registry and
  // incident lines parse as flat JSON with typed outcomes.
  stream.flush();
  ASSERT_FALSE(events->lines().empty());
  const auto summary = util::parse_flat_object(events->lines().back());
  ASSERT_EQ(summary.at("type").string, "serve_summary");
  EXPECT_EQ(static_cast<std::uint64_t>(summary.at("submitted").number),
            s.submitted);
  EXPECT_EQ(static_cast<std::uint64_t>(summary.at("shed").number), s.shed());
  EXPECT_EQ(static_cast<std::uint64_t>(summary.at("degraded").number),
            s.degraded);
  EXPECT_GE(summary.at("quarantined").number, 1.0);
  bool saw_incident = false;
  for (const auto& line : events->lines()) {
    const auto record = util::parse_flat_object(line);
    if (record.at("type").string == "serve_incident") {
      saw_incident = true;
      EXPECT_FALSE(record.at("outcome").string.empty());
    }
  }
  EXPECT_TRUE(saw_incident);

  // The metrics snapshot carries the serve counters for scrapers.
  EXPECT_NE(reg.snapshot_json().find("serve.submitted"), std::string::npos);
}

}  // namespace
}  // namespace dropback::serve
