// Inference-server robustness suite (docs/SERVING.md):
//   * admission control — typed rejection reasons at queue/in-flight limits;
//   * deadline shedding — queue/batch/exec stages shed expired requests
//     (proved with a ManualClock, no real sleeping);
//   * micro-batching — same-model batch formation, and the acceptance
//     criterion that served outputs are bitwise identical to the embedded
//     RegenMlp forward (examples/embedded_inference.cpp path) at 1 and N
//     server threads;
//   * LRU variant cache — hit/miss/evict behaviour and counters;
//   * shutdown — every admitted request resolves, accounting identities
//     hold.
// Concurrent submitters go through util::ThreadPool (docs/PARALLELISM.md);
// this suite never spawns raw threads.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "nn/models/lenet.hpp"
#include "obs/metrics.hpp"
#include "rng/xorshift.hpp"
#include "serve/batcher.hpp"
#include "serve/queue.hpp"
#include "serve/store_cache.hpp"
#include "util/steady_clock.hpp"
#include "util/thread_pool.hpp"

namespace dropback::serve {
namespace {

namespace T = dropback::tensor;

T::Tensor random_input(std::uint64_t seed, std::int64_t width = 12) {
  rng::Xorshift128 rng(seed);
  T::Tensor t({1, width});
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(-1, 1);
  return t;
}

/// A small MLP store with nontrivial tracked entries: perturb a few weights
/// away from their init so from_params records them (no training needed).
core::SparseWeightStore small_store(std::uint64_t seed, std::int64_t in = 12,
                                    std::int64_t hidden = 8,
                                    std::int64_t classes = 4) {
  nn::models::Mlp model(in, {hidden}, classes, seed);
  auto params = model.collect_parameters();
  rng::Xorshift128 rng(seed ^ 0x5eedF00dULL);
  for (nn::Parameter* p : params) {
    T::Tensor& v = p->var.value();
    for (int k = 0; k < 5 && k < v.numel(); ++k) {
      v[rng.next_u64() % static_cast<std::uint64_t>(v.numel())] +=
          rng.uniform(0.2F, 0.9F);
    }
  }
  return core::SparseWeightStore::from_params(params);
}

std::string variant_dir() {
  const std::string dir = ::testing::TempDir() + "serve_variants";
  (void)std::remove(dir.c_str());
  return dir;
}

void write_variant(const std::string& dir, const std::string& id,
                   std::uint64_t seed) {
  small_store(seed).save_file(dir + "/" + id + ".dbsw");
}

PendingRequest make_pending(std::uint64_t id, const std::string& model,
                            std::int64_t deadline_us) {
  PendingRequest p;
  p.request.id = id;
  p.request.model_id = model;
  p.request.input = random_input(id);
  p.request.deadline_us = deadline_us;
  p.slot = std::make_shared<ResponseSlot>();
  return p;
}

// --------------------------------------------------------------------------
// Request / ResponseSlot
// --------------------------------------------------------------------------

TEST(ServeRequest, OutcomeNamesAreStable) {
  EXPECT_STREQ(outcome_name(Outcome::kOk), "ok");
  EXPECT_STREQ(outcome_name(Outcome::kRejectedQueueFull),
               "rejected_queue_full");
  EXPECT_STREQ(outcome_name(Outcome::kShedExecDeadline),
               "shed_exec_deadline");
  EXPECT_STREQ(outcome_name(Outcome::kModelUnavailable), "model_unavailable");
  EXPECT_TRUE(is_rejection(Outcome::kRejectedInflight));
  EXPECT_FALSE(is_rejection(Outcome::kShedShutdown));
  EXPECT_TRUE(is_shed(Outcome::kShedQueueDeadline));
  EXPECT_FALSE(is_shed(Outcome::kOk));
}

TEST(ServeRequest, FirstDeliverWins) {
  ResponseSlot slot;
  EXPECT_FALSE(slot.ready());
  EXPECT_FALSE(slot.wait_us(1000));
  slot.deliver(Outcome::kOk, T::Tensor({1, 2}), "m0", false, "", 42);
  slot.deliver(Outcome::kShedExecDeadline, T::Tensor{}, "", false, "late",
               99);
  EXPECT_TRUE(slot.wait_us(1));
  EXPECT_EQ(slot.outcome(), Outcome::kOk);
  EXPECT_EQ(slot.served_model(), "m0");
  EXPECT_EQ(slot.latency_us(), 42);
}

// --------------------------------------------------------------------------
// RequestQueue admission + deadline shedding
// --------------------------------------------------------------------------

TEST(ServeQueue, AdmissionControlGivesTypedReasons) {
  util::ManualClock clock;
  RequestQueue q({/*queue_capacity=*/2, /*max_inflight=*/3}, &clock);

  EXPECT_EQ(q.admit(make_pending(1, "m", 100)), Outcome::kPending);
  EXPECT_EQ(q.admit(make_pending(2, "m", 100)), Outcome::kPending);
  EXPECT_EQ(q.admit(make_pending(3, "m", 100)), Outcome::kRejectedQueueFull);
  EXPECT_EQ(q.depth(), 2U);
  EXPECT_EQ(q.inflight(), 2U);

  // Pop both (still in flight) and admit one more: the in-flight budget
  // (3) binds before queue capacity does.
  PendingRequest out;
  std::vector<PendingRequest> expired;
  ASSERT_TRUE(q.pop(0, &out, &expired));
  ASSERT_TRUE(q.pop(0, &out, &expired));
  EXPECT_EQ(q.admit(make_pending(4, "m", 100)), Outcome::kPending);
  EXPECT_EQ(q.admit(make_pending(5, "m", 100)), Outcome::kRejectedInflight);

  q.complete();  // one resolution frees one in-flight slot
  EXPECT_EQ(q.admit(make_pending(6, "m", 100)), Outcome::kPending);

  q.shutdown();
  EXPECT_EQ(q.admit(make_pending(7, "m", 100)), Outcome::kRejectedShutdown);
  EXPECT_TRUE(expired.empty());
}

TEST(ServeQueue, PopSkimsExpiredRequests) {
  util::ManualClock clock;
  RequestQueue q({8, 16}, &clock);
  ASSERT_EQ(q.admit(make_pending(1, "m", /*deadline=*/50)), Outcome::kPending);
  ASSERT_EQ(q.admit(make_pending(2, "m", /*deadline=*/500)),
            Outcome::kPending);

  clock.advance_us(100);  // request 1 is now past its deadline
  PendingRequest out;
  std::vector<PendingRequest> expired;
  ASSERT_TRUE(q.pop(0, &out, &expired));
  EXPECT_EQ(out.request.id, 2U);
  ASSERT_EQ(expired.size(), 1U);
  EXPECT_EQ(expired[0].request.id, 1U);
}

TEST(ServeQueue, DrainReturnsEverythingQueued) {
  util::ManualClock clock;
  RequestQueue q({8, 16}, &clock);
  ASSERT_EQ(q.admit(make_pending(1, "a", 100)), Outcome::kPending);
  ASSERT_EQ(q.admit(make_pending(2, "b", 100)), Outcome::kPending);
  const auto drained = q.drain();
  ASSERT_EQ(drained.size(), 2U);
  EXPECT_EQ(q.depth(), 0U);
}

// --------------------------------------------------------------------------
// MicroBatcher
// --------------------------------------------------------------------------

TEST(ServeBatcher, FormsSameModelBatchesOnly) {
  util::ManualClock clock;
  RequestQueue q({8, 16}, &clock);
  ASSERT_EQ(q.admit(make_pending(2, "a", 100)), Outcome::kPending);
  ASSERT_EQ(q.admit(make_pending(3, "b", 100)), Outcome::kPending);
  ASSERT_EQ(q.admit(make_pending(4, "a", 100)), Outcome::kPending);

  MicroBatcher batcher({/*max_batch=*/4});
  std::vector<PendingRequest> shed;
  PendingRequest head;
  ASSERT_TRUE(q.pop(0, &head, &shed));  // id 2, model a
  const auto batch = batcher.form(std::move(head), &q, &shed);
  ASSERT_EQ(batch.size(), 2U);
  EXPECT_EQ(batch[0].request.id, 2U);
  EXPECT_EQ(batch[1].request.id, 4U);
  EXPECT_TRUE(shed.empty());
  EXPECT_EQ(q.depth(), 1U);  // model b untouched
}

TEST(ServeBatcher, RespectsMaxBatchAndShedsExpired) {
  util::ManualClock clock;
  RequestQueue q({8, 16}, &clock);
  ASSERT_EQ(q.admit(make_pending(1, "a", 1000)), Outcome::kPending);
  ASSERT_EQ(q.admit(make_pending(2, "a", 10)), Outcome::kPending);
  ASSERT_EQ(q.admit(make_pending(3, "a", 1000)), Outcome::kPending);
  ASSERT_EQ(q.admit(make_pending(4, "a", 1000)), Outcome::kPending);

  clock.advance_us(100);  // request 2 expires in the queue
  MicroBatcher batcher({/*max_batch=*/2});
  std::vector<PendingRequest> shed;
  PendingRequest head;
  ASSERT_TRUE(q.pop(0, &head, &shed));
  const auto batch = batcher.form(std::move(head), &q, &shed);
  ASSERT_EQ(batch.size(), 2U);
  EXPECT_EQ(batch[0].request.id, 1U);
  EXPECT_EQ(batch[1].request.id, 3U);
  ASSERT_EQ(shed.size(), 1U);
  EXPECT_EQ(shed[0].request.id, 2U);
  EXPECT_EQ(q.depth(), 1U);  // id 4 waits for the next batch
}

TEST(ServeBatcher, StackInputsConcatenatesRows) {
  std::vector<PendingRequest> batch;
  batch.push_back(make_pending(1, "a", 100));
  batch.push_back(make_pending(2, "a", 100));
  const T::Tensor stacked = MicroBatcher::stack_inputs(batch);
  ASSERT_EQ(stacked.shape(), (T::Shape{2, 12}));
  for (std::int64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(stacked[i], batch[0].request.input[i]);
    EXPECT_EQ(stacked[12 + i], batch[1].request.input[i]);
  }
}

// --------------------------------------------------------------------------
// StoreCache: LRU + counters (fault paths live in serve_cache_fault_test)
// --------------------------------------------------------------------------

TEST(ServeCache, HitsMissesAndLruEviction) {
  obs::MetricsRegistry::global().reset();
  const std::string dir = variant_dir();
  ASSERT_EQ(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST, true);
  write_variant(dir, "m0", 10);
  write_variant(dir, "m1", 11);
  write_variant(dir, "m2", 12);

  util::ManualClock clock;
  CacheConfig config;
  config.dir = dir;
  config.capacity = 2;
  StoreCache cache(config, &clock);

  const CacheResult a = cache.get("m0");
  ASSERT_NE(a.variant, nullptr);
  EXPECT_FALSE(a.degraded);
  const CacheResult b = cache.get("m0");  // hit
  EXPECT_EQ(a.variant.get(), b.variant.get());

  ASSERT_NE(cache.get("m1").variant, nullptr);
  EXPECT_EQ(cache.resident(), 2U);
  ASSERT_NE(cache.get("m2").variant, nullptr);  // evicts LRU (m0)
  EXPECT_EQ(cache.resident(), 2U);

  auto& reg = obs::MetricsRegistry::global();
  EXPECT_EQ(reg.counter("serve.cache.hit").value(), 1U);
  EXPECT_EQ(reg.counter("serve.cache.miss").value(), 3U);
  EXPECT_EQ(reg.counter("serve.cache.evict").value(), 1U);

  // The evicted m0 reloads on demand — and an old handle stays valid.
  const CacheResult c = cache.get("m0");
  ASSERT_NE(c.variant, nullptr);
  EXPECT_NE(c.variant.get(), a.variant.get());
  EXPECT_EQ(a.variant->store, c.variant->store);
}

TEST(ServeCache, MissingModelWithoutFallbackIsUnavailable) {
  obs::MetricsRegistry::global().reset();
  const std::string dir = variant_dir();
  ASSERT_EQ(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST, true);

  util::ManualClock clock;
  CacheConfig config;
  config.dir = dir;
  config.retry_backoff_us = 10;
  StoreCache cache(config, &clock);
  const CacheResult r = cache.get("ghost");
  EXPECT_EQ(r.variant, nullptr);
  EXPECT_NE(r.error.find("ghost"), std::string::npos);
  EXPECT_TRUE(cache.is_quarantined("ghost"));
}

// --------------------------------------------------------------------------
// InferenceServer end-to-end
// --------------------------------------------------------------------------

ServerConfig small_server_config(const std::string& dir,
                                 util::ClockSource* clock = nullptr) {
  ServerConfig config;
  config.threads = 1;
  config.cache.dir = dir;
  config.cache.retry_backoff_us = 10;
  config.default_deadline_us = 5'000'000;  // generous: tests shed explicitly
  config.clock = clock;
  return config;
}

TEST(ServeServer, RejectsInvalidInputImmediately) {
  obs::MetricsRegistry::global().reset();
  const std::string dir = variant_dir();
  ASSERT_EQ(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST, true);
  write_variant(dir, "m0", 10);
  InferenceServer server(small_server_config(dir));

  const auto null_input = server.submit("m0", T::Tensor{});
  EXPECT_TRUE(null_input->ready());
  EXPECT_EQ(null_input->outcome(), Outcome::kRejectedInvalid);

  const auto batched = server.submit("m0", T::Tensor({2, 12}));
  EXPECT_EQ(batched->outcome(), Outcome::kRejectedInvalid);

  const auto no_model = server.submit("", random_input(1));
  EXPECT_EQ(no_model->outcome(), Outcome::kRejectedInvalid);
  EXPECT_EQ(server.stats().rejected_invalid, 3U);
  server.stop();
}

TEST(ServeServer, ServesAndMatchesEmbeddedForwardBitwise) {
  obs::MetricsRegistry::global().reset();
  const std::string dir = variant_dir();
  ASSERT_EQ(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST, true);
  write_variant(dir, "m0", 10);

  // Reference: the embedded-inference path (examples/embedded_inference.cpp)
  // — load the DBSW file directly and run RegenMlp on each input.
  const auto store = core::SparseWeightStore::load_file(dir + "/m0.dbsw");
  const inference::RegenMlp embedded(store);

  for (const int threads : {1, 4}) {
    ServerConfig config = small_server_config(dir);
    config.threads = threads;
    config.batch.max_batch = 4;
    InferenceServer server(config);

    constexpr int kRequests = 24;
    std::vector<std::shared_ptr<ResponseSlot>> slots;
    for (int i = 0; i < kRequests; ++i) {
      slots.push_back(server.submit("m0", random_input(100 + i)));
    }
    for (int i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(slots[i]->wait_us(10'000'000)) << "request " << i;
      ASSERT_EQ(slots[i]->outcome(), Outcome::kOk)
          << "request " << i << ": " << slots[i]->error();
      EXPECT_FALSE(slots[i]->degraded());
      EXPECT_EQ(slots[i]->served_model(), "m0");
      const T::Tensor expect = embedded.forward(random_input(100 + i));
      const T::Tensor& got = slots[i]->output();
      ASSERT_EQ(got.shape(), expect.shape());
      for (std::int64_t k = 0; k < expect.numel(); ++k) {
        // Bitwise: micro-batching and thread count must not change numerics.
        EXPECT_EQ(got[k], expect[k])
            << "threads=" << threads << " request=" << i << " logit=" << k;
      }
    }
    server.stop();
  }
}

// The server's workers call RegenMlp::forward concurrently, on the same
// global pool the test thread uses. A 784-wide first layer gives the
// forward real work; with several workers and the test thread running the
// engine at once, any cross-talk between callers shows up as wrong logits
// here (or as a race under TSan).
TEST(ServeServer, WideModelServesBitwiseWhileWorkersShareThePool) {
  obs::MetricsRegistry::global().reset();
  const int pool_threads = util::num_threads();
  util::set_num_threads(4);
  const std::string dir = variant_dir();
  ASSERT_EQ(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST, true);
  constexpr std::int64_t kIn = 784;
  small_store(20, kIn, 32, 10).save_file(dir + "/wide.dbsw");
  const auto store = core::SparseWeightStore::load_file(dir + "/wide.dbsw");
  const inference::RegenMlp embedded(store);

  constexpr int kRequests = 48;
  std::vector<T::Tensor> expect;
  for (int i = 0; i < kRequests; ++i) {
    expect.push_back(embedded.forward(random_input(500 + i, kIn)));
  }
  ServerConfig config = small_server_config(dir);
  config.threads = 3;
  config.batch.max_batch = 2;
  InferenceServer server(config);
  std::vector<std::shared_ptr<ResponseSlot>> slots;
  for (int i = 0; i < kRequests; ++i) {
    slots.push_back(server.submit("wide", random_input(500 + i, kIn)));
  }
  // The test thread runs the engine too, alongside the workers.
  for (int i = 0; i < kRequests; ++i) {
    const T::Tensor again = embedded.forward(random_input(500 + i, kIn));
    EXPECT_EQ(std::memcmp(again.data(), expect[i].data(),
                          static_cast<std::size_t>(again.numel()) *
                              sizeof(float)),
              0)
        << "direct forward " << i;
  }
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(slots[i]->wait_us(10'000'000)) << "request " << i;
    ASSERT_EQ(slots[i]->outcome(), Outcome::kOk)
        << "request " << i << ": " << slots[i]->error();
    const T::Tensor& got = slots[i]->output();
    ASSERT_EQ(got.shape(), expect[i].shape());
    EXPECT_EQ(std::memcmp(got.data(), expect[i].data(),
                          static_cast<std::size_t>(got.numel()) *
                              sizeof(float)),
              0)
        << "served request " << i;
  }
  server.stop();
  util::set_num_threads(pool_threads);
}

TEST(ServeServer, ConcurrentSubmittersAllResolve) {
  obs::MetricsRegistry::global().reset();
  const std::string dir = variant_dir();
  ASSERT_EQ(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST, true);
  write_variant(dir, "m0", 10);
  write_variant(dir, "m1", 11);

  ServerConfig config = small_server_config(dir);
  config.threads = 2;
  config.admission = {/*queue_capacity=*/256, /*max_inflight=*/512};
  InferenceServer server(config);

  constexpr int kPerShard = 16;
  constexpr int kShards = 4;
  std::vector<std::shared_ptr<ResponseSlot>> slots(kShards * kPerShard);
  util::ThreadPool pool(4);
  pool.run(kShards, [&](int shard) {
    for (int i = 0; i < kPerShard; ++i) {
      const int idx = shard * kPerShard + i;
      slots[idx] = server.submit(shard % 2 == 0 ? "m0" : "m1",
                                 random_input(1000 + idx));
    }
  });
  for (auto& slot : slots) {
    ASSERT_TRUE(slot->wait_us(10'000'000));
    EXPECT_EQ(slot->outcome(), Outcome::kOk) << slot->error();
  }
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kShards * kPerShard));
  EXPECT_EQ(s.ok, s.submitted);
}

TEST(ServeServer, ShedsExpiredRequestsWithManualClock) {
  obs::MetricsRegistry::global().reset();
  const std::string dir = variant_dir();
  ASSERT_EQ(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST, true);
  write_variant(dir, "m0", 10);

  util::ManualClock clock;
  ServerConfig config = small_server_config(dir, &clock);
  config.default_deadline_us = 1000;
  // The deadline is virtual, but the worker runs in real time — advancing
  // the clock from this thread would race the worker serving the request.
  // Advance it from inside the worker instead, at the exec stage: the
  // deadline then expires *during* execution no matter who wins the
  // scheduling race, and the post-exec gate must shed the computed result.
  config.chaos_hook = [&clock](const char* stage) {
    if (std::string_view(stage) == "exec") clock.advance_us(10'000);
  };
  InferenceServer server(config);

  const auto slot = server.submit("m0", random_input(7));
  ASSERT_TRUE(slot->wait_us(10'000'000));
  EXPECT_EQ(slot->outcome(), Outcome::kShedExecDeadline)
      << outcome_name(slot->outcome());
  EXPECT_FALSE(slot->output().defined());
  server.stop();
  EXPECT_GE(server.stats().shed(), 1U);
}

TEST(ServeServer, StopResolvesEveryAdmittedRequest) {
  obs::MetricsRegistry::global().reset();
  const std::string dir = variant_dir();
  ASSERT_EQ(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST, true);
  write_variant(dir, "m0", 10);

  ServerConfig config = small_server_config(dir);
  config.admission = {/*queue_capacity=*/64, /*max_inflight=*/128};
  auto server = std::make_unique<InferenceServer>(config);
  std::vector<std::shared_ptr<ResponseSlot>> slots;
  for (int i = 0; i < 32; ++i) {
    slots.push_back(server->submit("m0", random_input(i)));
  }
  server->stop();

  for (auto& slot : slots) {
    ASSERT_TRUE(slot->ready());  // nothing may be stranded after stop()
    const Outcome o = slot->outcome();
    EXPECT_TRUE(o == Outcome::kOk || is_shed(o) || is_rejection(o))
        << outcome_name(o);
  }
  const ServerStats s = server->stats();
  EXPECT_EQ(s.submitted, 32U);
  EXPECT_EQ(s.submitted, s.admitted + s.rejected());
  EXPECT_EQ(s.admitted, s.ok + s.shed() + s.unavailable);

  // Post-stop submits are typed rejections, not crashes.
  const auto late = server->submit("m0", random_input(99));
  EXPECT_EQ(late->outcome(), Outcome::kRejectedShutdown);
  server.reset();  // double-stop via destructor must be a no-op
}

TEST(ServeServer, MissingModelFallsBackDegradedOrFailsTyped) {
  obs::MetricsRegistry::global().reset();
  const std::string dir = variant_dir();
  ASSERT_EQ(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST, true);
  write_variant(dir, "fallback", 42);

  // Without a fallback: typed kModelUnavailable.
  {
    InferenceServer server(small_server_config(dir));
    const auto slot = server.submit("ghost", random_input(1));
    ASSERT_TRUE(slot->wait_us(10'000'000));
    EXPECT_EQ(slot->outcome(), Outcome::kModelUnavailable);
    EXPECT_NE(slot->error().find("ghost"), std::string::npos);
    server.stop();
  }
  // With a fallback: kOk, flagged degraded, served by the fallback.
  {
    ServerConfig config = small_server_config(dir);
    config.cache.fallback_model = "fallback";
    InferenceServer server(config);
    const auto slot = server.submit("ghost", random_input(1));
    ASSERT_TRUE(slot->wait_us(10'000'000));
    ASSERT_EQ(slot->outcome(), Outcome::kOk) << slot->error();
    EXPECT_TRUE(slot->degraded());
    EXPECT_EQ(slot->served_model(), "fallback");
    server.stop();
    EXPECT_EQ(server.stats().degraded, 1U);
  }
}

}  // namespace
}  // namespace dropback::serve
