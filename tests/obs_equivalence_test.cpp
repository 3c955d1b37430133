// Telemetry non-perturbation contract (ISSUE 3, extended by ISSUE 8):
// enabling --metrics-out, --profile, or span tracing must leave training
// BITWISE identical — final weights and checkpoint bytes — at 1 and 2
// threads, and tracing must leave served outputs bitwise identical too. The
// instrumentation only reads clocks and optimizer state, and this test is
// the proof: an instrumented run is memcmp-equal to a bare run, and the
// parallel-vs-serial contract from docs/PARALLELISM.md survives with
// instrumentation on.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/dropback_optimizer.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/models/lenet.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "rng/xorshift.hpp"
#include "serve/server.hpp"
#include "train/trainer.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace dropback {
namespace {

struct RunArtifacts {
  std::vector<float> weights;      ///< every parameter value, flattened
  std::string checkpoint_bytes;    ///< final on-disk snapshot, verbatim
  std::string metrics_bytes;       ///< JSONL stream ("" when not requested)
};

/// One short DropBack MNIST run under `threads` threads, optionally with
/// the full telemetry stack (event stream + profiler + span tracing)
/// enabled. Everything is seeded, so two calls differ only in
/// instrumentation and thread count.
RunArtifacts run_training(int threads, bool instrument,
                          const std::string& tag, bool trace = false) {
  util::set_num_threads(threads);
  if (instrument) {
    obs::reset_profile();
    obs::set_profiling_enabled(true);
  }
  if (trace) {
    obs::reset_trace();
    obs::set_tracing_enabled(true);
  }

  data::SyntheticMnistOptions data_opt;
  data_opt.num_samples = 64;
  data_opt.seed = 1;
  auto train_set = data::make_synthetic_mnist(data_opt);
  data_opt.num_samples = 32;
  data_opt.seed = 2;
  auto val_set = data::make_synthetic_mnist(data_opt);

  auto model = nn::models::make_mnist_100_100(3);
  auto params = model->collect_parameters();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(2000);
  core::DropBackOptimizer opt(params, 0.1F, config);

  train::TrainConfig options;
  options.epochs = 2;
  options.batch_size = 16;
  options.checkpoint_path = ::testing::TempDir() + "/obs_eq_" + tag + ".dbts";
  options.checkpoint_every = 3;
  if (instrument) {
    options.metrics_out = ::testing::TempDir() + "/obs_eq_" + tag + ".jsonl";
  }
  train::Trainer trainer(*model, opt, *train_set, *val_set, options);
  trainer.run();

  if (instrument) obs::set_profiling_enabled(false);
  if (trace) obs::set_tracing_enabled(false);
  util::set_num_threads(1);

  RunArtifacts out;
  for (auto* p : params) {
    const float* w = p->var.value().data();
    out.weights.insert(out.weights.end(), w, w + p->numel());
  }
  out.checkpoint_bytes = util::read_file(options.checkpoint_path);
  if (instrument) out.metrics_bytes = util::read_file(options.metrics_out);
  return out;
}

::testing::AssertionResult weights_bitwise_equal(
    const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "weight count mismatch: " << a.size() << " vs " << b.size();
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "first bit difference at weight " << i << ": " << a[i]
               << " vs " << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

class ObsEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::set_num_threads(1);
    obs::set_profiling_enabled(false);
    obs::reset_profile();
    obs::set_tracing_enabled(false);
    obs::reset_trace();
  }
  void TearDown() override {
    util::set_num_threads(1);
    obs::set_profiling_enabled(false);
    obs::reset_profile();
    obs::set_tracing_enabled(false);
    obs::reset_trace();
  }
};

TEST_F(ObsEquivalenceTest, InstrumentationIsBitwiseInvisible) {
  const RunArtifacts bare1 = run_training(1, false, "bare1");
  for (int threads : {1, 2}) {
    const std::string tag = "inst" + std::to_string(threads);
    const RunArtifacts inst = run_training(threads, true, tag);
    EXPECT_TRUE(weights_bitwise_equal(bare1.weights, inst.weights))
        << "instrumented @" << threads << " threads";
    EXPECT_EQ(bare1.checkpoint_bytes, inst.checkpoint_bytes)
        << "checkpoint bytes differ with instrumentation @" << threads;
    EXPECT_FALSE(inst.metrics_bytes.empty());
  }
}

TEST_F(ObsEquivalenceTest, BareParallelRunStaysBitwiseIdenticalToo) {
  // Guards the other direction: 2 uninstrumented threads still match the
  // serial reference, so the obs wiring did not break the PR-1 contract.
  const RunArtifacts bare1 = run_training(1, false, "pbare1");
  const RunArtifacts bare2 = run_training(2, false, "pbare2");
  EXPECT_TRUE(weights_bitwise_equal(bare1.weights, bare2.weights));
  EXPECT_EQ(bare1.checkpoint_bytes, bare2.checkpoint_bytes);
}

TEST_F(ObsEquivalenceTest, TracingIsBitwiseInvisibleToTraining) {
  const RunArtifacts bare1 = run_training(1, false, "tbare1");
  for (int threads : {1, 2}) {
    const std::string tag = "trace" + std::to_string(threads);
    const RunArtifacts traced =
        run_training(threads, false, tag, /*trace=*/true);
    EXPECT_TRUE(weights_bitwise_equal(bare1.weights, traced.weights))
        << "traced @" << threads << " threads";
    EXPECT_EQ(bare1.checkpoint_bytes, traced.checkpoint_bytes)
        << "checkpoint bytes differ with tracing @" << threads;
    // The run really was traced — the invisibility is not vacuous.
    EXPECT_FALSE(obs::TraceCollector::collect().spans.empty());
  }
}

/// Serves the same seeded inputs and returns every output tensor's raw
/// bytes, concatenated in request order.
std::string serve_outputs(const std::string& dir, int threads, bool trace) {
  obs::reset_trace();
  obs::set_tracing_enabled(trace);
  serve::ServerConfig config;
  config.threads = threads;
  config.batch.max_batch = 4;
  config.cache.dir = dir;
  config.default_deadline_us = 10'000'000;
  serve::InferenceServer server(config);

  constexpr int kRequests = 16;
  std::vector<std::shared_ptr<serve::ResponseSlot>> slots;
  for (int i = 0; i < kRequests; ++i) {
    rng::Xorshift128 rng(7000 + i);
    tensor::Tensor input({1, 12});
    for (std::int64_t k = 0; k < input.numel(); ++k) {
      input[k] = rng.uniform(-1, 1);
    }
    slots.push_back(server.submit("m0", input));
  }
  std::string bytes;
  for (auto& slot : slots) {
    EXPECT_TRUE(slot->wait_us(10'000'000));
    EXPECT_EQ(slot->outcome(), serve::Outcome::kOk) << slot->error();
    const tensor::Tensor& out = slot->output();
    bytes.append(reinterpret_cast<const char*>(out.data()),
                 static_cast<std::size_t>(out.numel()) * sizeof(float));
  }
  server.stop();
  obs::set_tracing_enabled(false);
  return bytes;
}

TEST_F(ObsEquivalenceTest, TracingIsBitwiseInvisibleToServing) {
  const std::string dir = ::testing::TempDir() + "obs_eq_variants";
  ::mkdir(dir.c_str(), 0755);
  {
    // A tiny MLP variant is enough; reuse the training-free store recipe
    // from serve_test: perturb a few weights so the store is nontrivial.
    nn::models::Mlp mlp(12, {8}, 4, 10);
    auto params = mlp.collect_parameters();
    rng::Xorshift128 rng(10 ^ 0x5eedF00dULL);
    for (nn::Parameter* p : params) {
      tensor::Tensor& v = p->var.value();
      for (int k = 0; k < 5 && k < v.numel(); ++k) {
        v[rng.next_u64() % static_cast<std::uint64_t>(v.numel())] +=
            rng.uniform(0.2F, 0.9F);
      }
    }
    core::SparseWeightStore::from_params(params).save_file(dir + "/m0.dbsw");
  }
  for (int threads : {1, 2}) {
    const std::string bare = serve_outputs(dir, threads, false);
    const std::string traced = serve_outputs(dir, threads, true);
    ASSERT_FALSE(bare.empty());
    EXPECT_EQ(bare, traced) << "served bytes differ with tracing @"
                            << threads << " threads";
    // And the traced pass actually recorded spans.
    EXPECT_FALSE(obs::TraceCollector::collect().spans.empty());
  }
}

TEST_F(ObsEquivalenceTest, StreamCarriesChurnAndLatency) {
  const RunArtifacts inst = run_training(1, true, "stream");
  ASSERT_FALSE(inst.metrics_bytes.empty());
  int steps = 0, summaries = 0;
  bool churn_seen = false, latency_seen = false;
  std::size_t pos = 0;
  while (pos < inst.metrics_bytes.size()) {
    std::size_t end = inst.metrics_bytes.find('\n', pos);
    if (end == std::string::npos) end = inst.metrics_bytes.size();
    const std::string line = inst.metrics_bytes.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    const auto rec = util::parse_flat_object(line);  // throws on corruption
    const std::string& type = rec.at("type").string;
    if (type == "step") {
      ++steps;
      if (rec.at("churn_in").type == util::JsonValue::Type::kNumber &&
          rec.at("tracked").number > 0) {
        churn_seen = true;
      }
      if (rec.at("step_ms").number > 0 &&
          rec.at("forward_ms").type == util::JsonValue::Type::kNumber) {
        latency_seen = true;
      }
    } else if (type == "summary") {
      ++summaries;
      EXPECT_EQ(rec.at("steps").number, static_cast<double>(steps));
    }
  }
  EXPECT_EQ(steps, 8);  // 64 samples / batch 16 * 2 epochs
  EXPECT_EQ(summaries, 1);
  EXPECT_TRUE(churn_seen);
  EXPECT_TRUE(latency_seen);
}

TEST_F(ObsEquivalenceTest, ProfileAttributesTrainingRegions) {
  run_training(1, true, "profile");
  const obs::ProfileReport report = obs::collect_profile();
  ASSERT_NE(report.find("step"), nullptr);
  for (const char* region :
       {"step/forward", "step/backward", "step/optimizer_step"}) {
    EXPECT_NE(report.find(region), nullptr) << region;
  }
  EXPECT_GE(report.child_coverage("step"), 0.9);
}

}  // namespace
}  // namespace dropback
