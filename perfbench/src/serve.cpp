// serve_mix: three MNIST-100-100 DropBack variants at different budgets
// behind one InferenceServer, requests round-robined across them. No
// training code runs; it is the only workload for serve/ and inference/.
//
// The end-to-end run:
//   * set-up: server start plus one request per variant (the cache
//     warm-up), repeated; the median is setup_s;
//   * capacity: a closed loop, one client keeping kWindow requests in
//     flight, in blocks alternating between a 1-worker and a 2-worker
//     server so the 2/1 ratio is taken between neighbouring blocks;
//   * open loop: a fixed absolute rate against the 2-worker server, light
//     enough that no queue forms, each request timed from its due time.
// The traced run repeats the open loop in alternating bare and traced
// stretches and times RegenMlp::forward directly.
//
// The kernel pool stays at 1 thread: the server's workers are the
// parallelism here, and every served kernel runs inline on its worker.
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/sparse_weight_store.hpp"
#include "data/synthetic_mnist.hpp"
#include "inference/regen_forward.hpp"
#include "nn/models/lenet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rng/xorshift.hpp"
#include "serve/server.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace dropback;

/// Tracked-weight budgets of the three variants (of 89,610 weights).
constexpr std::int64_t kBudgets[] = {2000, 10000, 40000};
constexpr std::size_t kMaxBatch = 8;
/// Closed-loop requests in flight: two full micro-batches per worker.
constexpr std::size_t kWindow = 32;
/// Open-loop arrival rate in requests per second. It is fixed here, never
/// derived from a warm-up, so every run and every commit offers the same
/// load. Arrivals are evenly spaced, so each worker sees one request every
/// 1.33 ms against a batch-1 kernel of about 0.75 ms on a 4-core x86 host:
/// no queue forms until a worker runs 1.8 times slower, and a latency is
/// one request's kernel time. Nearer the server's capacity the latency
/// follows the host instead of the code: at 3000 req/s a kernel sat right
/// where queues start to form and p50 jumped between 0.7 and 1.4 ms from
/// run to run; at 6000 req/s (batches of 2-3, workers busy 90% of the
/// time) a slow vCPU grew the batches and the queues with them, and p50
/// spread 23-30% between the runs of a ten-run set on a busy host.
/// Micro-batching is measured by the closed loop, whose batches are full.
constexpr double kOpenLoopRate = 1500.0;
/// Generous, so that nothing is shed at kOpenLoopRate.
constexpr std::int64_t kDeadlineUs = 2'000'000;
constexpr std::int64_t kWaitUs = 30'000'000;
constexpr std::int64_t kInputs = 64;
constexpr int kSetupRepeats = 60;
constexpr int kMinPairs = 3;
constexpr int kOpenLoopSegments = 32;
/// CPUs the harness's own thread keeps busy beside the server's workers.
constexpr std::size_t kClientThreads = 1;
constexpr int kTracePairs = 4;
constexpr int kRegenCalls = 300;

/// A realistically sized store without a training run: perturb a sparse
/// subset of a fresh model's weights so from_params keeps about `budget`.
core::SparseWeightStore make_store(std::int64_t budget, std::uint64_t seed) {
  auto model = nn::models::make_mnist_100_100(seed);
  auto params = model->collect_parameters();
  const std::int64_t total = model->num_params();
  rng::Xorshift128 rng(seed * 31 + 7);
  for (nn::Parameter* p : params) {
    tensor::Tensor& v = p->var.value();
    const auto share = static_cast<std::int64_t>(
        static_cast<double>(budget) * static_cast<double>(v.numel()) /
        static_cast<double>(total));
    for (std::int64_t k = 0; k < share; ++k) {
      v[static_cast<std::int64_t>(rng.next_u64() %
                                  static_cast<std::uint64_t>(v.numel()))] +=
          rng.uniform(0.2F, 0.9F);
    }
  }
  return core::SparseWeightStore::from_params(params);
}

struct Fixture {
  std::string dir;
  std::vector<std::string> models;
  std::vector<tensor::Tensor> inputs;  ///< [1, 1, 28, 28] each
  /// expected[m][i]: RegenMlp::forward of inputs[i] on models[m].
  std::vector<std::vector<tensor::Tensor>> expected;
};

/// Writes the variant files (atomic write + fsync, before any clock
/// starts) and computes every reference output.
Fixture write_fixture(const Options& options) {
  Fixture f;
  f.dir = options.work_dir;
  std::filesystem::create_directories(f.dir);
  for (std::size_t m = 0; m < std::size(kBudgets); ++m) {
    f.models.push_back("v" + std::to_string(kBudgets[m]));
    make_store(kBudgets[m], options.seed * 3 + m)
        .save_file(f.dir + "/" + f.models[m] + ".dbsw");
  }
  data::SyntheticMnistOptions data;
  data.num_samples = kInputs;
  data.seed = options.seed;
  const auto images = data::make_synthetic_mnist(data);
  for (std::int64_t i = 0; i < kInputs; ++i) {
    f.inputs.push_back(images->slice(i, 1).images);
  }
  for (const std::string& model : f.models) {
    const core::SparseWeightStore store =
        core::SparseWeightStore::load_file(f.dir + "/" + model + ".dbsw");
    const inference::RegenMlp engine(store);
    f.expected.emplace_back();
    for (const tensor::Tensor& input : f.inputs) {
      f.expected.back().push_back(engine.forward(input));
    }
  }
  return f;
}

serve::ServerConfig server_config(const Fixture& f, int workers) {
  serve::ServerConfig config;
  config.threads = workers;
  config.admission.queue_capacity = 4096;
  config.admission.max_inflight = 4096;
  config.batch.max_batch = kMaxBatch;
  config.cache.dir = f.dir;
  config.cache.capacity = 4;
  config.default_deadline_us = kDeadlineUs;
  return config;
}

struct Req {
  std::size_t model;
  std::size_t input;
};

/// Request i of a run: round-robin over the variants, cycling the inputs.
Req request_at(std::uint64_t i, const Fixture& f) {
  return {static_cast<std::size_t>(i % f.models.size()),
          static_cast<std::size_t>((i / f.models.size()) % f.inputs.size())};
}

/// Compares served outputs with the RegenMlp reference, bit for bit. Every
/// outcome other than an on-time, non-degraded kOk is a failed operation.
class Checker {
 public:
  Checker(const Fixture& f, Result& result, bool corrupt_one)
      : f_(f), result_(result), corrupt_next_(corrupt_one) {}

  bool check(const Req& req, const serve::ResponseSlot& slot) {
    bool ok = slot.ready() && slot.outcome() == serve::Outcome::kOk &&
              !slot.degraded();
    if (ok) {
      const tensor::Tensor& out = slot.output();
      const tensor::Tensor& want = f_.expected[req.model][req.input];
      std::vector<float> got(out.data(), out.data() + out.numel());
      if (corrupt_next_ && !got.empty()) {
        got[0] = std::nextafter(got[0], INFINITY);
        corrupt_next_ = false;
      }
      ok = out.numel() == want.numel() &&
           std::memcmp(got.data(), want.data(),
                       got.size() * sizeof(float)) == 0;
    }
    result_.count(ok);
    return ok;
  }

 private:
  const Fixture& f_;
  Result& result_;
  bool corrupt_next_;
};

/// Server start plus the cache warm-up: one request per variant.
std::unique_ptr<serve::InferenceServer> start_server(const Fixture& f,
                                                     int workers,
                                                     Checker& checker) {
  auto server =
      std::make_unique<serve::InferenceServer>(server_config(f, workers));
  for (std::size_t m = 0; m < f.models.size(); ++m) {
    const Req req{m, 0};
    const auto slot = server->submit(f.models[m], f.inputs[0]);
    slot->wait_us(kWaitUs);
    checker.check(req, *slot);
  }
  return server;
}

/// Closed loop: one client keeps kWindow requests in flight until `count`
/// have completed. Returns requests per second.
double closed_loop(serve::InferenceServer& server, const Fixture& f,
                   std::int64_t count, std::uint64_t& next,
                   Checker& checker) {
  std::deque<std::pair<Req, std::shared_ptr<serve::ResponseSlot>>> inflight;
  std::int64_t submitted = 0;
  const std::int64_t begin = now_ns();
  while (submitted < count || !inflight.empty()) {
    while (submitted < count && inflight.size() < kWindow) {
      const Req req = request_at(next++, f);
      inflight.emplace_back(
          req, server.submit(f.models[req.model], f.inputs[req.input]));
      ++submitted;
    }
    inflight.front().second->wait_us(kWaitUs);
    checker.check(inflight.front().first, *inflight.front().second);
    inflight.pop_front();
  }
  return static_cast<double>(count) / seconds(now_ns() - begin);
}

struct OpenLoop {
  std::vector<double> latency_ms;  ///< due time to delivery, kOk only
  std::vector<double> late_ms;     ///< submit time minus due time
};

/// Open loop at kOpenLoopRate for `duration_ns`: request i is due at
/// start + i / rate whatever happened before it, and is timed from then.
/// The generator spins between due times instead of sleeping: on a VM a
/// sleeping vCPU halts, and on a busy host waking it took milliseconds
/// (a late p90 of 3.6 ms at 1500 req/s).
void open_loop(serve::InferenceServer& server, const Fixture& f,
               std::int64_t duration_ns, std::uint64_t& next,
               Checker& checker, OpenLoop& out) {
  struct Sent {
    Req req;
    std::shared_ptr<serve::ResponseSlot> slot;
    std::int64_t due_ns;
    std::int64_t sent_ns;
  };
  const double gap_ns = 1e9 / kOpenLoopRate;
  std::vector<Sent> sent;
  sent.reserve(static_cast<std::size_t>(
      static_cast<double>(duration_ns) / gap_ns + 1.0));
  const std::int64_t start = now_ns();
  for (std::int64_t i = 0;; ++i) {
    const std::int64_t due =
        start + static_cast<std::int64_t>(static_cast<double>(i) * gap_ns);
    if (due - start >= duration_ns) break;
    while (now_ns() < due) {
    }
    const Req req = request_at(next++, f);
    const std::int64_t sent_at = now_ns();
    sent.push_back({req,
                    server.submit(f.models[req.model], f.inputs[req.input]),
                    due, sent_at});
  }
  for (const Sent& s : sent) {
    s.slot->wait_us(kWaitUs);
    const double late = ms(s.sent_ns - s.due_ns);
    out.late_ms.push_back(late);
    if (checker.check(s.req, *s.slot)) {
      out.latency_ms.push_back(late +
                               static_cast<double>(s.slot->latency_us()) /
                                   1e3);
    }
  }
}

/// Flags a run whose generator fell behind its schedule by more than one
/// inter-arrival gap at p90; its latencies still count from the due times.
void flag_late(const std::vector<double>& late_ms, Result& result) {
  const double late_p90 = quantile(late_ms, 0.9);
  if (late_p90 > 1e3 / kOpenLoopRate) {
    result.note("open-loop generator fell behind: late p90 " +
                std::to_string(late_p90) + " ms");
  }
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

double median_forward_us(const inference::RegenMlp& engine,
                         const tensor::Tensor& x, int calls) {
  std::vector<double> us;
  for (int i = 0; i < calls; ++i) {
    const std::int64_t begin = now_ns();
    const tensor::Tensor y = engine.forward(x);
    us.push_back(static_cast<double>(now_ns() - begin) / 1e3);
  }
  return median(us);
}

void measure(const Options& options, const Fixture& f, CpuPicker& cpus,
             Checker& checker, Result& result) {
  result.set("setup_s",
             time_setup(options.tiny ? 2 : kSetupRepeats, cpus,
                        kClientThreads + 2,
                        [&] { return start_server(f, 2, checker); }));

  auto one = start_server(f, 1, checker);
  auto two = start_server(f, 2, checker);
  const std::int64_t block = options.tiny ? 40 : 400;
  std::uint64_t next = 0;
  std::vector<double> rate_1w;
  std::vector<double> speedup;
  const std::int64_t capacity_end =
      now_ns() + static_cast<std::int64_t>(options.seconds * 0.45e9);
  for (int pair = 0; pair < kMinPairs || now_ns() < capacity_end; ++pair) {
    double rate[3] = {0.0, 0.0, 0.0};
    for (int side = 0; side < 2; ++side) {
      const int workers = 1 + (pair + side) % 2;
      cpus.pick(kClientThreads + workers);
      rate[workers] = closed_loop(workers == 1 ? *one : *two, f, block, next,
                                  checker);
    }
    rate_1w.push_back(rate[1]);
    speedup.push_back(rate[2] / rate[1]);
  }
  one->stop();

  // The open loop runs in segments, each drained before the next, so that
  // CPUs are picked while the server is idle.
  OpenLoop loop;
  for (int segment = 0; segment < kOpenLoopSegments; ++segment) {
    cpus.pick(kClientThreads + 2);
    open_loop(*two, f,
              static_cast<std::int64_t>(options.seconds * 0.45e9 /
                                        kOpenLoopSegments),
              next, checker, loop);
  }
  two->stop();
  flag_late(loop.late_ms, result);
  result.set("samples_per_s", quantile(rate_1w, kFastShare));
  result.set("speedup_2t", median(speedup));
  result.set("latency_ms_p50", windowed_quantile(loop.latency_ms, 0.5));
  result.set("latency_ms_p90", windowed_quantile(loop.latency_ms, 0.9));
  result.set("peak_rss_mb", peak_rss_mb());
}

void measure_layers(const Options& options, const Fixture& f,
                    CpuPicker& cpus, Checker& checker, Result& result) {
  cpus.pick(1);
  {
    const core::SparseWeightStore store = core::SparseWeightStore::load_file(
        f.dir + "/" + f.models[1] + ".dbsw");
    const inference::RegenMlp engine(store);
    tensor::Tensor batch8({8, 1, 28, 28});
    for (std::int64_t i = 0; i < 8; ++i) {
      std::memcpy(batch8.data() + i * 784, f.inputs[i].data(),
                  784 * sizeof(float));
    }
    const int calls = options.tiny ? 20 : kRegenCalls;
    result.set("regen.forward_b1_us",
               median_forward_us(engine, f.inputs[0], calls));
    result.set("regen.forward_b8_us",
               median_forward_us(engine, batch8, calls));
  }

  // Worker rings hold every span of the traced stretches (about six per
  // request) so the segment medians see all of them.
  obs::set_trace_ring_capacity(1 << 18);
  obs::reset_trace();
  auto two = start_server(f, 2, checker);
  const std::uint64_t hits_before = counter("serve.cache.hit");
  const std::uint64_t misses_before = counter("serve.cache.miss");
  const std::int64_t stretch_ns = static_cast<std::int64_t>(
      options.seconds * 0.8e9 / (2 * kTracePairs));
  std::uint64_t next = 0;
  std::vector<double> overhead;
  std::vector<double> late_ms;
  double traced_requests = 0.0;
  for (int pair = 0; pair < kTracePairs; ++pair) {
    double p50[2] = {0.0, 0.0};
    for (int side = 0; side < 2; ++side) {
      const bool traced = (pair + side) % 2 == 1;
      // Toggled only while the server is idle: open_loop returns after
      // every request it sent has resolved.
      cpus.pick(kClientThreads + 2);
      obs::set_tracing_enabled(traced);
      OpenLoop loop;
      open_loop(*two, f, stretch_ns, next, checker, loop);
      obs::set_tracing_enabled(false);
      p50[traced ? 1 : 0] = quantile(loop.latency_ms, 0.5);
      late_ms.insert(late_ms.end(), loop.late_ms.begin(), loop.late_ms.end());
      if (traced) traced_requests += static_cast<double>(loop.late_ms.size());
    }
    overhead.push_back(p50[1] / p50[0]);
  }
  const double hits = static_cast<double>(counter("serve.cache.hit") -
                                          hits_before);
  const double misses = static_cast<double>(counter("serve.cache.miss") -
                                            misses_before);
  two->stop();  // joins the workers: the rings are quiescent
  const obs::TraceSnapshot snapshot = obs::TraceCollector::collect();
  if (snapshot.dropped > 0) {
    result.note("serve spans dropped: " + std::to_string(snapshot.dropped));
  }
  std::map<std::string, std::vector<double>> segment_ms;
  double batches = 0.0;
  for (const obs::SpanRecord& span : snapshot.spans) {
    if (span.name == "forward") {
      batches += 1.0;
    } else {
      segment_ms[span.name].push_back(static_cast<double>(span.dur_us) / 1e3);
    }
  }
  if (batches == 0.0) result.fail("no forward spans recorded");
  for (const char* segment :
       {"queue_wait", "batch_form", "resolve", "exec", "deliver"}) {
    if (segment_ms[segment].empty()) {
      result.fail(std::string("no ") + segment + " spans recorded");
    }
    result.set(std::string("serve.") + segment + "_ms",
               median(segment_ms[segment]));
  }
  result.set("serve.batch_size_mean",
             batches > 0.0 ? traced_requests / batches : 0.0);
  result.set("serve.cache_hit_ratio", hits / (hits + misses));
  result.set("loadgen.late_ms_p90", quantile(late_ms, 0.9));
  result.set("trace.overhead", median(overhead));
  flag_late(late_ms, result);
}

}  // namespace

Result run_serve_mix(const Options& options) {
  Result result;
  util::set_num_threads(1);
  const Fixture f = write_fixture(options);
  Checker checker(f, result, options.inject == "corrupt_output");
  CpuPicker cpus;
  if (options.trace) {
    measure_layers(options, f, cpus, checker, result);
  } else {
    measure(options, f, cpus, checker, result);
  }
  return result;
}

}  // namespace perfbench
