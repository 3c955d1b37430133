// Training workloads.
//
// mnist_select: MNIST-100-100 (89,610 weights) on synthetic MNIST, batch 32,
//   SGD lr 0.1, a constant budget k = 20,000 that never freezes. Every step
//   re-selects the tracked set, so the DropBack optimizer (scores, top-k
//   select, apply) is most of the step: a change to selection or to pool
//   dispatch shows here first.
// vgg_frozen: VGG-S (width 0.125) on synthetic CIFAR, batch 16, budget 1/5
//   of the parameters, frozen during warm-up. The timed region never
//   selects; conv, im2col, GEMM and thread scaling dominate. It is the
//   bypass workload for selection changes.
//
// Both run 1-thread and 2-thread blocks alternately in one process, so the
// 2-thread/1-thread ratio is taken between neighbouring blocks and host
// drift cancels. Throughput is a percentile over blocks (see kFastShare),
// not total work over total time.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "autograd/ops.hpp"
#include "autograd/variable.hpp"
#include "common.hpp"
#include "core/dropback_optimizer.hpp"
#include "data/dataloader.hpp"
#include "data/synthetic_cifar.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/loss.hpp"
#include "nn/models/lenet.hpp"
#include "nn/models/vgg_s.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "optim/budget_schedule.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace dropback;

/// Sizes of one training workload; the tiny plans keep every phase but
/// shrink it so the self-tests finish in seconds.
struct Plan {
  std::int64_t samples;       ///< synthetic dataset size
  std::int64_t batch;
  std::int64_t warmup_steps;  ///< untimed, fixed count
  std::int64_t prefix_steps;  ///< length of the serial = parallel check
  std::int64_t block_steps;   ///< steps per throughput block
  std::int64_t shard_steps;   ///< traced 2-thread steps for pool counts
  int setup_repeats;          ///< constructions timed for setup_s
  bool frozen;                ///< the timed region must not select
};

constexpr int kMinPairs = 3;
constexpr int kDispatchRuns = 2000;
constexpr std::int64_t kVggFreezeAfterSteps = 2;

/// Durations of named intervals, one sample per record() call: the spans
/// the benchmark keeps around its calls into the library.
class Spans {
 public:
  void record(const std::string& name, std::int64_t begin_ns,
              std::int64_t end_ns) {
    samples_[name].push_back(ms(end_ns - begin_ns));
  }
  double median_ms(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : median(it->second);
  }
  double total_ms(const std::string& name) const {
    const auto it = samples_.find(name);
    if (it == samples_.end()) return 0.0;
    return std::accumulate(it->second.begin(), it->second.end(), 0.0);
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

using Mark = std::function<void(std::size_t block)>;

/// Everything a user builds before the first step, plus a forward pass
/// split at labelled top-level children for the per-layer timings.
struct Trainee {
  std::unique_ptr<data::InMemoryDataset> data;
  std::unique_ptr<nn::Module> model;
  /// "forward.<label>.ms" per block of top-level children.
  std::vector<std::string> layer_metrics;
  /// The arithmetic of model->forward, calling mark(b) after block b.
  std::function<autograd::Variable(const autograd::Variable&, const Mark&)>
      forward_by_layer;
  /// Kernel profile scopes every step of this model records.
  std::vector<std::string> kernel_scopes;
  std::int64_t budget = 0;
  std::unique_ptr<core::DropBackOptimizer> opt;
  std::unique_ptr<data::DataLoader> loader;
};

using Builder = Trainee (*)(const Plan&, std::uint64_t);

void finish_build(Trainee& t, const Plan& plan, std::uint64_t seed, float lr,
                  std::int64_t freeze_after_steps) {
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(t.budget, freeze_after_steps);
  t.opt = std::make_unique<core::DropBackOptimizer>(
      t.model->collect_parameters(), lr, config);
  data::DataLoaderOptions loader;
  loader.batch_size = plan.batch;
  loader.shuffle = true;
  loader.seed = seed;
  t.loader = std::make_unique<data::DataLoader>(*t.data, loader);
}

Trainee build_mnist(const Plan& plan, std::uint64_t seed) {
  Trainee t;
  data::SyntheticMnistOptions data;
  data.num_samples = plan.samples;
  data.seed = seed;
  t.data = data::make_synthetic_mnist(data);
  auto mlp = nn::models::make_mnist_100_100(seed);
  nn::models::Mlp* m = mlp.get();
  for (std::size_t i = 0; i < m->num_layers(); ++i) {
    t.layer_metrics.push_back("forward.fc" + std::to_string(i + 1) + ".ms");
  }
  t.forward_by_layer = [m](const autograd::Variable& x, const Mark& mark) {
    autograd::Variable h = autograd::reshape(x, {x.value().size(0), -1});
    for (std::size_t i = 0; i < m->num_layers(); ++i) {
      h = m->layer(i).forward(h);
      if (i + 1 < m->num_layers()) h = autograd::relu(h);
      mark(i);
    }
    return h;
  };
  t.kernel_scopes = {"matmul"};
  t.model = std::move(mlp);
  t.budget = 20000;
  finish_build(t, plan, seed, 0.1F, /*freeze_after_steps=*/-1);
  return t;
}

Trainee build_vgg(const Plan& plan, std::uint64_t seed) {
  Trainee t;
  data::SyntheticCifarOptions data;
  data.num_samples = plan.samples;
  data.seed = seed;
  t.data = data::make_synthetic_cifar(data);
  nn::models::VggSOptions vgg;
  vgg.width_mult = 0.125F;
  vgg.seed = seed;
  auto net = nn::models::make_vgg_s(vgg);
  nn::Sequential* s = net.get();
  // A block starts at each Conv2d or Linear child and takes the BN, ReLU,
  // pooling, flatten and dropout children after it. Labels follow the
  // features.<i> / classifier.<j> convention, j counted after Flatten.
  std::size_t flatten = s->size();
  for (std::size_t i = 0; i < s->size(); ++i) {
    if (s->at(i).name() == "Flatten") {
      flatten = i;
      break;
    }
  }
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < s->size(); ++i) {
    const std::string kind = s->at(i).name();
    if (kind != "Conv2d" && kind != "Linear") continue;
    starts.push_back(i);
    t.layer_metrics.push_back(
        i < flatten ? "forward.features." + std::to_string(i) + ".ms"
                    : "forward.classifier." + std::to_string(i - flatten - 1) +
                          ".ms");
  }
  t.forward_by_layer = [s, starts](const autograd::Variable& x,
                                   const Mark& mark) {
    autograd::Variable h = x;
    std::size_t block = 0;
    for (std::size_t i = 0; i < s->size(); ++i) {
      if (block + 1 < starts.size() && i == starts[block + 1]) mark(block++);
      h = s->at(i).forward(h);
    }
    mark(block);
    return h;
  };
  t.kernel_scopes = {"conv2d", "conv2d_backward", "im2col", "matmul"};
  t.model = std::move(net);
  t.budget = t.model->num_params() / 5;
  finish_build(t, plan, seed, 0.05F, kVggFreezeAfterSteps);
  return t;
}

void fetch(data::DataLoader& loader, data::Batch& batch) {
  if (!loader.next(batch)) {
    loader.start_epoch();
    loader.next(batch);
  }
}

/// One training step: forward, loss, backward, DropBack update.
double step(Trainee& t, const data::Batch& batch) {
  const autograd::Variable logits =
      t.model->forward(autograd::Variable(batch.images));
  const autograd::Variable loss = nn::cross_entropy(logits, batch.labels);
  t.opt->zero_grad();
  autograd::backward(loss);
  t.opt->step();
  return loss.value()[0];
}

/// The same step with a span around each call into the library.
double traced_step(Trainee& t, const data::Batch& batch, Spans& spans) {
  const std::int64_t begin = now_ns();
  std::int64_t mark = begin;
  const autograd::Variable logits = t.forward_by_layer(
      autograd::Variable(batch.images), [&](std::size_t block) {
        const std::int64_t now = now_ns();
        spans.record(t.layer_metrics[block], mark, now);
        mark = now;
      });
  const std::int64_t forward_end = now_ns();
  const autograd::Variable loss = nn::cross_entropy(logits, batch.labels);
  const std::int64_t loss_end = now_ns();
  t.opt->zero_grad();
  autograd::backward(loss);
  const std::int64_t backward_end = now_ns();
  t.opt->step();
  const std::int64_t end = now_ns();
  spans.record("forward.ms", begin, forward_end);
  spans.record("loss.ms", forward_end, loss_end);
  spans.record("backward.ms", loss_end, backward_end);
  spans.record("optimizer.ms", backward_end, end);
  spans.record("step", begin, end);
  return loss.value()[0];
}

/// The output checks after every step: a finite loss, exactly k live
/// weights, and a tracked set that stays frozen once it should be.
bool step_ok(const Trainee& t, double loss, bool expect_frozen) {
  return std::isfinite(loss) && t.opt->live_weights() == t.budget &&
         (!expect_frozen || t.opt->frozen());
}

std::vector<std::uint8_t> tracked_mask(const core::DropBackOptimizer& opt) {
  std::vector<std::uint8_t> mask;
  const core::ParamIndex& index = opt.param_index();
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    const std::uint8_t* m = opt.tracked().mask_of(p);
    mask.insert(mask.end(), m, m + index.param(p).numel());
  }
  return mask;
}

/// Every weight of the model, in parameter order.
std::vector<float> weights(const Trainee& t) {
  std::vector<float> all;
  for (const nn::Parameter* p : t.model->parameters()) {
    const tensor::Tensor& v = p->var.value();
    all.insert(all.end(), v.data(), v.data() + v.numel());
  }
  return all;
}

/// Trains a fresh copy for prefix_steps at 1 thread and another at 2, one
/// after the other, and requires bitwise-equal weights (the serial =
/// parallel contract).
void check_serial_equals_parallel(const Plan& plan, Builder build,
                                  std::uint64_t seed, Result& result) {
  std::vector<float> trained[2];
  data::Batch batch;
  for (const int threads : {1, 2}) {
    util::set_num_threads(threads);
    Trainee t = build(plan, seed);
    for (std::int64_t s = 0; s < plan.prefix_steps; ++s) {
      fetch(*t.loader, batch);
      result.count(step_ok(t, step(t, batch), false));
    }
    trained[threads - 1] = weights(t);
  }
  if (trained[0].size() != trained[1].size() ||
      std::memcmp(trained[0].data(), trained[1].data(),
                  trained[0].size() * sizeof(float)) != 0) {
    result.fail("serial != parallel: weights differ after " +
                std::to_string(plan.prefix_steps) +
                " steps at 1 and 2 threads");
  }
}

void warm_up(const Plan& plan, Trainee& t, Result& result) {
  util::set_num_threads(1);
  data::Batch batch;
  for (std::int64_t s = 0; s < plan.warmup_steps; ++s) {
    fetch(*t.loader, batch);
    result.count(step_ok(t, step(t, batch), false));
  }
  if (plan.frozen && !t.opt->frozen()) {
    result.fail("tracked set not frozen after warm-up");
  }
}

/// End-to-end run: alternating 1-thread and 2-thread blocks.
void measure(const Plan& plan, const Options& options, CpuPicker& cpus,
             Trainee& t, Result& result) {
  std::vector<double> rate_1t;
  std::vector<double> speedup;
  std::vector<double> step_ms;
  const std::vector<std::uint8_t> mask_before = tracked_mask(*t.opt);
  bool inject_nan = options.inject == "nan_loss";
  data::Batch batch;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  for (int pair = 0; pair < kMinPairs || now_ns() < deadline; ++pair) {
    double rate[3] = {0.0, 0.0, 0.0};
    for (int side = 0; side < 2; ++side) {
      const int threads = 1 + (pair + side) % 2;
      util::set_num_threads(threads);
      std::int64_t busy = 0;
      for (std::int64_t s = 0; s < plan.block_steps; ++s) {
        cpus.pick(static_cast<std::size_t>(threads));
        const std::int64_t begin = now_ns();
        fetch(*t.loader, batch);
        const std::int64_t fetched = now_ns();
        if (inject_nan) {
          // A poisoned output bias reaches the loss; a NaN pixel would not
          // (ReLU maps NaN to 0).
          t.model->parameters().back()->var.value()[0] = std::nanf("");
          inject_nan = false;
        }
        const double loss = step(t, batch);
        const std::int64_t end = now_ns();
        busy += end - begin;
        if (threads == 1) step_ms.push_back(ms(end - fetched));
        result.count(step_ok(t, loss, plan.frozen));
      }
      rate[threads] =
          static_cast<double>(plan.block_steps * plan.batch) / seconds(busy);
    }
    rate_1t.push_back(rate[1]);
    speedup.push_back(rate[2] / rate[1]);
  }
  if (plan.frozen && tracked_mask(*t.opt) != mask_before) {
    result.fail("tracked set changed in the frozen timed region");
  }
  result.set("samples_per_s", quantile(rate_1t, kFastShare));
  result.set("speedup_2t", median(speedup));
  result.set("latency_ms_p50", windowed_quantile(step_ms, 0.5));
  result.set("latency_ms_p90", windowed_quantile(step_ms, 0.9));
  result.set("peak_rss_mb", peak_rss_mb());
}

/// Sum of the profile scopes named `names`, per traced step.
double scope_ms(const obs::ProfileReport& profile,
                std::initializer_list<const char*> names,
                std::int64_t steps) {
  double total = 0.0;
  for (const obs::ProfileEntry& entry : profile.entries) {
    for (const char* name : names) {
      if (entry.name == name) total += entry.total_ms();
    }
  }
  return total / static_cast<double>(steps);
}

/// Fails the run when a scope the traced steps must record never appeared:
/// a renamed scope would otherwise read as 0 ms.
void require_scopes(const obs::ProfileReport& profile,
                    const std::vector<std::string>& names, Result& result) {
  for (const std::string& name : names) {
    const bool found =
        std::any_of(profile.entries.begin(), profile.entries.end(),
                    [&](const obs::ProfileEntry& e) { return e.name == name; });
    if (!found) result.fail("profile scope " + name + " never recorded");
  }
}

/// Per-layer run. Phase 1 (1 thread) alternates bare and traced blocks:
/// the traced blocks give the spans and profile scopes, the pair ratio
/// gives trace.overhead. Phase 2 (2 threads) counts the pool's shard spans;
/// last, the latency of an empty 2-participant dispatch.
void measure_layers(const Plan& plan, const Options& options,
                    CpuPicker& cpus, Trainee& t, Result& result) {
  Spans spans;
  std::vector<double> overhead;
  double churn = 0.0;
  double evictions = 0.0;
  std::int64_t traced_steps = 0;
  data::Batch batch;
  util::set_num_threads(1);
  obs::reset_profile();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 0.75e9);
  for (int pair = 0; pair < kMinPairs || now_ns() < deadline; ++pair) {
    double block_s[2] = {0.0, 0.0};
    for (int side = 0; side < 2; ++side) {
      const bool traced = (pair + side) % 2 == 1;
      obs::set_profiling_enabled(traced);
      obs::set_tracing_enabled(traced);
      std::int64_t busy = 0;
      for (std::int64_t s = 0; s < plan.block_steps; ++s) {
        cpus.pick(1);
        const std::int64_t begin = now_ns();
        fetch(*t.loader, batch);
        double loss = 0.0;
        if (traced) {
          spans.record("data.next_ms", begin, now_ns());
          const bool selecting = !t.opt->frozen();
          obs::ScopedTraceContext context(obs::begin_trace());
          loss = traced_step(t, batch, spans);
          if (selecting) {
            churn += static_cast<double>(t.opt->last_churn());
            evictions += static_cast<double>(t.opt->last_evictions());
          }
          ++traced_steps;
        } else {
          loss = step(t, batch);
        }
        busy += now_ns() - begin;
        result.count(step_ok(t, loss, plan.frozen));
      }
      block_s[traced ? 1 : 0] = seconds(busy);
    }
    overhead.push_back(block_s[1] / block_s[0]);
  }
  obs::set_profiling_enabled(false);
  obs::set_tracing_enabled(false);
  const obs::ProfileReport profile = obs::collect_profile();
  std::vector<std::string> scopes = t.kernel_scopes;
  scopes.push_back("dropback_apply");
  if (!plan.frozen) {
    scopes.push_back("dropback_scores");
    scopes.push_back("dropback_select");
  }
  require_scopes(profile, scopes, result);

  result.set("data.next_ms", spans.median_ms("data.next_ms"));
  result.set("forward.ms", spans.median_ms("forward.ms"));
  for (const std::string& layer : t.layer_metrics) {
    result.set(layer, spans.median_ms(layer));
  }
  result.set("loss.ms", spans.median_ms("loss.ms"));
  result.set("backward.ms", spans.median_ms("backward.ms"));
  result.set("optimizer.ms", spans.median_ms("optimizer.ms"));
  result.set("optimizer.share",
             spans.total_ms("optimizer.ms") / spans.total_ms("step"));
  result.set("optimizer.scores_ms",
             scope_ms(profile, {"dropback_scores"}, traced_steps));
  result.set("optimizer.select_ms",
             scope_ms(profile, {"dropback_select"}, traced_steps));
  result.set("optimizer.apply_ms",
             scope_ms(profile, {"dropback_apply"}, traced_steps));
  result.set("tracked.churn", churn / static_cast<double>(traced_steps));
  result.set("tracked.evictions",
             evictions / static_cast<double>(traced_steps));
  result.set("kernel.conv2d_ms", scope_ms(profile, {"conv2d"}, traced_steps));
  result.set("kernel.conv2d_backward_ms",
             scope_ms(profile, {"conv2d_backward"}, traced_steps));
  result.set("kernel.im2col_ms", scope_ms(profile, {"im2col"}, traced_steps));
  result.set("kernel.matmul_ms",
             scope_ms(profile, {"matmul", "matmul_tn", "matmul_nt"},
                      traced_steps));
  result.set("trace.overhead", median(overhead));

  cpus.pick(2);
  util::set_num_threads(2);
  obs::set_trace_ring_capacity(1 << 14);
  obs::reset_trace();
  obs::set_tracing_enabled(true);
  for (std::int64_t s = 0; s < plan.shard_steps; ++s) {
    fetch(*t.loader, batch);
    obs::ScopedTraceContext context(obs::begin_trace());
    result.count(step_ok(t, step(t, batch), plan.frozen));
  }
  obs::set_tracing_enabled(false);
  const obs::TraceSnapshot snapshot = obs::TraceCollector::collect();
  if (snapshot.dropped > 0) {
    result.note("pool_shards spans dropped: " +
                std::to_string(snapshot.dropped));
  }
  double shards = 0.0;
  for (const obs::SpanRecord& span : snapshot.spans) {
    if (span.name == "pool_shards") shards += 1.0;
  }
  if (shards == 0.0) result.fail("no pool_shards spans at 2 threads");
  result.set("pool.shards_per_step",
             shards / static_cast<double>(plan.shard_steps));

  cpus.pick(2);
  util::ThreadPool& pool = util::global_pool();
  const std::function<void(int)> noop = [](int) {};
  std::vector<double> dispatch_us;
  for (int i = 0; i < kDispatchRuns; ++i) {
    const std::int64_t begin = now_ns();
    pool.run(2, noop);
    dispatch_us.push_back(static_cast<double>(now_ns() - begin) / 1e3);
  }
  result.set("pool.dispatch_us", median(dispatch_us));
}

Result run_training(const Plan& plan, Builder build, const Options& options) {
  Result result;
  CpuPicker cpus;
  check_serial_equals_parallel(plan, build, options.seed, result);
  // Data synthesis plus model, optimizer and loader construction.
  const auto set_up = [&] {
    util::set_num_threads(1);
    return build(plan, options.seed);
  };
  if (!options.trace) {
    result.set("setup_s", time_setup(plan.setup_repeats, cpus, 1, set_up));
  }
  Trainee t = set_up();
  warm_up(plan, t, result);
  if (options.trace) {
    measure_layers(plan, options, cpus, t, result);
  } else {
    measure(plan, options, cpus, t, result);
  }
  return result;
}

}  // namespace

Result run_mnist_select(const Options& options) {
  const Plan full{2048, 32, 100, 10, 50, 100, 30, false};
  const Plan tiny{256, 32, 5, 3, 5, 5, 2, false};
  return run_training(options.tiny ? tiny : full, build_mnist, options);
}

Result run_vgg_frozen(const Options& options) {
  const Plan full{256, 16, 6, 3, 4, 4, 40, true};
  const Plan tiny{32, 16, 4, 2, 1, 1, 2, true};
  return run_training(options.tiny ? tiny : full, build_vgg, options);
}

}  // namespace perfbench
