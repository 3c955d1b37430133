// Open-loop load generator for the inference server (docs/SERVING.md):
// measures pipelined service capacity with a warm-up burst, then offers a
// configurable multiple of it for a fixed window and reports latency
// percentiles and the outcome breakdown as one flat JSON object (the
// schema scripts/ and dashboards consume, same shape as kernel timings).
//
//   ./serve_loadgen --dir=variants [--seconds=2] [--overload=1.0]
//                   [--threads=2] [--deadline-ms=50] [--models=v0,v1]
//                   [--max-batch=8] [--queue=64] [--inflight=128]
//
// --overload=2 reproduces the chaos-test regime interactively; combine
// with env fault injection to watch the degradation ladder under load:
//
//   DROPBACK_FAULT=rerr:0 ./serve_loadgen --dir=variants --overload=2
//
// The driver is deliberately single-threaded (open-loop pacing against
// absolute due-times): all parallelism lives inside the server.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic_mnist.hpp"
#include "serve/server.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/steady_clock.hpp"

namespace {

using namespace dropback;

std::vector<std::string> split_models(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos
                                          : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

double percentile_ms(std::vector<std::int64_t>& latencies_us, double q) {
  if (latencies_us.empty()) return 0.0;
  std::sort(latencies_us.begin(), latencies_us.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(latencies_us.size() - 1) + 0.5);
  return static_cast<double>(latencies_us[rank]) / 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string dir = flags.get_string("dir", "variants");
  const double seconds = flags.get_double("seconds", 2.0);
  const double overload = flags.get_double("overload", 1.0);
  const std::vector<std::string> models =
      split_models(flags.get_string("models", "v0"));
  if (models.empty()) {
    std::fprintf(stderr, "serve_loadgen: --models must name a variant\n");
    return 2;
  }

  serve::ServerConfig config;
  config.threads = static_cast<int>(flags.get_int("threads", 2));
  config.admission.queue_capacity =
      static_cast<std::size_t>(flags.get_int("queue", 64));
  config.admission.max_inflight =
      static_cast<std::size_t>(flags.get_int("inflight", 128));
  config.batch.max_batch =
      static_cast<std::size_t>(flags.get_int("max-batch", 8));
  config.cache.dir = dir;
  config.cache.fallback_model = flags.get_string("fallback", "fallback");
  config.default_deadline_us = flags.get_int("deadline-ms", 50) * 1000;
  serve::InferenceServer server(config);

  data::SyntheticMnistOptions data_opt;
  data_opt.num_samples = 256;
  data_opt.seed = 23;
  auto inputs = data::make_synthetic_mnist(data_opt);
  auto input_for = [&](std::uint64_t i) {
    return inputs->slice(static_cast<std::int64_t>(
                             i % static_cast<std::uint64_t>(inputs->size())),
                         1)
        .images;
  };
  util::ClockSource& clock = util::steady_clock_source();

  // Warm-up burst: fills the pipeline (caches warm, all workers busy) and
  // yields the capacity estimate the offered rate is derived from. A
  // serial closed loop would measure latency, not throughput.
  constexpr int kWarmup = 48;
  const std::int64_t warm_start = clock.now_us();
  {
    std::vector<std::shared_ptr<serve::ResponseSlot>> warm;
    for (int i = 0; i < kWarmup; ++i) {
      warm.push_back(server.submit(models[i % models.size()],
                                   input_for(i), 10'000'000));
    }
    for (const auto& slot : warm) slot->wait_us(10'000'000);
  }
  const std::int64_t per_request_us = std::max<std::int64_t>(
      1, (clock.now_us() - warm_start) / kWarmup);
  const std::int64_t gap_us = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(static_cast<double>(per_request_us) /
                                   (overload > 0.0 ? overload : 1.0)));

  // Measured window: open-loop submission paced against absolute
  // due-times (oversleep self-corrects, keeping the offered rate honest).
  const auto window_us = static_cast<std::int64_t>(seconds * 1e6);
  std::vector<std::shared_ptr<serve::ResponseSlot>> slots;
  const std::int64_t start = clock.now_us();
  std::int64_t next_due = start;
  for (std::uint64_t i = 0; clock.now_us() - start < window_us; ++i) {
    const std::int64_t now = clock.now_us();
    if (now < next_due) clock.sleep_us(next_due - now);
    slots.push_back(
        server.submit(models[i % models.size()], input_for(i)));
    next_due += gap_us;
  }
  for (const auto& slot : slots) slot->wait_us(30'000'000);
  const std::int64_t elapsed_us = clock.now_us() - start;
  server.stop();

  std::vector<std::int64_t> ok_latencies_us;
  std::uint64_t degraded = 0;
  for (const auto& slot : slots) {
    if (slot->outcome() == serve::Outcome::kOk) {
      ok_latencies_us.push_back(slot->latency_us());
      if (slot->degraded()) ++degraded;
    }
  }
  const serve::ServerStats stats = server.stats();
  const double p50 = percentile_ms(ok_latencies_us, 0.50);
  const double p99 = percentile_ms(ok_latencies_us, 0.99);
  const double qps = 1e6 * static_cast<double>(ok_latencies_us.size()) /
                     static_cast<double>(std::max<std::int64_t>(1,
                                                                elapsed_us));
  const auto offered = static_cast<std::uint64_t>(slots.size());
  util::JsonObject summary;
  summary.add("type", "serve_loadgen")
      .add("offered", offered)
      .add("offered_qps", 1e6 * static_cast<double>(offered) /
                              static_cast<double>(elapsed_us))
      .add("ok", static_cast<std::uint64_t>(ok_latencies_us.size()))
      .add("ok_qps", qps)
      .add("degraded", degraded)
      .add("rejected", stats.rejected())
      .add("shed", stats.shed())
      .add("unavailable", stats.unavailable)
      .add("shed_rate",
           static_cast<double>(stats.rejected() + stats.shed()) /
               static_cast<double>(std::max<std::uint64_t>(1, offered)))
      .add("p50_ms", p50)
      .add("p99_ms", p99)
      .add("deadline_ms",
           static_cast<double>(config.default_deadline_us) / 1000.0)
      .add("threads", static_cast<std::int64_t>(config.threads))
      .add("overload", overload);
  std::printf("%s\n", summary.str().c_str());
  return 0;
}
