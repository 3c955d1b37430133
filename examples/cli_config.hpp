// Shared CLI flag handling for the example trainers.
//
// Both train_mnist_dropback and train_cifar_dropback parse the same flag
// set into one CliConfig; the binaries differ only in model construction
// and dataset synthesis. Flags parse directly into train::TrainConfig, so
// every knob the training pipeline exposes is reachable from either CLI:
//
// Training loop:
//   --epochs=N --batch=N --lr=F --patience=N
// DropBack:
//   --budget=N | --budget-ratio=F   (ratio = total params / budget)
//   --budget-schedule=SPEC  (docs/SCHEDULES.md grammar, e.g.
//     "const:budget=20000,freeze_epoch=7", "dsd:budget=20000,dense=2,freeze=3"
//     or "stochastic:budget=20000,p=0.01"; overrides --budget/--budget-ratio)
//   --save=model.dbsw
// Data pipeline:
//   --train-n=N --val-n=N --prefetch=N (background batches ahead, default 1)
//   --augment-noise=F (deterministic per-sample uniform noise, default off)
// Parallelism:
//   --threads=N (or DROPBACK_THREADS; sizes the global kernel pool)
//   --simd=scalar|sse4|avx2|avx512|neon|auto (or DROPBACK_SIMD; selects
//     the kernel dispatch target — results are bitwise identical across
//     targets, docs/SIMD.md)
// Crash safety:
//   --checkpoint=run.dbts --checkpoint-every=N --resume
//   --anomaly=off|throw|skip|rollback
// Telemetry (never changes training results — obs_equivalence_test):
//   --metrics-out=run.jsonl   JSONL event stream, one record per step/epoch
//   --profile[=prof.jsonl]    scoped profiler; table to stdout or JSONL dump
//   --trace-out=run.trace.json  per-step span traces as Chrome trace JSON
//     (open in Perfetto, or `metrics_tool trace run.trace.json`)
//   --log-json                util::log as flat JSON records
#pragma once

#include <cstdio>
#include <ostream>
#include <string>

#include "dropback.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "util/atomic_file.hpp"
#include "util/log.hpp"

namespace dropback::examples {

struct CliConfig {
  /// Per-binary defaults (each CLI keeps its paper-matched settings).
  struct Defaults {
    std::string model;
    std::int64_t train_n = 0;
    std::int64_t val_n = 0;
    std::int64_t epochs = 0;
    std::int64_t batch = 0;
    std::int64_t budget = 0;    ///< 0 = budget comes from budget_ratio
    double budget_ratio = 0.0;  ///< used when budget == 0
    double lr = 0.1;
  };

  // Model / dataset selection (interpreted by the binary).
  std::string model;
  std::int64_t train_n = 0;
  std::int64_t val_n = 0;

  // DropBack knobs.
  std::int64_t budget = 0;    ///< 0: derive from budget_ratio and model size
  double budget_ratio = 0.0;
  std::string budget_schedule_spec;  ///< --budget-schedule; "" = constant
  float lr = 0.1F;
  std::string save_path;      ///< compressed-model export; "" = skip

  // Telemetry switches (beyond TrainConfig::metrics_out).
  bool profile = false;
  std::string profile_path;   ///< "" = pretty table to stdout
  std::string trace_path;     ///< Chrome trace JSON export; "" = tracing off

  /// Everything the training pipeline consumes, parsed in one place.
  train::TrainConfig train;

  /// Parses flags and applies the process-wide switches (thread-pool size,
  /// profiler enable, log format).
  static CliConfig parse(const util::Flags& flags, const Defaults& d) {
    util::configure_threads(flags);  // --threads N / DROPBACK_THREADS
    simd::configure_simd(flags);     // --simd TARGET / DROPBACK_SIMD
    CliConfig c;
    c.model = flags.get_string("model", d.model);
    c.train_n = flags.get_int("train-n", d.train_n);
    c.val_n = flags.get_int("val-n", d.val_n);
    c.budget = flags.get_int("budget", d.budget);
    c.budget_ratio = flags.get_double("budget-ratio", d.budget_ratio);
    c.budget_schedule_spec = flags.get_string("budget-schedule", "");
    c.lr = static_cast<float>(flags.get_double("lr", d.lr));
    c.save_path = flags.get_string("save", "");
    c.train = train::TrainConfig{}
                  .with_epochs(flags.get_int("epochs", d.epochs))
                  .with_batch_size(flags.get_int("batch", d.batch))
                  .with_patience(flags.get_int("patience", -1))
                  .with_prefetch(flags.get_int("prefetch", 1))
                  .with_checkpoint(flags.get_string("checkpoint", ""),
                                   flags.get_int("checkpoint-every", 0))
                  .with_resume(flags.get_bool("resume", false))
                  .with_anomaly_policy(train::parse_anomaly_policy(
                      flags.get_string("anomaly", "off")))
                  .with_metrics_out(flags.get_string("metrics-out", ""));
    const double noise = flags.get_double("augment-noise", 0.0);
    if (noise > 0.0) {
      c.train.transform =
          data::uniform_noise_transform(static_cast<float>(noise));
    }
    const std::string prof = flags.get_string("profile", "");
    if (!prof.empty()) {
      c.profile = true;
      if (prof != "1") c.profile_path = prof;  // bare --profile parses as "1"
    }
    c.trace_path = flags.get_string("trace-out", "");
    if (c.profile || !c.trace_path.empty()) {
      // --profile and --trace-out are two views of the same spans.
      obs::reset_trace();
      obs::set_tracing_enabled(true);
    }
    if (flags.get_bool("log-json", false)) {
      util::set_log_format(util::LogFormat::kJson);
    }
    return c;
  }

  /// The effective weight budget for a model of `total_params` weights.
  std::int64_t effective_budget(std::int64_t total_params) const {
    if (budget > 0) return budget;
    if (budget_ratio > 0.0) {
      const auto b = static_cast<std::int64_t>(
          static_cast<double>(total_params) / budget_ratio);
      return b > 1 ? b : 1;
    }
    return total_params;
  }

  /// Fills the schedule-bearing fields of a DropBackConfig from the flags:
  /// either the parsed --budget-schedule spec (whose scope= key also sets
  /// the budget scope) or a never-freezing ConstantSchedule built from
  /// --budget / --budget-ratio.
  void configure_dropback(std::int64_t total_params,
                          core::DropBackConfig& config) const {
    if (!budget_schedule_spec.empty()) {
      const optim::ParsedSchedule parsed =
          optim::parse_budget_schedule(budget_schedule_spec);
      config.schedule = parsed.schedule;
      config.scope = parsed.scope;
    } else {
      config.schedule = optim::constant_budget(effective_budget(total_params));
    }
  }

  /// Call once after training: reports the profile, the trace export and
  /// where the event stream went.
  void report_telemetry() const {
    obs::set_tracing_enabled(false);  // quiescence before either collection
    if (profile) {
      const obs::ProfileReport report = obs::collect_profile();
      if (profile_path.empty()) {
        std::printf("\nprofile (scoped wall time):\n%s",
                    report.pretty().c_str());
      } else {
        util::atomic_write_file(profile_path, [&](std::ostream& out) {
          out << report.to_jsonl();
        });
        std::printf("\nwrote profile to %s (%zu scopes)\n",
                    profile_path.c_str(), report.entries.size());
      }
    }
    if (!trace_path.empty()) {
      const obs::TraceSnapshot snapshot = obs::TraceCollector::collect();
      util::atomic_write_file(trace_path, [&](std::ostream& out) {
        out << obs::TraceCollector::export_json(snapshot);
      });
      std::printf("\nwrote %zu span(s) to %s (dropped %llu)\n",
                  snapshot.spans.size(), trace_path.c_str(),
                  static_cast<unsigned long long>(snapshot.dropped));
    }
    if (!train.metrics_out.empty()) {
      std::printf("\nwrote telemetry stream to %s\n",
                  train.metrics_out.c_str());
    }
  }
};

}  // namespace dropback::examples
