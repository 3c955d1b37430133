// Shared helpers for the paper-reproduction bench binaries.
//
// Each bench regenerates one table or figure of the DropBack paper on the
// synthetic datasets (see DESIGN.md §2 for the substitutions). Default
// configurations are scaled for a single CPU core; set DROPBACK_FULL=1 (and
// optionally DROPBACK_EPOCHS / DROPBACK_TRAIN_N / DROPBACK_VAL_N) to run
// closer to paper scale. Every figure bench also writes its series to a CSV
// next to the binary so it can be re-plotted.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/dropback_optimizer.hpp"
#include "data/synthetic_cifar.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/models/lenet.hpp"
#include "optim/lr_schedule.hpp"
#include "train/trainer.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace dropback::bench {

/// Prints one kernel-timing record in the unified JSONL schema shared with
/// the profiler dump (util::kernel_timing_json / ProfileReport::to_jsonl):
///   {"name":...,"calls":...,"total_us":...,"threads":...}
/// so bench trajectories and profile dumps can be joined on "name".
inline void print_kernel_timing(const std::string& name, std::uint64_t calls,
                                double total_us, int threads) {
  std::printf("%s\n",
              util::kernel_timing_json(
                  name, calls,
                  static_cast<std::uint64_t>(total_us < 0.0 ? 0.0 : total_us),
                  threads)
                  .c_str());
}

struct BenchScale {
  std::int64_t train_n;
  std::int64_t val_n;
  std::int64_t epochs;
  std::int64_t batch_size;
  float lr;

  /// Reads the scale for a bench, honoring DROPBACK_FULL and env overrides.
  static BenchScale mnist(const util::Flags& flags) {
    const bool full = util::Flags::full_scale();
    BenchScale s;
    s.train_n = flags.get_int("train-n", full ? 10000 : 1200);
    s.val_n = flags.get_int("val-n", full ? 2000 : 400);
    s.epochs = flags.get_int("epochs", full ? 100 : 15);
    s.batch_size = flags.get_int("batch", 32);
    s.lr = static_cast<float>(flags.get_double("lr", 0.1));
    return s;
  }

  static BenchScale cifar(const util::Flags& flags) {
    const bool full = util::Flags::full_scale();
    BenchScale s;
    s.train_n = flags.get_int("train-n", full ? 4000 : 300);
    s.val_n = flags.get_int("val-n", full ? 1000 : 150);
    s.epochs = flags.get_int("epochs", full ? 60 : 6);
    s.batch_size = flags.get_int("batch", 16);
    s.lr = static_cast<float>(flags.get_double("lr", 0.05));
    return s;
  }
};

struct MnistTask {
  std::unique_ptr<data::InMemoryDataset> train_set;
  std::unique_ptr<data::InMemoryDataset> val_set;
};

inline MnistTask make_mnist_task(const BenchScale& scale) {
  data::SyntheticMnistOptions opt;
  opt.num_samples = scale.train_n;
  opt.seed = 10;
  MnistTask task;
  task.train_set = data::make_synthetic_mnist(opt);
  opt.num_samples = scale.val_n;
  opt.seed = 20;
  task.val_set = data::make_synthetic_mnist(opt);
  return task;
}

inline MnistTask make_cifar_task(const BenchScale& scale) {
  data::SyntheticCifarOptions opt;
  opt.num_samples = scale.train_n;
  opt.seed = 30;
  MnistTask task;
  task.train_set = data::make_synthetic_cifar(opt);
  opt.num_samples = scale.val_n;
  opt.seed = 40;
  task.val_set = data::make_synthetic_cifar(opt);
  return task;
}

/// One table row: a named training outcome.
struct MethodResult {
  std::string name;
  double best_val_error = 1.0;
  double compression = 0.0;     ///< 0 = dense baseline
  std::int64_t best_epoch = -1;
  std::int64_t freeze_epoch = -1;  ///< -1 = N/A
  std::vector<double> val_acc_per_epoch;
};

/// Trains `model` with `optimizer` and fills a MethodResult.
inline MethodResult run_training(const std::string& name, nn::Module& model,
                                 optim::Optimizer& optimizer,
                                 const data::Dataset& train_set,
                                 const data::Dataset& val_set,
                                 const BenchScale& scale,
                                 const optim::LrSchedule* schedule = nullptr,
                                 std::function<void(train::Trainer&)>
                                     configure = {}) {
  train::TrainConfig options;
  options.epochs = scale.epochs;
  options.batch_size = scale.batch_size;
  options.schedule = schedule;
  train::Trainer trainer(model, optimizer, train_set, val_set, options);
  if (configure) configure(trainer);
  const auto result = trainer.run();
  MethodResult out;
  out.name = name;
  out.best_val_error = result.best_val_error();
  out.best_epoch = result.best_epoch;
  for (const auto& stats : result.history) {
    out.val_acc_per_epoch.push_back(stats.val_acc);
  }
  return out;
}

/// Formats a compression cell like the paper ("0x" for baseline).
inline std::string compression_cell(double compression) {
  if (compression <= 0.0) return "0x";
  return util::Table::times(compression);
}

inline void print_scale_banner(const char* bench, const BenchScale& s) {
  std::printf(
      "== %s ==\n(synthetic data; train_n=%lld val_n=%lld epochs=%lld "
      "batch=%lld lr=%.3f;%s set DROPBACK_FULL=1 for paper-scale runs)\n\n",
      bench, static_cast<long long>(s.train_n),
      static_cast<long long>(s.val_n), static_cast<long long>(s.epochs),
      static_cast<long long>(s.batch_size), static_cast<double>(s.lr),
      util::Flags::full_scale() ? " [FULL]" : "");
}

}  // namespace dropback::bench
