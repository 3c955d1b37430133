// Reproduces Table 1: MNIST with LeNet-300-100 (top) and MNIST-100-100
// (bottom) — baseline vs DropBack at 50k / 20k / 1.5k tracked weights.
// Columns: validation error, weight compression, best epoch, freeze epoch.
//
// Paper reference (MNIST, 100 epochs, lr 0.4 halved 4 times):
//   LeNet-300-100: baseline 1.41%; DropBack 50k 1.51% (5.33x);
//                  20k 1.78% (13.33x); 1.5k 3.84% (177.74x).
//   MNIST-100-100: baseline 1.70%; DropBack 50k 1.58% (1.8x);
//                  20k 1.70% (4.5x); 1.5k 3.78% (60x).
// Shape to verify here: DropBack at mild budgets tracks the baseline and
// error rises sharply only at the extreme 1.5k budget.
#include "bench_common.hpp"

#include "core/sparse_weight_store.hpp"

namespace {

using namespace dropback;
using bench::BenchScale;
using bench::MethodResult;

MethodResult run_dropback(const char* name, bench::MnistTask& task,
                          std::unique_ptr<nn::models::Mlp> model,
                          std::int64_t budget, std::int64_t freeze_epoch,
                          const BenchScale& scale,
                          const optim::LrSchedule& schedule) {
  const std::int64_t steps_per_epoch =
      (scale.train_n + scale.batch_size - 1) / scale.batch_size;
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(
      budget, freeze_epoch >= 0 ? freeze_epoch * steps_per_epoch : -1);
  core::DropBackOptimizer opt(model->collect_parameters(), scale.lr, config);
  MethodResult result = bench::run_training(
      name, *model, opt, *task.train_set, *task.val_set, scale, &schedule);
  result.compression = opt.compression_ratio();
  result.freeze_epoch = freeze_epoch;
  return result;
}

void run_model(const char* title,
               const std::function<std::unique_ptr<nn::models::Mlp>()>& make,
               bench::MnistTask& task, const BenchScale& scale) {
  // Paper: lr 0.4 reduced 4 times by 0.5 over the run; same schedule shape,
  // scaled to the bench's epoch budget.
  optim::StepDecay schedule(scale.lr, 0.5F,
                            std::max<std::int64_t>(1, scale.epochs / 5), 4);
  util::Table table({"", "Validation Error", "Weight Compression",
                     "Best Epoch", "Freeze Epoch"});

  {
    auto model = make();
    optim::SGD sgd(model->collect_parameters(), scale.lr);
    const auto result =
        bench::run_training("Baseline", *model, sgd, *task.train_set,
                            *task.val_set, scale, &schedule);
    table.add_row({std::string("Baseline ") +
                       util::Table::count(model->num_params()),
                   util::Table::pct(result.best_val_error), "0x",
                   std::to_string(result.best_epoch), "N/A"});
  }

  struct Config {
    std::int64_t budget;
    std::int64_t freeze_epoch;
  };
  // Freeze epochs follow Table 1 (scaled to the shorter run).
  const std::int64_t fe = std::max<std::int64_t>(2, scale.epochs / 3);
  const Config configs[] = {{50000, -1}, {20000, fe}, {1500, fe}};
  for (const auto& config : configs) {
    auto model = make();
    const std::string name =
        "DropBack " + util::Table::count(config.budget);
    const auto result =
        run_dropback(name.c_str(), task, std::move(model), config.budget,
                     config.freeze_epoch, scale, schedule);
    table.add_row({result.name, util::Table::pct(result.best_val_error),
                   bench::compression_cell(result.compression),
                   std::to_string(result.best_epoch),
                   result.freeze_epoch >= 0
                       ? std::to_string(result.freeze_epoch)
                       : "N/A"});
  }
  std::printf("%s\n%s\n", title, table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const BenchScale scale = BenchScale::mnist(flags);
  bench::print_scale_banner("Table 1: MNIST compression/accuracy", scale);
  auto task = bench::make_mnist_task(scale);
  run_model("MNIST LeNet-300-100 (266.6k weights)",
            [] { return nn::models::make_lenet_300_100(7); }, task, scale);
  run_model("MNIST-100-100 (89.6k weights)",
            [] { return nn::models::make_mnist_100_100(7); }, task, scale);
  std::printf(
      "Paper shape: DropBack at mild budgets (50k/20k) tracks the baseline\n"
      "error; the extreme 1.5k budget degrades but still trains.\n");
  return 0;
}
