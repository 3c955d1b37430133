// Ablation: the compression/accuracy tradeoff curve, and the paper's
// central §2.1 claim — with initialization regeneration, MNIST models
// compress ~60x before degrading; with untracked weights zeroed instead,
// only ~2x is achievable. Sweeps the budget for both variants.
//
// A second section compares BudgetSchedules against the paper's fixed-k
// curve at the 4.5x budget: const (the fixed-k run itself), dsd (dense
// warmup, then shrink), and stochastic drop-back. Each variant emits one
// kernel-timing JSONL record ({"name","calls","total_us","threads"}) on
// stdout. These are reproduction figures, not a speed gate: tracked step
// times, with the host they ran on, come from perfbench
// (perfbench/README.md).
#include "bench_common.hpp"

#include "optim/budget_schedule.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/steady_clock.hpp"

int main(int argc, char** argv) {
  using namespace dropback;
  util::Flags flags(argc, argv);
  const bench::BenchScale scale = bench::BenchScale::mnist(flags);
  bench::print_scale_banner(
      "Ablation: budget sweep, regeneration vs zeroing", scale);
  auto task = bench::make_mnist_task(scale);

  // Baseline for reference.
  double baseline_error;
  {
    auto model = nn::models::make_mnist_100_100(7);
    optim::SGD sgd(model->collect_parameters(), scale.lr);
    baseline_error =
        bench::run_training("Baseline", *model, sgd, *task.train_set,
                            *task.val_set, scale)
            .best_val_error;
  }

  util::Table table({"budget", "compression", "error (regen)",
                     "error (zeroed)", "regen within 2% of baseline?"});
  util::CsvWriter csv("ablation_budget_sweep.csv");
  csv.header({"budget", "compression", "error_regen", "error_zeroed"});

  const std::int64_t budgets[] = {45000, 20000, 10000, 5000, 3000, 1500, 750};
  for (std::int64_t budget : budgets) {
    double errors[2];
    for (int variant = 0; variant < 2; ++variant) {
      auto model = nn::models::make_mnist_100_100(7);
      core::DropBackConfig config;
      config.schedule = optim::constant_budget(budget);
      config.regenerate_untracked = variant == 0;
      core::DropBackOptimizer opt(model->collect_parameters(), scale.lr,
                                  config);
      errors[variant] =
          bench::run_training("DropBack", *model, opt, *task.train_set,
                              *task.val_set, scale)
              .best_val_error;
    }
    const double compression = 89610.0 / static_cast<double>(budget);
    table.add_row({util::Table::count(budget),
                   util::Table::times(compression, 1),
                   util::Table::pct(errors[0]), util::Table::pct(errors[1]),
                   errors[0] < baseline_error + 0.02 ? "yes" : "no"});
    csv.row(std::vector<double>{static_cast<double>(budget), compression,
                                errors[0], errors[1]});
  }
  std::printf("baseline error: %s\n\n%s\n",
              util::Table::pct(baseline_error).c_str(),
              table.render().c_str());
  std::printf(
      "Paper claim (§2.1): with regeneration the model compresses ~60x\n"
      "before collapsing; with zeroed untracked weights even mild budgets\n"
      "fail (\"60x if initialization values were preserved, but only 2x if\n"
      "untracked weights were zeroed\").\n"
      "Series written to ablation_budget_sweep.csv\n\n");

  // --- schedules vs the fixed-k curve at the mild 4.5x budget -------------
  const std::int64_t k = 20000;
  const std::int64_t steps_per_epoch =
      (scale.train_n + scale.batch_size - 1) / scale.batch_size;
  const std::int64_t total_steps = scale.epochs * steps_per_epoch;
  struct ScheduleVariant {
    const char* name;
    std::shared_ptr<const optim::BudgetSchedule> schedule;
  };
  const ScheduleVariant variants[] = {
      {"schedule/const_20k", optim::constant_budget(k)},
      {"schedule/dsd_20k",
       std::make_shared<optim::DenseSparseDense>(k, /*dense_epochs=*/2)},
      {"schedule/stochastic_20k",
       std::make_shared<optim::StochasticDropBack>(k, /*readmit_prob=*/0.01F)},
  };
  util::Table sched_table({"schedule", "val error", "best epoch",
                           "within 2% of baseline?"});
  util::ClockSource& clock = util::steady_clock_source();
  for (const ScheduleVariant& v : variants) {
    auto model = nn::models::make_mnist_100_100(7);
    core::DropBackConfig config;
    config.schedule = v.schedule;
    core::DropBackOptimizer opt(model->collect_parameters(), scale.lr, config);
    const std::int64_t start_us = clock.now_us();
    const auto result = bench::run_training(
        v.name, *model, opt, *task.train_set, *task.val_set, scale);
    const std::int64_t total_us = clock.now_us() - start_us;
    sched_table.add_row(
        {v.name, util::Table::pct(result.best_val_error),
         std::to_string(result.best_epoch),
         result.best_val_error < baseline_error + 0.02 ? "yes" : "no"});
    std::printf("%s\n",
                util::kernel_timing_json(
                    v.name, static_cast<std::uint64_t>(total_steps),
                    static_cast<std::uint64_t>(total_us), /*threads=*/1)
                    .c_str());
  }
  std::printf(
      "\n%s\n"
      "Schedule comparison: const IS the fixed-k curve above; dsd pays for\n"
      "its dense warmup in step time but starts the sparse phase from a\n"
      "settled tracked set; stochastic adds a per-step readmission pass.\n",
      sched_table.render().c_str());
  return 0;
}
