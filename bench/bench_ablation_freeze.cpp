// Ablation: when can the tracked set be frozen?
//
// The paper (§2.1, §3 "Tracked weight set freezing" / "Effects of
// freezing"): freezing after a few epochs saves the selection work and the
// untracked-gradient traffic, and "for smaller compression ratios freezing
// early has little effect on the overall accuracy", while at very high
// compression early freezing costs accuracy. This bench sweeps the freeze
// epoch at a mild (4.5x) and an extreme (60x) budget.
//
// A second section phrases the same freeze through BudgetSchedules and
// compares against the fixed-k rows: const:freeze_epoch, dsd (whose freeze
// counts epochs into the sparse phase), and stochastic (readmission stops
// at the freeze). Emits schedule/ kernel-timing JSONL records on stdout;
// tracked step times come from perfbench (perfbench/README.md).
#include "bench_common.hpp"

#include "optim/budget_schedule.hpp"
#include "util/json.hpp"
#include "util/steady_clock.hpp"

int main(int argc, char** argv) {
  using namespace dropback;
  util::Flags flags(argc, argv);
  const bench::BenchScale scale = bench::BenchScale::mnist(flags);
  bench::print_scale_banner("Ablation: freeze epoch sweep", scale);
  auto task = bench::make_mnist_task(scale);
  const std::int64_t steps_per_epoch =
      (scale.train_n + scale.batch_size - 1) / scale.batch_size;

  util::Table table({"budget", "freeze epoch", "val error", "best epoch"});
  const std::int64_t budgets[] = {20000, 1500};
  const std::int64_t freeze_epochs[] = {-1, 1, 2, 5, 10};
  for (std::int64_t budget : budgets) {
    for (std::int64_t fe : freeze_epochs) {
      if (fe > scale.epochs) continue;
      auto model = nn::models::make_mnist_100_100(7);
      core::DropBackConfig config;
      config.schedule =
          optim::constant_budget(budget, fe >= 0 ? fe * steps_per_epoch : -1);
      core::DropBackOptimizer opt(model->collect_parameters(), scale.lr,
                                  config);
      const auto result =
          bench::run_training("DropBack", *model, opt, *task.train_set,
                              *task.val_set, scale);
      table.add_row({util::Table::count(budget),
                     fe >= 0 ? std::to_string(fe) : "never",
                     util::Table::pct(result.best_val_error),
                     std::to_string(result.best_epoch)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Paper shape: at the mild 20k budget the freeze epoch barely matters;\n"
      "at the extreme 1.5k budget, freezing very early costs accuracy\n"
      "because the tracked set has not yet stabilized.\n\n");

  // --- the same freeze, phrased through BudgetSchedules -------------------
  const std::int64_t k = 20000;
  const std::int64_t freeze_epoch = std::min<std::int64_t>(2, scale.epochs);
  struct ScheduleVariant {
    const char* name;
    std::shared_ptr<const optim::BudgetSchedule> schedule;
  };
  const ScheduleVariant variants[] = {
      {"schedule/const_20k_freeze2",
       optim::constant_budget_epochs(k, freeze_epoch)},
      {"schedule/dsd_20k_freeze2",
       std::make_shared<optim::DenseSparseDense>(
           k, /*dense_epochs=*/1, /*sparse_epochs=*/-1,
           /*freeze_after_epochs=*/freeze_epoch)},
      {"schedule/stochastic_20k_freeze2",
       std::make_shared<optim::StochasticDropBack>(
           k, /*readmit_prob=*/0.01F, /*seed=*/0x5DB5DB,
           /*freeze_after_steps=*/-1, /*freeze_epoch=*/freeze_epoch)},
  };
  util::Table sched_table({"schedule", "val error", "best epoch"});
  util::ClockSource& clock = util::steady_clock_source();
  for (const ScheduleVariant& v : variants) {
    auto model = nn::models::make_mnist_100_100(7);
    core::DropBackConfig config;
    config.schedule = v.schedule;
    core::DropBackOptimizer opt(model->collect_parameters(), scale.lr,
                                config);
    const std::int64_t start_us = clock.now_us();
    const auto result = bench::run_training(
        v.name, *model, opt, *task.train_set, *task.val_set, scale);
    const std::int64_t total_us = clock.now_us() - start_us;
    sched_table.add_row({v.name, util::Table::pct(result.best_val_error),
                         std::to_string(result.best_epoch)});
    std::printf(
        "%s\n",
        util::kernel_timing_json(
            v.name,
            static_cast<std::uint64_t>(scale.epochs * steps_per_epoch),
            static_cast<std::uint64_t>(total_us), /*threads=*/1)
            .c_str());
  }
  std::printf(
      "\n%s\n"
      "The const row reproduces the fixed-k freeze rows above exactly; the\n"
      "dsd/stochastic rows show what the schedule API adds on top of the\n"
      "paper's freeze: a dense warmup before the shrink, and stochastic\n"
      "re-admission until the freeze point.\n",
      sched_table.render().c_str());
  return 0;
}
