// Ablation: global vs per-layer budget competition.
//
// The paper's DropBack holds ONE global top-k competition across all layers;
// Table 2 shows why it matters — at tight budgets the surviving weights
// migrate toward the later, decision-critical layers (fc3 keeps 4x its
// proportional share at 1.5k). This bench compares the global competition
// against proportional per-layer quotas at several budgets, plus DSD and
// gradual pruning as the related prune-while-training baselines (§2.2, §5).
#include "bench_common.hpp"

#include "baselines/dsd.hpp"
#include "baselines/gradual_pruner.hpp"

int main(int argc, char** argv) {
  using namespace dropback;
  util::Flags flags(argc, argv);
  const bench::BenchScale scale = bench::BenchScale::mnist(flags);
  bench::print_scale_banner(
      "Ablation: budget scope (global vs per-layer) + DSD/gradual", scale);
  auto task = bench::make_mnist_task(scale);
  const std::int64_t steps_per_epoch =
      (scale.train_n + scale.batch_size - 1) / scale.batch_size;

  util::Table table({"method", "budget", "val error", "fc3 share"});

  const std::int64_t budgets[] = {20000, 5000, 1500};
  for (std::int64_t budget : budgets) {
    for (const auto scope :
         {optim::BudgetScope::kGlobal, optim::BudgetScope::kPerLayer}) {
      auto model = nn::models::make_mnist_100_100(7);
      core::DropBackConfig config;
      config.schedule = optim::constant_budget(budget);
      config.scope = scope;
      core::DropBackOptimizer opt(model->collect_parameters(), scale.lr,
                                  config);
      const auto result =
          bench::run_training("DropBack", *model, opt, *task.train_set,
                              *task.val_set, scale);
      const auto& tracked = opt.tracked();
      const double fc3_share =
          static_cast<double>(tracked.tracked_count_in(4) +
                              tracked.tracked_count_in(5)) /
          static_cast<double>(opt.live_weights());
      table.add_row(
          {scope == optim::BudgetScope::kGlobal
               ? "DropBack (global)"
               : "DropBack (per-layer)",
           util::Table::count(budget),
           util::Table::pct(result.best_val_error),
           util::Table::pct(fc3_share, 1)});
    }
  }

  // DSD: dense -> sparse (middle third of training) -> dense.
  {
    auto model = nn::models::make_mnist_100_100(7);
    auto params = model->collect_parameters();
    baselines::DsdConfig config;
    config.sparse_fraction = 0.3F;
    config.sparse_begin_step = scale.epochs * steps_per_epoch / 3;
    config.sparse_end_step = 2 * scale.epochs * steps_per_epoch / 3;
    baselines::DsdSchedule dsd(params, config);
    optim::SGD sgd(params, scale.lr);
    train::TrainConfig options;
    options.epochs = scale.epochs;
    options.batch_size = scale.batch_size;
    train::Trainer trainer(*model, sgd, *task.train_set, *task.val_set,
                           options);
    trainer.after_step = [&dsd](std::int64_t step) { dsd.on_step(step); };
    const auto result = trainer.run();
    table.add_row({"DSD .30 (regularizer; final model dense)", "n/a",
                   util::Table::pct(1.0 - result.best_val_acc), "-"});
  }

  // Gradual magnitude pruning to 75% sparsity.
  {
    auto model = nn::models::make_mnist_100_100(7);
    baselines::GradualPruningConfig config;
    config.final_sparsity = 0.75F;
    config.ramp_begin_step = 0;
    config.ramp_end_step = scale.epochs * steps_per_epoch / 2;
    config.prune_every = 5;
    baselines::GradualMagnitudePruningOptimizer opt(
        model->collect_parameters(), scale.lr, config);
    const auto result =
        bench::run_training("Gradual", *model, opt, *task.train_set,
                            *task.val_set, scale);
    table.add_row({"Gradual magnitude .75 (Zhu & Gupta)",
                   util::Table::count(opt.live_weights()),
                   util::Table::pct(result.best_val_error), "-"});
  }

  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Paper shape: the global competition matches or beats per-layer\n"
      "quotas, and the gap widens at tight budgets, where the global top-k\n"
      "reallocates weights toward the later layers (Table 2's effect).\n");
  return 0;
}
