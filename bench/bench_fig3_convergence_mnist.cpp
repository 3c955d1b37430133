// Reproduces Figure 3: validation-accuracy convergence of LeNet-300-100
// under DropBack vs the unpruned baseline.
//
// Paper shape: both curves rise together and end within ~1% of each other —
// DropBack does not slow MNIST convergence.
#include "bench_common.hpp"

#include <cmath>

#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace dropback;
  util::Flags flags(argc, argv);
  const bench::BenchScale scale = bench::BenchScale::mnist(flags);
  bench::print_scale_banner("Figure 3: LeNet-300-100 convergence", scale);
  auto task = bench::make_mnist_task(scale);
  optim::StepDecay schedule(scale.lr, 0.5F,
                            std::max<std::int64_t>(1, scale.epochs / 5), 4);

  bench::MethodResult baseline, dropback;
  {
    auto model = nn::models::make_lenet_300_100(7);
    optim::SGD sgd(model->collect_parameters(), scale.lr);
    baseline = bench::run_training("Baseline", *model, sgd, *task.train_set,
                                   *task.val_set, scale, &schedule);
  }
  {
    auto model = nn::models::make_lenet_300_100(7);
    core::DropBackConfig config;
    config.schedule = optim::constant_budget(flags.get_int("budget", 50000));
    core::DropBackOptimizer opt(model->collect_parameters(), scale.lr,
                                config);
    dropback = bench::run_training("DropBack", *model, opt, *task.train_set,
                                   *task.val_set, scale, &schedule);
  }

  util::CsvWriter csv("fig3_convergence_mnist.csv");
  csv.header({"epoch", "baseline_val_acc", "dropback_val_acc"});
  std::printf("epoch  baseline  dropback\n");
  for (std::size_t e = 0; e < baseline.val_acc_per_epoch.size(); ++e) {
    const double b = baseline.val_acc_per_epoch[e];
    const double d = e < dropback.val_acc_per_epoch.size()
                         ? dropback.val_acc_per_epoch[e]
                         : 0.0;
    csv.row(std::vector<double>{static_cast<double>(e), b, d});
    std::printf("%5zu  %8.4f  %8.4f\n", e, b, d);
  }
  std::printf(
      "\nfinal gap: %.2f%% (paper shape: final accuracies within ~1%%)\n"
      "Series written to fig3_convergence_mnist.csv\n",
      100.0 * std::fabs(baseline.val_acc_per_epoch.back() -
                        dropback.val_acc_per_epoch.back()));
  return 0;
}
