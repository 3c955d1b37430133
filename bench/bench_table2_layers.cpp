// Reproduces Table 2: per-layer retained-gradient counts of the final
// trained MNIST-100-100 network under DropBack 10k and DropBack 1.5k.
//
// Paper reference:
//   layer | Baseline | DropBack 10000     | DropBack 1500
//   fc1   | 78500    | 7223  (10.9x)      | 734 (107.0x)
//   fc2   | 10100    | 2128  (4.8x)       | 512 (19.7x)
//   fc3   | 1010     | 549   (1.8x)       | 254 (4.0x)
// Shape to verify: later layers keep a proportionally larger share of their
// weights as the budget shrinks (fc3 compresses far less than fc1).
#include "bench_common.hpp"

namespace {

using namespace dropback;
using bench::BenchScale;

struct LayerCounts {
  std::int64_t fc[3] = {0, 0, 0};
};

LayerCounts train_and_count(bench::MnistTask& task, std::int64_t budget,
                            const BenchScale& scale) {
  auto model = nn::models::make_mnist_100_100(7);
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(budget);
  core::DropBackOptimizer opt(model->collect_parameters(), scale.lr, config);
  optim::StepDecay schedule(scale.lr, 0.5F,
                            std::max<std::int64_t>(1, scale.epochs / 5), 4);
  bench::run_training("DropBack", *model, opt, *task.train_set, *task.val_set,
                      scale, &schedule);
  // Parameters are ordered (fc1.w, fc1.b, fc2.w, fc2.b, fc3.w, fc3.b).
  LayerCounts counts;
  for (std::size_t p = 0; p < opt.param_index().num_params(); ++p) {
    counts.fc[p / 2] += opt.tracked().tracked_count_in(p);
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const BenchScale scale = BenchScale::mnist(flags);
  bench::print_scale_banner("Table 2: per-layer retained weights", scale);
  auto task = bench::make_mnist_task(scale);

  const LayerCounts db10k = train_and_count(task, 10000, scale);
  const LayerCounts db1500 = train_and_count(task, 1500, scale);

  const std::int64_t dense[3] = {78500, 10100, 1010};
  const char* names[3] = {"fc1 (100x784)", "fc2 (100x100)", "fc3 (100x10)"};

  util::Table table({"layer", "Baseline", "DropBack 10000", "DropBack 1500"});
  std::int64_t total10k = 0, total1500 = 0;
  for (int l = 0; l < 3; ++l) {
    total10k += db10k.fc[l];
    total1500 += db1500.fc[l];
    table.add_row(
        {names[l], std::to_string(dense[l]),
         std::to_string(db10k.fc[l]) + " (" +
             util::Table::times(static_cast<double>(dense[l]) /
                                    std::max<std::int64_t>(1, db10k.fc[l]),
                                1) +
             ")",
         std::to_string(db1500.fc[l]) + " (" +
             util::Table::times(static_cast<double>(dense[l]) /
                                    std::max<std::int64_t>(1, db1500.fc[l]),
                                1) +
             ")"});
  }
  table.add_row({"Total", "89610",
                 std::to_string(total10k) + " (" +
                     util::Table::times(89610.0 / total10k, 1) + ")",
                 std::to_string(total1500) + " (" +
                     util::Table::times(89610.0 / total1500, 1) + ")"});
  std::printf("%s\n", table.render().c_str());

  const double share_fc3_10k =
      static_cast<double>(db10k.fc[2]) / static_cast<double>(total10k);
  const double share_fc3_1500 =
      static_cast<double>(db1500.fc[2]) / static_cast<double>(total1500);
  std::printf(
      "Paper shape: the tighter budget allocates a larger *share* to later\n"
      "layers. fc3 share: %.1f%% at 10k vs %.1f%% at 1.5k (paper: 5.5%% vs "
      "16.9%%).\n",
      share_fc3_10k * 100.0, share_fc3_1500 * 100.0);
  return 0;
}
