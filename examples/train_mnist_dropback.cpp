// Full training CLI for the MNIST experiments: choose the model, weight
// budget (fixed or schedule-driven), and lr schedule; prints per-epoch
// progress, the compression summary, the modeled energy of the run, and
// (optionally) saves the compressed model.
//
//   ./train_mnist_dropback --model=lenet --budget=50000 --epochs=20
//       --budget-schedule=const:budget=50000,freeze_epoch=7 --lr=0.1
//   ./train_mnist_dropback --model=mlp --budget=1500      # extreme budget
//   ./train_mnist_dropback --budget-schedule=dsd:budget=20000,dense=2,freeze=3
//
// All flags — training loop, data pipeline (--prefetch/--augment-noise),
// parallelism (--threads), crash safety (--checkpoint/--resume/--anomaly),
// telemetry (--metrics-out/--profile/--log-json) — are shared with
// train_cifar_dropback via examples/cli_config.hpp; the two binaries differ
// only in model construction and dataset synthesis.
#include <cstdio>
#include <string>

#include "cli_config.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/models/lenet.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dropback;
  util::Flags flags(argc, argv);
  examples::CliConfig::Defaults defaults;
  defaults.model = "mlp";
  defaults.train_n = 1500;
  defaults.val_n = 500;
  defaults.epochs = 15;
  defaults.batch = 32;
  defaults.budget = 20000;
  defaults.lr = 0.1;
  auto cli = examples::CliConfig::parse(flags, defaults);

  data::SyntheticMnistOptions data_opt;
  data_opt.num_samples = cli.train_n;
  auto train_set = data::make_synthetic_mnist(data_opt);
  data_opt.num_samples = cli.val_n;
  data_opt.seed = 2;
  auto val_set = data::make_synthetic_mnist(data_opt);

  auto model = cli.model == "lenet" ? nn::models::make_lenet_300_100(7)
                                    : nn::models::make_mnist_100_100(7);
  core::DropBackConfig config;
  cli.configure_dropback(model->num_params(), config);
  std::printf("model: %s (%lld weights), schedule %s (%.2fx target)\n",
              cli.model == "lenet" ? "LeNet-300-100" : "MNIST-100-100",
              static_cast<long long>(model->num_params()),
              config.schedule->spec().c_str(),
              static_cast<double>(model->num_params()) /
                  static_cast<double>(config.schedule->base_budget()));
  core::DropBackOptimizer optimizer(model->collect_parameters(), cli.lr,
                                    config);
  energy::TrafficCounter traffic;
  optimizer.set_traffic_counter(&traffic);

  // The paper's MNIST schedule: lr halved four times over the run.
  optim::StepDecay schedule(
      cli.lr, 0.5F, std::max<std::int64_t>(1, cli.train.epochs / 5), 4);
  cli.train.schedule = &schedule;

  train::Trainer trainer(*model, optimizer, *train_set, *val_set, cli.train);
  trainer.on_epoch_end = [&](const train::EpochStats& stats) {
    std::printf(
        "epoch %3lld  loss %.4f  train acc %.4f  val acc %.4f  lr %.4f%s\n",
        static_cast<long long>(stats.epoch), stats.train_loss,
        stats.train_acc, stats.val_acc, static_cast<double>(stats.lr),
        optimizer.frozen() ? "  [frozen]" : "");
  };
  const auto result = trainer.run();

  std::printf("\nbest validation error: %s at epoch %lld\n",
              util::Table::pct(result.best_val_error()).c_str(),
              static_cast<long long>(result.best_epoch));
  std::printf("compression: %.2fx (%lld live weights)\n",
              optimizer.compression_ratio(),
              static_cast<long long>(optimizer.live_weights()));
  std::printf("\nmodeled training energy:\n%s\n", traffic.report().c_str());

  if (!cli.save_path.empty()) {
    auto store = core::SparseWeightStore::from_optimizer(optimizer);
    store.save_file(cli.save_path);
    std::printf("\nsaved compressed model to %s (%lld bytes vs %lld dense)\n",
                cli.save_path.c_str(), static_cast<long long>(store.bytes()),
                static_cast<long long>(store.dense_bytes()));
  }
  cli.report_telemetry();
  return 0;
}
