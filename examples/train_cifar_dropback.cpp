// CIFAR-scale training CLI: pick VGG-S / DenseNet / WRN (width-scaled by
// default; knobs reach paper sizes), a weight budget, and the paper's
// learning-rate schedule; prints per-epoch progress and the compression /
// energy summary.
//
//   ./train_cifar_dropback --model=vgg --budget-ratio=5 --epochs=10
//   ./train_cifar_dropback --model=wrn --wrn-depth=16 --wrn-width=4
//   ./train_cifar_dropback --model=densenet --densenet-growth=8
//
// All flags — training loop, data pipeline (--prefetch/--augment-noise),
// parallelism (--threads), crash safety (--checkpoint/--resume/--anomaly),
// telemetry (--metrics-out/--profile/--log-json) — are shared with
// train_mnist_dropback via examples/cli_config.hpp; the two binaries differ
// only in model construction and dataset synthesis.
#include <cstdio>
#include <memory>
#include <string>

#include "cli_config.hpp"
#include "data/synthetic_cifar.hpp"
#include "nn/models/densenet.hpp"
#include "nn/models/vgg_s.hpp"
#include "nn/models/wrn.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dropback;
  util::Flags flags(argc, argv);
  examples::CliConfig::Defaults defaults;
  defaults.model = "vgg";
  defaults.train_n = 400;
  defaults.val_n = 200;
  defaults.epochs = 8;
  defaults.batch = 16;
  defaults.budget_ratio = 5.0;
  defaults.lr = 0.05;
  auto cli = examples::CliConfig::parse(flags, defaults);

  data::SyntheticCifarOptions data_opt;
  data_opt.num_samples = cli.train_n;
  auto train_set = data::make_synthetic_cifar(data_opt);
  data_opt.num_samples = cli.val_n;
  data_opt.seed = 9;
  auto val_set = data::make_synthetic_cifar(data_opt);

  std::unique_ptr<nn::Module> model;
  if (cli.model == "vgg") {
    nn::models::VggSOptions opt;
    opt.width_mult = static_cast<float>(flags.get_double("vgg-width", 0.08));
    model = nn::models::make_vgg_s(opt);
  } else if (cli.model == "densenet") {
    nn::models::DenseNetOptions opt;
    opt.growth_rate = flags.get_int("densenet-growth", 6);
    opt.layers_per_block = flags.get_int("densenet-layers", 3);
    model = nn::models::make_densenet(opt);
  } else if (cli.model == "wrn") {
    nn::models::WideResNetOptions opt;
    opt.depth = flags.get_int("wrn-depth", 10);
    opt.width = flags.get_int("wrn-width", 2);
    model = nn::models::make_wrn(opt);
  } else {
    std::printf("unknown --model '%s' (vgg | densenet | wrn)\n",
                cli.model.c_str());
    return 2;
  }

  const std::int64_t total = model->num_params();
  core::DropBackConfig config;
  cli.configure_dropback(total, config);
  std::printf("%s: %lld parameters, schedule %s (%.1fx target)\n",
              cli.model.c_str(), static_cast<long long>(total),
              config.schedule->spec().c_str(),
              static_cast<double>(total) /
                  static_cast<double>(config.schedule->base_budget()));
  core::DropBackOptimizer optimizer(model->collect_parameters(), cli.lr,
                                    config);
  energy::TrafficCounter traffic;
  optimizer.set_traffic_counter(&traffic);

  // CIFAR schedule shape: decay 0.5x periodically (paper: every 25 epochs).
  optim::StepDecay schedule(cli.lr, 0.5F,
                            std::max<std::int64_t>(1, cli.train.epochs / 3));
  cli.train.schedule = &schedule;

  train::Trainer trainer(*model, optimizer, *train_set, *val_set, cli.train);
  trainer.on_epoch_end = [&](const train::EpochStats& stats) {
    std::printf("epoch %3lld  loss %.4f  train acc %.4f  val acc %.4f\n",
                static_cast<long long>(stats.epoch), stats.train_loss,
                stats.train_acc, stats.val_acc);
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
