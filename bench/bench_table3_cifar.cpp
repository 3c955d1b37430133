// Reproduces Table 3: CIFAR-10 validation error and weight compression for
// VGG-S, DenseNet, and WRN-28-10 under DropBack and three baselines
// (variational dropout, magnitude pruning, network slimming).
//
// Paper reference (selected):
//   VGG-S:   baseline 10.08%; DropBack 5M 9.75% (3x) / 3M 9.90% (5x) /
//            0.75M 13.49% (20x) / 0.5M 20.85% (30x); VD 13.50% (3.4x);
//            Mag .80 9.42% (5x); Slimming 11.08% (3.8x).
//   DenseNet: baseline 6.48%; DropBack 600k 5.86% (4.5x) / 100k 9.42% (27x);
//            VD fails (90%); Mag .75 6.41% (4x); Slimming 5.65% (2.9x).
//   WRN-28-10: baseline 3.75%; DropBack 8M 3.85% (4.5x) / 5M 4.20% (7.3x);
//            VD fails (90%); Mag .75 26.52% (4x); Slimming .75 16.64% (4x).
// Shape to verify: DropBack holds accuracy at ~5x on every architecture;
// magnitude pruning and slimming degrade sharply on WRN; VD only works on
// VGG-S.
//
// Architectures are width-scaled for CPU (DESIGN.md §2); compression ratios
// are relative so the comparison shape is preserved.
#include "bench_common.hpp"

#include <cmath>
#include <memory>

#include "baselines/magnitude_pruner.hpp"
#include "baselines/network_slimming.hpp"
#include "baselines/variational_dropout.hpp"
#include "nn/models/densenet.hpp"
#include "nn/models/vgg_s.hpp"
#include "nn/models/wrn.hpp"

namespace {

using namespace dropback;
using bench::BenchScale;

struct Row {
  std::string name;
  double error = 1.0;
  double compression = 0.0;
  std::int64_t best_epoch = -1;
  bool failed = false;
};

void print_rows(const char* title, const std::vector<Row>& rows) {
  util::Table table(
      {"CIFAR-10", "Validation error", "Weight compression", "Best epoch"});
  for (const auto& row : rows) {
    table.add_row({row.name,
                   row.failed ? util::Table::pct(row.error) + " (diverged)"
                              : util::Table::pct(row.error),
                   bench::compression_cell(row.compression),
                   row.best_epoch >= 0 ? std::to_string(row.best_epoch)
                                       : "N/A"});
  }
  std::printf("%s\n%s\n", title, table.render().c_str());
}

Row run_baseline(const char* name, nn::Module& model, bench::MnistTask& task,
                 const BenchScale& scale, const optim::LrSchedule& schedule) {
  optim::SGD sgd(model.collect_parameters(), scale.lr);
  const auto result = bench::run_training(name, model, sgd, *task.train_set,
                                          *task.val_set, scale, &schedule);
  return {result.name, result.best_val_error, 0.0, result.best_epoch, false};
}

Row run_dropback(nn::Module& model, double target_compression,
                 bench::MnistTask& task, const BenchScale& scale,
                 const optim::LrSchedule& schedule) {
  const std::int64_t total = model.num_params();
  const std::int64_t budget = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::llround(total / target_compression)));
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(budget);
  core::DropBackOptimizer opt(model.collect_parameters(), scale.lr, config);
  const std::string name =
      "DropBack " + util::Table::count(budget);
  const auto result = bench::run_training(name, model, opt, *task.train_set,
                                          *task.val_set, scale, &schedule);
  return {result.name, result.best_val_error, opt.compression_ratio(),
          result.best_epoch, false};
}

Row run_magnitude(nn::Module& model, float prune_fraction,
                  bench::MnistTask& task, const BenchScale& scale,
                  const optim::LrSchedule& schedule) {
  baselines::MagnitudePruningOptimizer opt(model.collect_parameters(),
                                           scale.lr, prune_fraction);
  char name[64];
  std::snprintf(name, sizeof(name), "Mag Pruning .%02d",
                static_cast<int>(std::lround(prune_fraction * 100)));
  const auto result = bench::run_training(name, model, opt, *task.train_set,
                                          *task.val_set, scale, &schedule);
  return {result.name, result.best_val_error, opt.compression_ratio(),
          result.best_epoch, result.best_val_error > 0.8};
}

Row run_variational(baselines::VdNet vd, bench::MnistTask& task,
                    const BenchScale& scale,
                    const optim::LrSchedule& schedule) {
  optim::SGD sgd(vd.net->collect_parameters(), scale.lr);
  const float kl_scale = 1.0F / static_cast<float>(scale.train_n);
  train::TrainConfig options;
  options.epochs = scale.epochs;
  options.batch_size = scale.batch_size;
  options.schedule = &schedule;
  train::Trainer trainer(*vd.net, sgd, *task.train_set, *task.val_set,
                         options);
  auto* layers = &vd.vd_layers;
  // KL warm-up over the first half of training (standard sparse-VD
  // practice; without it the KL term dominates the tiny synthetic task).
  const double total_batches = static_cast<double>(
      scale.epochs * ((scale.train_n + scale.batch_size - 1) /
                      scale.batch_size));
  auto calls = std::make_shared<double>(0.0);
  trainer.loss_transform = [layers, kl_scale, calls,
                            total_batches](const autograd::Variable& loss) {
    *calls += 1.0;
    const float warmup = static_cast<float>(
        std::min(1.0, *calls / std::max(1.0, total_batches * 0.5)));
    return autograd::add(
        loss, baselines::vd_total_kl(*layers, kl_scale * warmup));
  };
  const auto result = trainer.run();
  const double error = result.best_val_error();
  return {"Var. Dropout", error, baselines::vd_compression(vd.vd_layers),
          result.best_epoch, error > 0.8};
}

/// Network slimming on a Sequential VGG topology: L1 train, prune, retrain.
Row run_slimming(std::unique_ptr<nn::Sequential> net, float channel_fraction,
                 bench::MnistTask& task, const BenchScale& scale,
                 const optim::LrSchedule& schedule) {
  baselines::NetworkSlimming slimming(*net, /*l1_lambda=*/1e-4F);
  optim::SGD sgd(net->collect_parameters(), scale.lr);
  train::TrainConfig options;
  options.epochs = scale.epochs;
  options.batch_size = scale.batch_size;
  options.schedule = &schedule;
  {
    train::Trainer trainer(*net, sgd, *task.train_set, *task.val_set,
                           options);
    trainer.after_backward = [&slimming] { slimming.add_l1_subgradient(); };
    trainer.run();
  }
  const auto stats = slimming.prune(channel_fraction);
  // Retrain with pruned channels pinned.
  train::Trainer retrainer(*net, sgd, *task.train_set, *task.val_set,
                           options);
  retrainer.after_step = [&slimming](std::int64_t) { slimming.apply_masks(); };
  const auto result = retrainer.run();
  char name[64];
  std::snprintf(name, sizeof(name), "Slimming .%02d",
                static_cast<int>(std::lround(channel_fraction * 100)));
  return {name, result.best_val_error(), stats.compression_ratio(),
          result.best_epoch, result.best_val_error() > 0.8};
}

/// Approximate slimming for non-Sequential models (DenseNet/WRN): L1 on all
/// BN gammas, then zero the lowest-|gamma| fraction (gamma and beta),
/// retrain with the zeros pinned. Compression is reported as the nominal
/// channel-pruning factor, as the paper does for its ".75" settings.
Row run_gamma_slimming(nn::Module& model, float channel_fraction,
                       bench::MnistTask& task, const BenchScale& scale,
                       const optim::LrSchedule& schedule) {
  auto params = model.collect_parameters();
  std::vector<nn::Parameter*> gammas, betas;
  for (auto* p : params) {
    if (p->name == "gamma") gammas.push_back(p);
    if (p->name == "beta") betas.push_back(p);
  }
  optim::SGD sgd(params, scale.lr);
  train::TrainConfig options;
  options.epochs = scale.epochs;
  options.batch_size = scale.batch_size;
  options.schedule = &schedule;
  {
    train::Trainer trainer(model, sgd, *task.train_set, *task.val_set,
                           options);
    trainer.after_backward = [&gammas] {
      for (auto* g : gammas) {
        float* grad = g->var.grad().data();
        const float* v = g->var.value().data();
        for (std::int64_t i = 0; i < g->numel(); ++i) {
          grad[i] += 1e-4F * (v[i] > 0 ? 1.0F : (v[i] < 0 ? -1.0F : 0.0F));
        }
      }
    };
    trainer.run();
  }
  // Global gamma threshold.
  std::vector<float> mags;
  for (auto* g : gammas) {
    for (std::int64_t i = 0; i < g->numel(); ++i) {
      mags.push_back(std::fabs(g->var.value()[i]));
    }
  }
  std::sort(mags.begin(), mags.end());
  const auto rank = static_cast<std::size_t>(
      std::llround(channel_fraction * static_cast<double>(mags.size())));
  const float threshold = rank == 0 ? -1.0F : mags[rank - 1];
  auto apply_masks = [&] {
    for (std::size_t b = 0; b < gammas.size(); ++b) {
      float* g = gammas[b]->var.value().data();
      float* be = betas[b]->var.value().data();
      for (std::int64_t i = 0; i < gammas[b]->numel(); ++i) {
        if (std::fabs(g[i]) <= threshold) {
          g[i] = 0.0F;
          be[i] = 0.0F;
        }
      }
    }
  };
  apply_masks();
  train::Trainer retrainer(model, sgd, *task.train_set, *task.val_set,
                           options);
  retrainer.after_step = [&apply_masks](std::int64_t) { apply_masks(); };
  const auto result = retrainer.run();
  char name[64];
  std::snprintf(name, sizeof(name), "Slimming .%02d (approx)",
                static_cast<int>(std::lround(channel_fraction * 100)));
  return {name, result.best_val_error(),
          1.0 / (1.0 - static_cast<double>(channel_fraction)),
          result.best_epoch, result.best_val_error() > 0.8};
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const BenchScale scale = BenchScale::cifar(flags);
  bench::print_scale_banner("Table 3: CIFAR-10 pruning comparison", scale);
  auto task = bench::make_cifar_task(scale);
  optim::StepDecay schedule(scale.lr, 0.5F,
                            std::max<std::int64_t>(1, scale.epochs / 3));
  const float vgg_width =
      static_cast<float>(flags.get_double("vgg-width", 0.08));

  // --- VGG-S ---------------------------------------------------------------
  {
    std::vector<Row> rows;
    auto make = [&] {
      nn::models::VggSOptions opt;
      opt.width_mult = vgg_width;
      return nn::models::make_vgg_s(opt);
    };
    {
      auto model = make();
      std::printf("VGG-S scaled to %s parameters\n",
                  util::Table::count(model->num_params()).c_str());
      rows.push_back(
          run_baseline("VGG-S Baseline", *model, task, scale, schedule));
    }
    for (double ratio : {3.0, 5.0, 20.0, 30.0}) {
      auto model = make();
      rows.push_back(run_dropback(*model, ratio, task, scale, schedule));
      rows.back().name = "VGG-S " + rows.back().name;
    }
    {
      auto vd = baselines::make_vd_vgg_s(vgg_width, 32, 7);
      rows.push_back(run_variational(std::move(vd), task, scale, schedule));
      rows.back().name = "VGG-S " + rows.back().name;
    }
    {
      auto model = make();
      rows.push_back(run_magnitude(*model, 0.80F, task, scale, schedule));
      rows.back().name = "VGG-S " + rows.back().name;
    }
    {
      rows.push_back(
          run_slimming(make(), 0.6F, task, scale, schedule));
      rows.back().name = "VGG-S " + rows.back().name;
    }
    print_rows("VGG-S", rows);
  }

  // --- DenseNet ------------------------------------------------------------
  {
    std::vector<Row> rows;
    auto make = [&] {
      nn::models::DenseNetOptions opt;
      opt.growth_rate = flags.get_int("densenet-growth", 6);
      opt.layers_per_block = flags.get_int("densenet-layers", 3);
      opt.initial_channels = 8;
      return nn::models::make_densenet(opt);
    };
    {
      auto model = make();
      std::printf("DenseNet scaled to %s parameters\n",
                  util::Table::count(model->num_params()).c_str());
      rows.push_back(
          run_baseline("Densenet Baseline", *model, task, scale, schedule));
    }
    for (double ratio : {4.5, 27.0}) {
      auto model = make();
      rows.push_back(run_dropback(*model, ratio, task, scale, schedule));
      rows.back().name = "Densenet " + rows.back().name;
    }
    {
      auto model = make();
      rows.push_back(run_magnitude(*model, 0.75F, task, scale, schedule));
      rows.back().name = "Densenet " + rows.back().name;
    }
    {
      auto model = make();
      rows.push_back(
          run_gamma_slimming(*model, 0.65F, task, scale, schedule));
      rows.back().name = "Densenet " + rows.back().name;
    }
    print_rows("DenseNet", rows);
  }

  // --- WRN -----------------------------------------------------------------
  {
    std::vector<Row> rows;
    auto make = [&] {
      nn::models::WideResNetOptions opt;
      opt.depth = flags.get_int("wrn-depth", 10);
      opt.width = flags.get_int("wrn-width", 2);
      return nn::models::make_wrn(opt);
    };
    {
      auto model = make();
      std::printf("WRN scaled to %s parameters\n",
                  util::Table::count(model->num_params()).c_str());
      rows.push_back(
          run_baseline("WRN Baseline", *model, task, scale, schedule));
    }
    for (double ratio : {4.5, 7.3}) {
      auto model = make();
      rows.push_back(run_dropback(*model, ratio, task, scale, schedule));
      rows.back().name = "WRN " + rows.back().name;
    }
    {
      auto model = make();
      rows.push_back(run_magnitude(*model, 0.75F, task, scale, schedule));
      rows.back().name = "WRN " + rows.back().name;
    }
    {
      auto model = make();
      rows.push_back(
          run_gamma_slimming(*model, 0.75F, task, scale, schedule));
      rows.back().name = "WRN " + rows.back().name;
    }
    print_rows("WRN", rows);
  }

  std::printf(
      "Paper shape: DropBack holds near-baseline error at ~5x on every\n"
      "architecture; magnitude pruning/slimming degrade most on WRN, and\n"
      "variational dropout is competitive only on VGG-S.\n");
  return 0;
}
