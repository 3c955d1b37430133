// Compares the four pruning approaches of the paper on one model and one
// budget: DropBack, magnitude pruning, sparse variational dropout, and the
// DropBack-with-zeroing ablation (what naive pruning-at-init would do).
//
//   ./compare_pruning [--budget=5000] [--epochs=12]
#include <cstdio>

#include "baselines/magnitude_pruner.hpp"
#include "baselines/variational_dropout.hpp"
#include "core/dropback_optimizer.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/models/lenet.hpp"
#include "train/trainer.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dropback;
  util::Flags flags(argc, argv);
  const std::int64_t budget = flags.get_int("budget", 5000);
  const std::int64_t epochs = flags.get_int("epochs", 12);

  data::SyntheticMnistOptions data_opt;
  data_opt.num_samples = 1000;
  auto train_set = data::make_synthetic_mnist(data_opt);
  data_opt.num_samples = 300;
  data_opt.seed = 2;
  auto val_set = data::make_synthetic_mnist(data_opt);

  train::TrainConfig options;
  options.epochs = epochs;
  options.batch_size = 32;

  util::Table table(
      {"method", "val error", "compression", "best epoch"});

  auto add_row = [&](const std::string& name,
                     const train::TrainResult& result, double compression) {
    table.add_row({name, util::Table::pct(result.best_val_error()),
                   util::Table::times(compression),
                   std::to_string(result.best_epoch)});
  };

  const std::int64_t total = nn::models::make_mnist_100_100(7)->num_params();
  std::printf("MNIST-100-100 (%lld weights), budget %lld, %lld epochs\n\n",
              static_cast<long long>(total), static_cast<long long>(budget),
              static_cast<long long>(epochs));

  {  // DropBack (regeneration)
    auto model = nn::models::make_mnist_100_100(7);
    core::DropBackConfig config;
    config.schedule = optim::constant_budget(budget);
    core::DropBackOptimizer opt(model->collect_parameters(), 0.1F, config);
    train::Trainer trainer(*model, opt, *train_set, *val_set, options);
    const auto result = trainer.run();  // run before reading compression
    add_row("DropBack (regen)", result, opt.compression_ratio());
  }
  {  // DropBack ablation: zero the untracked weights instead
    auto model = nn::models::make_mnist_100_100(7);
    core::DropBackConfig config;
    config.schedule = optim::constant_budget(budget);
    config.regenerate_untracked = false;
    core::DropBackOptimizer opt(model->collect_parameters(), 0.1F, config);
    train::Trainer trainer(*model, opt, *train_set, *val_set, options);
    const auto result = trainer.run();
    add_row("DropBack (zeroed, ablation)", result, opt.compression_ratio());
  }
  {  // magnitude pruning at the same live-weight budget
    auto model = nn::models::make_mnist_100_100(7);
    const float fraction =
        1.0F - static_cast<float>(budget) / static_cast<float>(total);
    baselines::MagnitudePruningOptimizer opt(model->collect_parameters(),
                                             0.1F, fraction);
    train::Trainer trainer(*model, opt, *train_set, *val_set, options);
    const auto result = trainer.run();
    add_row("Magnitude pruning", result, opt.compression_ratio());
  }
  {  // sparse variational dropout
    auto vd = baselines::make_vd_mlp(784, {100, 100}, 10, 7);
    optim::SGD opt(vd.net->collect_parameters(), 0.1F);
    train::Trainer trainer(*vd.net, opt, *train_set, *val_set, options);
    auto* layers = &vd.vd_layers;
    const float kl_scale = 1.0F / 1000.0F;
    trainer.loss_transform = [layers,
                              kl_scale](const autograd::Variable& loss) {
      return autograd::add(loss, baselines::vd_total_kl(*layers, kl_scale));
    };
    const auto result = trainer.run();
    add_row("Variational dropout", result,
            baselines::vd_compression(vd.vd_layers));
  }

  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Expected ordering (paper): DropBack-with-regeneration best;\n"
      "zeroing collapses; magnitude pruning in between; VD compression is\n"
      "learned rather than budgeted.\n");
  return 0;
}
