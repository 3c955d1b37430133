// Quickstart: train an MLP on the synthetic MNIST task with DropBack,
// keeping only 10k of its ~90k weights live, then print the accuracy and
// compression achieved. ~30 lines of library use.
//
//   ./quickstart [--budget=10000] [--epochs=10]
#include <cstdio>

#include "core/dropback_optimizer.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/models/lenet.hpp"
#include "train/trainer.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace dropback;
  util::Flags flags(argc, argv);

  // 1. Data: a procedural MNIST stand-in (28x28 digits, 10 classes).
  data::SyntheticMnistOptions data_opt;
  data_opt.num_samples = 1000;
  auto train_set = data::make_synthetic_mnist(data_opt);
  data_opt.num_samples = 300;
  data_opt.seed = 2;
  auto val_set = data::make_synthetic_mnist(data_opt);

  // 2. Model: the paper's MNIST-100-100 MLP (89,610 weights).
  auto model = nn::models::make_mnist_100_100(/*seed=*/7);

  // 3. Optimizer: DropBack — SGD constrained to a budget of live weights;
  //    everything else is regenerated from the init seed on each access.
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(flags.get_int("budget", 10000));
  core::DropBackOptimizer optimizer(model->collect_parameters(), /*lr=*/0.1F,
                                    config);

  // 4. Train.
  train::TrainConfig options;
  options.epochs = flags.get_int("epochs", 10);
  options.batch_size = 32;
  train::Trainer trainer(*model, optimizer, *train_set, *val_set, options);
  const auto result = trainer.run();

  std::printf("validation accuracy : %.2f%% (best epoch %lld)\n",
              100.0 * result.best_val_acc,
              static_cast<long long>(result.best_epoch));
  std::printf("live weights        : %lld of %lld (%.1fx compression)\n",
              static_cast<long long>(optimizer.live_weights()),
              static_cast<long long>(model->num_params()),
              optimizer.compression_ratio());
  return 0;
}
