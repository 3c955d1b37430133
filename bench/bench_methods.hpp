// Shared five-method runner for the diffusion/PCA analysis figures (5 & 6):
// baseline SGD, DropBack 2k, DropBack 10k, magnitude pruning .75, and sparse
// variational dropout, all on MNIST-100-100. (Network slimming is excluded
// exactly as in the paper — being train-prune-retrain it has no single
// training trajectory to analyze.)
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/magnitude_pruner.hpp"
#include "baselines/variational_dropout.hpp"
#include "bench_common.hpp"
#include "core/dropback_optimizer.hpp"
#include "nn/models/lenet.hpp"

namespace dropback::bench {

struct MethodRun {
  std::string name;
  double final_val_acc = 0.0;
};

/// Trains one method; `per_step(step, params)` fires after every optimizer
/// step with the method's parameter list.
using StepCallback =
    std::function<void(std::int64_t, const std::vector<nn::Parameter*>&)>;

inline MethodRun run_method_with_callback(
    const std::string& method, MnistTask& task, const BenchScale& scale,
    const StepCallback& per_step,
    const std::function<void(const std::vector<nn::Parameter*>&)>& on_start) {
  MethodRun run;
  run.name = method;

  train::TrainConfig options;
  options.epochs = scale.epochs;
  options.batch_size = scale.batch_size;

  auto attach = [&](train::Trainer& trainer,
                    const std::vector<nn::Parameter*>& params) {
    if (on_start) on_start(params);
    trainer.after_step = [per_step, params](std::int64_t step) {
      if (per_step) per_step(step, params);
    };
  };

  if (method == "Baseline") {
    auto model = nn::models::make_mnist_100_100(7);
    auto params = model->collect_parameters();
    optim::SGD opt(params, scale.lr);
    train::Trainer trainer(*model, opt, *task.train_set, *task.val_set,
                           options);
    attach(trainer, params);
    run.final_val_acc = trainer.run().final_val_acc();
  } else if (method == "Dropback 2k" || method == "Dropback 10k") {
    auto model = nn::models::make_mnist_100_100(7);
    auto params = model->collect_parameters();
    core::DropBackConfig config;
    config.schedule =
        optim::constant_budget(method == "Dropback 2k" ? 2000 : 10000);
    core::DropBackOptimizer opt(params, scale.lr, config);
    train::Trainer trainer(*model, opt, *task.train_set, *task.val_set,
                           options);
    attach(trainer, params);
    run.final_val_acc = trainer.run().final_val_acc();
  } else if (method == "Magnitude Pruning .75") {
    auto model = nn::models::make_mnist_100_100(7);
    auto params = model->collect_parameters();
    baselines::MagnitudePruningOptimizer opt(params, scale.lr, 0.75F);
    train::Trainer trainer(*model, opt, *task.train_set, *task.val_set,
                           options);
    attach(trainer, params);
    run.final_val_acc = trainer.run().final_val_acc();
  } else if (method == "VD Sparse") {
    auto vd = baselines::make_vd_mlp(784, {100, 100}, 10, 7);
    auto params = vd.net->collect_parameters();
    // Analyze the posterior means (theta) plus biases — the weights that
    // define the deployed network.
    std::vector<nn::Parameter*> thetas;
    for (auto* p : params) {
      if (p->name != "log_sigma2") thetas.push_back(p);
    }
    optim::SGD opt(params, scale.lr);
    train::Trainer trainer(*vd.net, opt, *task.train_set, *task.val_set,
                           options);
    const float kl_scale = 1.0F / static_cast<float>(scale.train_n);
    auto* layers_ptr = &vd.vd_layers;
    trainer.loss_transform =
        [layers_ptr, kl_scale](const autograd::Variable& loss) {
          return autograd::add(loss,
                               baselines::vd_total_kl(*layers_ptr, kl_scale));
        };
    attach(trainer, thetas);
    run.final_val_acc = trainer.run().final_val_acc();
  }
  return run;
}

inline std::vector<std::string> figure56_methods() {
  return {"Baseline", "Dropback 2k", "Dropback 10k", "Magnitude Pruning .75",
          "VD Sparse"};
}

}  // namespace dropback::bench
