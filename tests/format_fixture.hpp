// The seeded fixture every persisted format is saved from: format_pin_test
// pins the bytes it produces and codec_fuzz_test mutates them.
#pragma once

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "autograd/ops.hpp"
#include "core/dropback_optimizer.hpp"
#include "core/sparse_weight_store.hpp"
#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "optim/budget_schedule.hpp"

namespace dropback::format_fixture {

namespace T = dropback::tensor;
namespace ag = dropback::autograd;

/// A 8-6-3 MLP trained for six DropBack steps under `schedule` with two
/// steps per epoch; gradients come from a fixed seeded batch through plain
/// arithmetic ops, so the weights are a pure function of the seeds.
struct Fixture {
  nn::Sequential net;
  std::vector<nn::Parameter*> params;
  std::unique_ptr<core::DropBackOptimizer> opt;

  explicit Fixture(std::shared_ptr<const optim::BudgetSchedule> schedule) {
    net.emplace<nn::Linear>(8, 6, 11);
    net.emplace<nn::Linear>(6, 3, 12);
    params = net.collect_parameters();
    core::DropBackConfig config;
    config.schedule = std::move(schedule);
    config.steps_per_epoch = 2;
    opt = std::make_unique<core::DropBackOptimizer>(params, 0.1F, config);
    T::Tensor x({4, 8});
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = 0.125F * static_cast<float>((i * 7) % 17) - 1.0F;
    }
    for (int step = 0; step < 6; ++step) {
      net.zero_grad();
      ag::Variable input(x);
      ag::Variable out = net.forward(input);
      ag::backward(ag::sum(ag::mul(out, out)));
      opt->step();
    }
  }

  std::string optimizer_state() const {
    std::ostringstream out(std::ios::binary);
    opt->save_state(out);
    return out.str();
  }
  core::SparseWeightStore store() const {
    return core::SparseWeightStore::from_optimizer(*opt);
  }
};

/// 12 samples of 8 features over 3 classes.
inline std::unique_ptr<data::InMemoryDataset> fixture_dataset() {
  T::Tensor images({12, 8});
  for (std::int64_t i = 0; i < images.numel(); ++i) {
    images[i] = 0.25F * static_cast<float>(i % 9);
  }
  std::vector<std::int64_t> labels(12);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int64_t>(i % 3);
  }
  return std::make_unique<data::InMemoryDataset>(images, labels, 3);
}

}  // namespace dropback::format_fixture
