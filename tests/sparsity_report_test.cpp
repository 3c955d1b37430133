#include "analysis/sparsity_report.hpp"

#include <gtest/gtest.h>

#include "autograd/ops.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "rng/xorshift.hpp"

namespace dropback::analysis {
namespace {

namespace T = dropback::tensor;
namespace ag = dropback::autograd;

std::unique_ptr<nn::Sequential> tiny_net() {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Linear>(4, 6, 1);
  net->emplace<nn::Linear>(6, 3, 2);
  return net;
}

void step_once(nn::Sequential& net, core::DropBackOptimizer& opt) {
  rng::Xorshift128 rng(3);
  T::Tensor x({2, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
  ag::Variable input(x);
  ag::backward(ag::sum(ag::mul(net.forward(input), net.forward(input))));
  opt.step();
}

TEST(SparsityReport, FromOptimizerSumsToBudget) {
  auto net = tiny_net();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(13);
  core::DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  step_once(*net, opt);
  const auto report = sparsity_report(opt);
  EXPECT_EQ(report.layers.size(), 4U);
  EXPECT_EQ(report.total_dense, 51);
  EXPECT_EQ(report.total_tracked, 13);
  EXPECT_NEAR(report.total_compression(), 51.0 / 13.0, 1e-9);
  double share_sum = 0.0;
  for (std::size_t i = 0; i < report.layers.size(); ++i) {
    share_sum += report.budget_share(i);
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
}

TEST(SparsityReport, OptimizerAndStoreAgree) {
  auto net = tiny_net();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(9);
  core::DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  step_once(*net, opt);
  const auto from_opt = sparsity_report(opt);
  const auto from_store =
      sparsity_report(core::SparseWeightStore::from_optimizer(opt));
  ASSERT_EQ(from_opt.layers.size(), from_store.layers.size());
  for (std::size_t i = 0; i < from_opt.layers.size(); ++i) {
    EXPECT_EQ(from_opt.layers[i].tracked, from_store.layers[i].tracked);
    EXPECT_EQ(from_opt.layers[i].dense, from_store.layers[i].dense);
  }
}

TEST(SparsityReport, UntrainedOptimizerIsAllTracked) {
  auto net = tiny_net();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(9);
  core::DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  const auto report = sparsity_report(opt);
  EXPECT_EQ(report.total_tracked, 51);
  EXPECT_NEAR(report.total_compression(), 1.0, 1e-9);
}

TEST(SparsityReport, RenderIncludesTotalsRow) {
  auto net = tiny_net();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(9);
  core::DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  step_once(*net, opt);
  const std::string rendered = sparsity_report(opt).render();
  EXPECT_NE(rendered.find("Total"), std::string::npos);
  EXPECT_NE(rendered.find("budget share"), std::string::npos);
}

}  // namespace
}  // namespace dropback::analysis
