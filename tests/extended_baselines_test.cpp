// Tests for the extended baseline set: DSD (Han et al. 2017), gradual
// magnitude pruning (Zhu & Gupta 2017), per-layer budget scope, and the
// accelerator memory-hierarchy model.
#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.hpp"
#include "baselines/dsd.hpp"
#include "baselines/gradual_pruner.hpp"
#include "core/dropback_optimizer.hpp"
#include "energy/memory_hierarchy.hpp"
#include "nn/linear.hpp"
#include "nn/models/lenet.hpp"
#include "nn/sequential.hpp"
#include "optim/sgd.hpp"
#include "rng/xorshift.hpp"

namespace dropback {
namespace {

namespace T = dropback::tensor;
namespace ag = dropback::autograd;

std::unique_ptr<nn::Sequential> tiny_net(std::uint64_t seed = 1) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Linear>(4, 6, seed);
  net->emplace<nn::Linear>(6, 3, seed + 1);
  return net;
}

void make_gradients(nn::Module& net, std::uint64_t seed) {
  rng::Xorshift128 rng(seed);
  T::Tensor x({2, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
  ag::Variable input(x);
  ag::backward(ag::sum(ag::mul(net.forward(input), net.forward(input))));
}

std::int64_t count_zeros(nn::Module& net) {
  std::int64_t zeros = 0;
  for (auto* p : net.parameters()) {
    for (std::int64_t i = 0; i < p->numel(); ++i) {
      if (p->var.value()[i] == 0.0F) ++zeros;
    }
  }
  return zeros;
}

// --- DSD ---------------------------------------------------------------------

TEST(Dsd, PhaseTransitionsFollowConfig) {
  auto net = tiny_net();
  baselines::DsdConfig config;
  config.sparse_fraction = 0.5F;
  config.sparse_begin_step = 3;
  config.sparse_end_step = 6;
  baselines::DsdSchedule dsd(net->collect_parameters(), config);
  EXPECT_EQ(dsd.phase(), baselines::DsdSchedule::Phase::kDenseInitial);
  dsd.on_step(1);
  EXPECT_EQ(dsd.phase(), baselines::DsdSchedule::Phase::kDenseInitial);
  dsd.on_step(3);
  EXPECT_EQ(dsd.phase(), baselines::DsdSchedule::Phase::kSparse);
  EXPECT_GT(dsd.masked_weights(), 0);
  dsd.on_step(6);
  EXPECT_EQ(dsd.phase(), baselines::DsdSchedule::Phase::kDenseFinal);
  EXPECT_EQ(dsd.masked_weights(), 0);
}

TEST(Dsd, SparsePhaseZeroesLowestMagnitudes) {
  auto net = tiny_net();
  baselines::DsdConfig config;
  config.sparse_fraction = 0.5F;
  config.sparse_begin_step = 1;
  config.sparse_end_step = 100;
  baselines::DsdSchedule dsd(net->collect_parameters(), config);
  dsd.on_step(1);
  // About half the 51 weights are zeroed (keep = ceil(51 * 0.5)).
  const std::int64_t zeros = count_zeros(*net);
  EXPECT_GE(zeros, 24);
  EXPECT_LE(zeros, 27);
}

TEST(Dsd, MaskReappliedAfterUpdates) {
  auto net = tiny_net();
  baselines::DsdConfig config;
  config.sparse_fraction = 0.4F;
  config.sparse_begin_step = 1;
  config.sparse_end_step = 50;
  baselines::DsdSchedule dsd(net->collect_parameters(), config);
  optim::SGD sgd(net->collect_parameters(), 0.1F);
  dsd.on_step(1);
  const std::int64_t zeros_before = count_zeros(*net);
  // Gradient step perturbs everything; the schedule restores the mask.
  make_gradients(*net, 3);
  sgd.step();
  dsd.on_step(2);
  EXPECT_GE(count_zeros(*net), zeros_before);
}

TEST(Dsd, DenseFinalPhaseLetsWeightsRecover) {
  auto net = tiny_net();
  baselines::DsdConfig config;
  config.sparse_fraction = 0.5F;
  config.sparse_begin_step = 1;
  config.sparse_end_step = 2;
  baselines::DsdSchedule dsd(net->collect_parameters(), config);
  optim::SGD sgd(net->collect_parameters(), 0.1F);
  dsd.on_step(1);  // sparse
  dsd.on_step(2);  // dense final
  make_gradients(*net, 4);
  sgd.step();
  dsd.on_step(3);
  // Most previously-zeroed weights received gradient and are nonzero again.
  EXPECT_LT(count_zeros(*net), 10);
}

// --- gradual pruning --------------------------------------------------------

TEST(GradualPruning, SparsityRampIsCubic) {
  auto net = tiny_net();
  baselines::GradualPruningConfig config;
  config.final_sparsity = 0.8F;
  config.ramp_begin_step = 0;
  config.ramp_end_step = 100;
  baselines::GradualMagnitudePruningOptimizer opt(net->collect_parameters(),
                                                  0.1F, config);
  EXPECT_FLOAT_EQ(opt.sparsity_at(0), 0.0F);
  EXPECT_FLOAT_EQ(opt.sparsity_at(100), 0.8F);
  EXPECT_FLOAT_EQ(opt.sparsity_at(1000), 0.8F);
  // Half way: s = 0.8 * (1 - 0.5^3) = 0.7.
  EXPECT_NEAR(opt.sparsity_at(50), 0.7F, 1e-5F);
  // Monotone non-decreasing.
  float prev = 0.0F;
  for (int s = 0; s <= 100; s += 5) {
    const float now = opt.sparsity_at(s);
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(GradualPruning, SparsityGrowsDuringTraining) {
  auto net = tiny_net();
  baselines::GradualPruningConfig config;
  config.final_sparsity = 0.75F;
  config.ramp_begin_step = 0;
  config.ramp_end_step = 20;
  config.prune_every = 1;
  baselines::GradualMagnitudePruningOptimizer opt(net->collect_parameters(),
                                                  0.1F, config);
  std::int64_t live_early = 0, live_late = 0;
  for (int iter = 0; iter < 25; ++iter) {
    net->zero_grad();
    make_gradients(*net, 60 + iter);
    opt.step();
    if (iter == 2) live_early = opt.live_weights();
    if (iter == 24) live_late = opt.live_weights();
  }
  EXPECT_GT(live_early, live_late);
  // Final live fraction ~25%.
  EXPECT_NEAR(static_cast<double>(live_late), 51.0 * 0.25, 3.0);
  EXPECT_GT(opt.compression_ratio(), 3.0);
}

TEST(GradualPruning, RejectsBadConfig) {
  auto net = tiny_net();
  baselines::GradualPruningConfig config;
  config.final_sparsity = 1.0F;
  EXPECT_THROW(baselines::GradualMagnitudePruningOptimizer(
                   net->collect_parameters(), 0.1F, config),
               std::invalid_argument);
}

// --- per-layer budget scope ---------------------------------------------------

TEST(BudgetScope, PerLayerQuotasAreProportional) {
  auto model = nn::models::make_mnist_100_100(7);
  auto params = model->collect_parameters();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(9000);
  config.scope = optim::BudgetScope::kPerLayer;
  core::DropBackOptimizer opt(params, 0.1F, config);
  // One step with synthetic gradients.
  rng::Xorshift128 rng(3);
  for (auto* p : params) {
    float* g = p->var.grad().data();
    for (std::int64_t i = 0; i < p->numel(); ++i) g[i] = rng.uniform(-1, 1);
  }
  opt.step();
  // fc1 weight (78400 of 89610) must hold ~ 9000 * 78400/89610 = 7874.
  const auto& tracked = opt.tracked();
  EXPECT_NEAR(static_cast<double>(tracked.tracked_count_in(0)), 7874.0, 2.0);
  // fc3 weight (1000) gets its proportional ~100, NOT the larger share the
  // global competition gives it (Table 2's phenomenon).
  EXPECT_NEAR(static_cast<double>(tracked.tracked_count_in(4)), 100.0, 2.0);
}

TEST(BudgetScope, GlobalAndPerLayerDifferInAllocation) {
  auto run = [](optim::BudgetScope scope) {
    auto model = nn::models::make_mnist_100_100(7);
    auto params = model->collect_parameters();
    core::DropBackConfig config;
    config.schedule = optim::constant_budget(2000);
    config.scope = scope;
    core::DropBackOptimizer opt(params, 0.1F, config);
    for (int iter = 0; iter < 3; ++iter) {
      model->zero_grad();
      rng::Xorshift128 rng(10 + iter);
      T::Tensor x({4, 784});
      for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(0, 1);
      ag::Variable input(x);
      ag::backward(
          ag::softmax_cross_entropy(model->forward(input), {0, 1, 2, 3}));
      opt.step();
    }
    return opt.tracked().tracked_count_in(4);  // fc3 weights
  };
  const auto global_fc3 = run(optim::BudgetScope::kGlobal);
  const auto per_layer_fc3 = run(optim::BudgetScope::kPerLayer);
  // The global competition allocates far more of a tight budget to the
  // decision-critical last layer than the proportional quota (22 of 2000).
  EXPECT_GT(global_fc3, per_layer_fc3 * 3);
}

// --- memory hierarchy ----------------------------------------------------------

TEST(MemoryHierarchy, StateAccountingPerScheme) {
  using energy::TrainingScheme;
  EXPECT_EQ(energy::training_state_values(TrainingScheme::kDenseSgd, 1000, 0),
            1000);
  EXPECT_EQ(
      energy::training_state_values(TrainingScheme::kDenseMomentum, 1000, 0),
      2000);
  EXPECT_EQ(energy::training_state_values(TrainingScheme::kDenseAdam, 1000, 0),
            3000);
  EXPECT_EQ(energy::training_state_values(TrainingScheme::kMagnitudePruning,
                                          1000, 0),
            1000);
  EXPECT_EQ(
      energy::training_state_values(TrainingScheme::kDropBack, 1000, 100),
      200);
}

TEST(MemoryHierarchy, FitReportDetectsSpill) {
  energy::AcceleratorSpec accel;
  accel.sram_bytes = 4000;  // 1000 floats
  auto dense = energy::evaluate_fit(accel, energy::TrainingScheme::kDenseSgd,
                                    5000, 0);
  EXPECT_FALSE(dense.fits_on_chip);
  EXPECT_EQ(dense.spilled_values, 4000);
  auto dropback = energy::evaluate_fit(
      accel, energy::TrainingScheme::kDropBack, 5000, 400);
  EXPECT_TRUE(dropback.fits_on_chip);
  EXPECT_EQ(dropback.spilled_values, 0);
}

TEST(MemoryHierarchy, PaperSizeMultiplierClaim) {
  // §6: "train networks 5x-10x larger than currently possible". At the
  // paper's typical 5x-7x weight compression with 2 values per tracked
  // weight, the multiplier lands in the claimed band at ~10x-20x raw; the
  // conservative 2-value accounting gives 2.5x at 5x compression.
  energy::AcceleratorSpec accel;
  EXPECT_NEAR(energy::trainable_size_multiplier(accel, 5.0), 2.5, 1e-9);
  EXPECT_NEAR(energy::trainable_size_multiplier(accel, 10.0), 5.0, 1e-9);
  EXPECT_NEAR(energy::trainable_size_multiplier(accel, 20.0), 10.0, 1e-9);
}

TEST(MemoryHierarchy, MaxTrainableOrdersSchemes) {
  energy::AcceleratorSpec accel;
  const auto sgd = energy::evaluate_fit(
      accel, energy::TrainingScheme::kDenseSgd, 100000, 0);
  const auto adam = energy::evaluate_fit(
      accel, energy::TrainingScheme::kDenseAdam, 100000, 0);
  const auto dropback = energy::evaluate_fit(
      accel, energy::TrainingScheme::kDropBack, 100000, 10000);
  EXPECT_GT(sgd.max_trainable_weights, adam.max_trainable_weights);
  EXPECT_GT(dropback.max_trainable_weights, sgd.max_trainable_weights);
}

}  // namespace
}  // namespace dropback
