// Tests for the post-freeze sparse backward kernels and DropBack optimizer
// state checkpointing.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "autograd/ops.hpp"
#include "core/dropback_optimizer.hpp"
#include "core/sparse_backward.hpp"
#include "core/sparse_weight_store.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "rng/xorshift.hpp"

namespace dropback::core {
namespace {

namespace T = dropback::tensor;
namespace ag = dropback::autograd;

T::Tensor rand_tensor(T::Shape shape, std::uint64_t seed) {
  rng::Xorshift128 rng(seed);
  T::Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(-1, 1);
  return t;
}

TEST(SparseBackward, CoordsExtractedInRowMajorOrder) {
  std::uint8_t mask[6] = {1, 0, 0, 1, 1, 0};
  const auto coords = tracked_coords(mask, 2, 3);
  ASSERT_EQ(coords.size(), 3U);
  EXPECT_EQ(coords[0].out, 0);
  EXPECT_EQ(coords[0].in, 0);
  EXPECT_EQ(coords[1].out, 1);
  EXPECT_EQ(coords[1].in, 0);
  EXPECT_EQ(coords[2].out, 1);
  EXPECT_EQ(coords[2].in, 1);
}

TEST(SparseBackward, MatchesDenseGradientAtTrackedCoords) {
  const T::Tensor x = rand_tensor({5, 7}, 1);
  const T::Tensor gy = rand_tensor({5, 4}, 2);
  const T::Tensor dense = dense_linear_grad_w(x, gy);  // [4, 7]
  // A scattered mask.
  std::vector<std::uint8_t> mask(28, 0);
  for (int i : {0, 3, 9, 13, 20, 27}) mask[static_cast<std::size_t>(i)] = 1;
  const auto coords = tracked_coords(mask.data(), 4, 7);
  const auto sparse = sparse_linear_grad_w(x, gy, coords);
  ASSERT_EQ(sparse.size(), coords.size());
  for (std::size_t c = 0; c < coords.size(); ++c) {
    EXPECT_NEAR(sparse[c], dense.at({coords[c].out, coords[c].in}), 1e-4F);
  }
}

TEST(SparseBackward, DenseGradEqualsAutogradLinear) {
  // dense_linear_grad_w must equal what the autograd linear op produces.
  ag::Variable x(rand_tensor({3, 5}, 3), false);
  ag::Variable w(rand_tensor({2, 5}, 4), true);
  ag::Variable y = ag::linear(x, w, ag::Variable());
  // Upstream gradient of all-ones: backward of sum.
  ag::backward(ag::sum(y));
  const T::Tensor gy = T::Tensor::ones({3, 2});
  const T::Tensor manual = dense_linear_grad_w(x.value(), gy);
  for (std::int64_t i = 0; i < manual.numel(); ++i) {
    EXPECT_NEAR(manual[i], w.grad()[i], 1e-4F);
  }
}

TEST(SparseBackward, SparseUpdateTouchesOnlyTrackedCoords) {
  T::Tensor w = T::Tensor::ones({3, 3});
  const std::vector<TrackedCoord> coords = {{0, 0}, {2, 1}};
  apply_sparse_update(w, coords, {1.0F, 2.0F}, 0.5F);
  EXPECT_FLOAT_EQ(w.at({0, 0}), 0.5F);
  EXPECT_FLOAT_EQ(w.at({2, 1}), 0.0F);
  EXPECT_FLOAT_EQ(w.at({1, 1}), 1.0F);  // untouched
}

TEST(SparseBackward, FlopSavingsMatchBudgetRatio) {
  // 89.6k-weight layer at 2k tracked: dW flops shrink ~45x.
  const auto dense = dense_grad_w_flops(32, 100, 784);
  const auto sparse = sparse_grad_w_flops(32, 2000);
  EXPECT_GT(dense / sparse, 35);
  EXPECT_EQ(dense, 2LL * 32 * 100 * 784);
  EXPECT_EQ(sparse, 2LL * 32 * 2000);
}

TEST(SparseBackward, FrozenTrainingViaSparsePathMatchesDense) {
  // Simulate a frozen DropBack step for one Linear layer two ways — dense
  // gradient + masked update vs sparse gradient + sparse update — and
  // verify identical resulting weights.
  nn::Linear fc(7, 4, /*seed=*/5, /*bias=*/false);
  const T::Tensor x = rand_tensor({6, 7}, 6);
  const T::Tensor gy = rand_tensor({6, 4}, 7);
  std::vector<std::uint8_t> mask(28, 0);
  for (int i : {1, 5, 10, 17, 26}) mask[static_cast<std::size_t>(i)] = 1;

  // Dense path.
  T::Tensor w_dense = fc.weight().var.value().clone();
  {
    const T::Tensor grad = dense_linear_grad_w(x, gy);
    float* w = w_dense.data();
    for (std::int64_t i = 0; i < 28; ++i) {
      if (mask[static_cast<std::size_t>(i)]) w[i] -= 0.1F * grad[i];
    }
  }
  // Sparse path.
  T::Tensor w_sparse = fc.weight().var.value().clone();
  {
    const auto coords = tracked_coords(mask.data(), 4, 7);
    const auto grads = sparse_linear_grad_w(x, gy, coords);
    apply_sparse_update(w_sparse, coords, grads, 0.1F);
  }
  for (std::int64_t i = 0; i < 28; ++i) {
    EXPECT_NEAR(w_dense[i], w_sparse[i], 1e-6F);
  }
}

// --- optimizer state checkpointing -------------------------------------------

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

TEST(OptimizerState, SaveLoadRestoresMasksStepsAndFreeze) {
  auto net = tiny_net();
  auto params = net->collect_parameters();
  DropBackConfig config;
  config.schedule = optim::constant_budget(9, 2);
  DropBackOptimizer opt(params, 0.1F, config);
  for (int iter = 0; iter < 3; ++iter) {
    net->zero_grad();
    make_gradients(*net, 10 + iter);
    opt.step();
  }
  ASSERT_TRUE(opt.frozen());
  std::stringstream ss;
  opt.save_state(ss);

  auto net2 = tiny_net();
  DropBackOptimizer opt2(net2->collect_parameters(), 0.1F, config);
  opt2.load_state(ss);
  EXPECT_EQ(opt2.steps(), 3);
  EXPECT_TRUE(opt2.frozen());
  for (std::int64_t g = 0; g < 51; ++g) {
    EXPECT_EQ(opt.tracked().is_tracked(g), opt2.tracked().is_tracked(g));
  }
}

TEST(OptimizerState, ResumedTrainingMatchesUninterrupted) {
  // Run A: 6 steps straight. Run B: 3 steps, checkpoint weights + optimizer
  // state, restore into fresh objects, 3 more steps. Identical weights.
  auto train_steps = [](nn::Sequential& net, DropBackOptimizer& opt,
                        int first, int count) {
    for (int i = 0; i < count; ++i) {
      net.zero_grad();
      make_gradients(net, 100 + first + i);
      opt.step();
    }
  };
  DropBackConfig config;
  config.schedule = optim::constant_budget(12, 4);

  auto net_a = tiny_net(5);
  DropBackOptimizer opt_a(net_a->collect_parameters(), 0.2F, config);
  train_steps(*net_a, opt_a, 0, 6);

  auto net_b = tiny_net(5);
  {
    DropBackOptimizer opt_b1(net_b->collect_parameters(), 0.2F, config);
    train_steps(*net_b, opt_b1, 0, 3);
    std::stringstream state;
    opt_b1.save_state(state);
    // "Restart": fresh optimizer on the same (already-updated) weights.
    DropBackOptimizer opt_b2(net_b->collect_parameters(), 0.2F, config);
    opt_b2.load_state(state);
    train_steps(*net_b, opt_b2, 3, 3);
  }
  auto pa = net_a->collect_parameters();
  auto pb = net_b->collect_parameters();
  for (std::size_t p = 0; p < pa.size(); ++p) {
    for (std::int64_t i = 0; i < pa[p]->numel(); ++i) {
      ASSERT_FLOAT_EQ(pa[p]->var.value()[i], pb[p]->var.value()[i]);
    }
  }
}

TEST(OptimizerState, RejectsMismatchedConfig) {
  auto net = tiny_net();
  DropBackConfig config;
  config.schedule = optim::constant_budget(9);
  DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  std::stringstream ss;
  opt.save_state(ss);
  auto net2 = tiny_net();
  DropBackConfig other;
  other.schedule = optim::constant_budget(10);  // different budget
  DropBackOptimizer opt2(net2->collect_parameters(), 0.1F, other);
  EXPECT_THROW(opt2.load_state(ss), std::runtime_error);
}

TEST(OptimizerState, RejectsGarbageAndTruncation) {
  auto net = tiny_net();
  DropBackConfig config;
  config.schedule = optim::constant_budget(9);
  DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  {
    std::stringstream ss;
    ss << "garbage";
    EXPECT_THROW(opt.load_state(ss), std::runtime_error);
  }
  {
    std::stringstream ss;
    opt.save_state(ss);
    const std::string full = ss.str();
    std::stringstream cut(full.substr(0, full.size() - 3));
    EXPECT_THROW(opt.load_state(cut), std::runtime_error);
  }
}

/// Fuzz: single-byte corruption of a serialized store must never crash —
/// it either throws or yields a structurally valid store.
TEST(OptimizerState, StoreSurvivesByteCorruptionWithoutCrashing) {
  auto net = tiny_net();
  auto params = net->collect_parameters();
  DropBackConfig config;
  config.schedule = optim::constant_budget(9);
  DropBackOptimizer opt(params, 0.1F, config);
  net->zero_grad();
  make_gradients(*net, 3);
  opt.step();
  auto store = SparseWeightStore::from_optimizer(opt);
  std::stringstream ss;
  store.save(ss);
  const std::string bytes = ss.str();
  rng::Xorshift128 rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupted = bytes;
    const auto pos = rng.uniform_int(static_cast<std::uint32_t>(bytes.size()));
    corrupted[pos] = static_cast<char>(rng.next_u32() & 0xFF);
    std::stringstream in(corrupted);
    try {
      auto loaded = SparseWeightStore::load(in);
      // If it parsed, basic invariants must hold.
      EXPECT_LE(loaded.live_weights(), loaded.dense_weights());
    } catch (const std::exception&) {
      // Throwing is the expected response to corruption.
    }
  }
}

}  // namespace
}  // namespace dropback::core
