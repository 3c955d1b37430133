// Tests for DropBack optimizer state checkpointing: save_state/load_state
// round trips, resume equivalence, and rejection of mismatched or corrupt
// state.
#include <gtest/gtest.h>

#include <sstream>

#include "autograd/ops.hpp"
#include "core/dropback_optimizer.hpp"
#include "core/sparse_weight_store.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "rng/xorshift.hpp"

namespace dropback::core {
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
