#include "inference/regen_forward.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <limits>

#include "autograd/ops.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/models/lenet.hpp"
#include "rng/xorshift.hpp"
#include "tensor/conv.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "train/trainer.hpp"

namespace dropback::inference {
namespace {

namespace T = dropback::tensor;
namespace ag = dropback::autograd;

T::Tensor random_tensor(T::Shape shape, std::uint64_t seed) {
  rng::Xorshift128 rng(seed);
  T::Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(-1, 1);
  return t;
}

/// Same shape and the same bits in every float (memcmp, so NaN payloads and
/// the sign of zero count).
void expect_bitwise(const T::Tensor& got, const T::Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<std::size_t>(got.numel())),
            0);
}

/// Trains a small MLP briefly with DropBack and returns its store.
core::SparseWeightStore small_trained_store(std::int64_t budget) {
  auto model = nn::models::Mlp(12, {8}, 4, /*seed=*/5);
  auto params = model.collect_parameters();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(budget);
  core::DropBackOptimizer opt(params, 0.1F, config);
  for (int iter = 0; iter < 6; ++iter) {
    model.zero_grad();
    ag::Variable x(random_tensor({4, 12}, 100 + iter));
    ag::backward(ag::sum(ag::mul(model.forward(x), model.forward(x))));
    opt.step();
  }
  return core::SparseWeightStore::from_optimizer(opt);
}

TEST(RegenLinear, MatchesDenseMaterializedForward) {
  auto store = small_trained_store(30);
  RegenLinear layer(&store.record(0), &store.record(1));
  const T::Tensor x = random_tensor({5, 12}, 9);
  const T::Tensor streamed = layer.forward(x);
  // Dense reference: materialize + matmul_nt + bias.
  const T::Tensor w = store.materialize(0);
  const T::Tensor b = store.materialize(1);
  const T::Tensor dense =
      T::add_row_vector(T::matmul_nt(x, w.reshape({8, 12})), b);
  expect_bitwise(streamed, dense);
}

struct LinearShape {
  std::int64_t in;
  std::int64_t out;
  std::int64_t batch;
};

/// Output widths around the 16-row weight panel, batches that are not
/// multiples of the 4-row GEMM tile, and a single input feature.
class RegenLinearShapes : public ::testing::TestWithParam<LinearShape> {};

TEST_P(RegenLinearShapes, EqualsDenseLinearBitwise) {
  const LinearShape shape = GetParam();
  nn::Linear linear(shape.in, shape.out, /*seed=*/17);
  // Track the last weight of every 16-row panel and the first of the next,
  // so the tracked-entry overlay straddles each panel boundary.
  float* w = linear.weight().var.value().data();
  std::size_t tracked = 0;
  for (std::int64_t row = 15; row + 1 < shape.out; row += 16) {
    w[row * shape.in + shape.in - 1] += 0.5F;
    w[(row + 1) * shape.in] -= 0.25F;
    tracked += 2;
  }
  linear.bias()->var.value()[shape.out - 1] = 0.125F;
  auto store = core::SparseWeightStore::from_params(
      {&linear.weight(), linear.bias()});
  ASSERT_EQ(store.record(0).entries.size(), tracked);
  RegenLinear layer(&store.record(0), &store.record(1));
  const T::Tensor x = random_tensor({shape.batch, shape.in}, 31);
  energy::TrafficCounter traffic;
  const T::Tensor streamed = layer.forward(x, &traffic);
  autograd::NoGradGuard no_grad;
  expect_bitwise(streamed, linear.forward(ag::Variable(x)).value());
  // Every weight and bias is touched once per call, whatever the panels.
  EXPECT_EQ(traffic.dram_reads, tracked + 1);
  EXPECT_EQ(traffic.dram_reads + traffic.regens,
            static_cast<std::uint64_t>(shape.in * shape.out + shape.out));
  EXPECT_EQ(traffic.float_ops,
            static_cast<std::uint64_t>(2 * shape.batch * shape.out * shape.in));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RegenLinearShapes,
    ::testing::Values(LinearShape{12, 13, 1}, LinearShape{12, 17, 3},
                      LinearShape{1, 17, 5}, LinearShape{1, 1, 1},
                      LinearShape{33, 40, 5}, LinearShape{100, 100, 8}));

TEST(RegenLinear, TrackedEntriesInTheRaggedLastGroupLandBitwise) {
  // out = 13: the panel's second 8-row group holds rows 8..12 and three
  // padded lanes. Tracked entries sit in that ragged group, at l = 0 and
  // l = k - 1 (the last packed row; in = 21 is odd, so AVX-512 packs it
  // in a half step), and on the last row of the full group.
  constexpr std::int64_t kIn = 21, kOut = 13;
  nn::Linear linear(kIn, kOut, /*seed=*/23);
  float* w = linear.weight().var.value().data();
  const std::int64_t tracked[][2] = {
      {0, kIn - 1}, {7, kIn - 1}, {8, 0}, {10, 5}, {12, kIn - 1}};
  for (const auto& rc : tracked) w[rc[0] * kIn + rc[1]] += 0.75F;
  auto store = core::SparseWeightStore::from_params(
      {&linear.weight(), linear.bias()});
  ASSERT_EQ(store.record(0).entries.size(), std::size(tracked));
  RegenLinear layer(&store.record(0), &store.record(1));
  const T::Tensor x = random_tensor({3, kIn}, 37);
  energy::TrafficCounter traffic;
  const T::Tensor streamed = layer.forward(x, &traffic);
  autograd::NoGradGuard no_grad;
  expect_bitwise(streamed, linear.forward(ag::Variable(x)).value());
  EXPECT_EQ(traffic.dram_reads, std::size(tracked));
  EXPECT_EQ(traffic.dram_reads + traffic.regens,
            static_cast<std::uint64_t>(kIn * kOut + kOut));
}

TEST(RegenLinear, TrafficSplitsTrackedVsRegenerated) {
  auto store = small_trained_store(30);
  RegenLinear layer(&store.record(0), &store.record(1));
  energy::TrafficCounter traffic;
  layer.forward(random_tensor({1, 12}, 3), &traffic);
  const auto w_entries = store.record(0).entries.size();
  const auto b_entries = store.record(1).entries.size();
  EXPECT_EQ(traffic.dram_reads, w_entries + b_entries);
  EXPECT_EQ(traffic.dram_reads + traffic.regens,
            static_cast<std::uint64_t>(12 * 8 + 8));
  EXPECT_GT(traffic.float_ops, 0U);
}

TEST(RegenLinear, LiveFloatsIsEntryCount) {
  auto store = small_trained_store(20);
  RegenLinear layer(&store.record(0), &store.record(1));
  EXPECT_EQ(layer.live_floats(),
            static_cast<std::int64_t>(store.record(0).entries.size() +
                                      store.record(1).entries.size()));
}

TEST(RegenLinear, RejectsWrongInputWidth) {
  auto store = small_trained_store(20);
  RegenLinear layer(&store.record(0), &store.record(1));
  EXPECT_THROW(layer.forward(T::Tensor({2, 5})), std::invalid_argument);
}

TEST(RegenMlp, EndToEndMatchesMaterializedModel) {
  // Train MNIST-100-100 briefly, then compare the streaming engine against
  // the dense model on a batch of real inputs.
  auto model = nn::models::make_mnist_100_100(7);
  auto params = model->collect_parameters();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(5000);
  core::DropBackOptimizer opt(params, 0.1F, config);
  for (int iter = 0; iter < 4; ++iter) {
    model->zero_grad();
    ag::Variable x(random_tensor({8, 784}, 200 + iter));
    std::vector<std::int64_t> labels(8);
    for (int i = 0; i < 8; ++i) labels[static_cast<std::size_t>(i)] = i % 10;
    ag::Variable loss =
        ag::softmax_cross_entropy(model->forward(x), labels);
    ag::backward(loss);
    opt.step();
  }
  auto store = core::SparseWeightStore::from_optimizer(opt);
  RegenMlp engine(store);
  EXPECT_EQ(engine.num_layers(), 3U);
  EXPECT_EQ(engine.dense_floats(), 89610);
  EXPECT_EQ(engine.live_floats(), 5000);

  const T::Tensor x = random_tensor({4, 784}, 77);
  const T::Tensor streamed = engine.forward(x);
  autograd::NoGradGuard no_grad;
  model->set_training(false);
  const T::Tensor dense = model->forward(ag::Variable(x)).value();
  expect_bitwise(streamed, dense);
}

TEST(RegenMlp, NonFiniteInputsMatchModelBitwise) {
  // NaN and ±inf flow through the GEMM chains; the hidden ReLU must map a
  // NaN (and −0) to +0 exactly as the model's does.
  nn::models::Mlp model(12, {20}, 13, /*seed=*/3);
  model.layer(0).weight().var.value()[7] += 0.5F;
  model.layer(1).bias()->var.value()[2] = -0.75F;
  auto store = core::SparseWeightStore::from_params(model.collect_parameters());
  RegenMlp engine(store);
  T::Tensor x = random_tensor({5, 12}, 41);
  x[0] = std::numeric_limits<float>::quiet_NaN();
  x[13] = std::numeric_limits<float>::infinity();
  x[26] = -std::numeric_limits<float>::infinity();
  x[38] = std::numeric_limits<float>::infinity();
  x[39] = -std::numeric_limits<float>::infinity();
  x[50] = -0.0F;
  autograd::NoGradGuard no_grad;
  model.set_training(false);
  expect_bitwise(engine.forward(x), model.forward(ag::Variable(x)).value());
}

TEST(RegenMlp, RejectsOddRecordCounts) {
  core::SparseWeightStore empty;
  EXPECT_NO_THROW(RegenMlp engine(empty));  // zero layers is degenerate but valid shape-wise
}

TEST(RegenConv2d, MatchesDenseConvolution) {
  // Build a conv layer, capture it through from_params, and compare the
  // streaming conv against the tensor-kernel conv.
  nn::Conv2d conv(2, 3, 3, 1, 1, /*seed=*/11);
  // Perturb some weights so the store has nontrivial entries.
  conv.weight().var.value()[5] += 0.7F;
  conv.weight().var.value()[20] -= 0.4F;
  conv.bias()->var.value()[1] = 0.25F;
  auto store = core::SparseWeightStore::from_params(
      {&conv.weight(), conv.bias()});
  RegenConv2d streaming(&store.record(0), &store.record(1), conv.spec());
  const T::Tensor x = random_tensor({2, 2, 6, 6}, 13);
  const T::Tensor streamed = streaming.forward(x);
  const T::Tensor dense = T::conv2d(x, store.materialize(0),
                                    store.materialize(1), conv.spec());
  expect_bitwise(streamed, dense);
}

TEST(RegenConv2d, MatchesDenseConvolutionAcrossChannelPanels) {
  // 20 output channels: one full 16-channel panel and a ragged one, with
  // tracked filter weights on both sides of the boundary.
  nn::Conv2d conv(3, 20, 3, 1, 1, /*seed=*/23);
  const std::int64_t patch = 3 * 3 * 3;
  conv.weight().var.value()[16 * patch - 1] += 0.5F;
  conv.weight().var.value()[16 * patch] -= 0.5F;
  conv.bias()->var.value()[17] = 0.25F;
  auto store = core::SparseWeightStore::from_params(
      {&conv.weight(), conv.bias()});
  RegenConv2d streaming(&store.record(0), &store.record(1), conv.spec());
  const T::Tensor x = random_tensor({3, 3, 5, 5}, 29);
  expect_bitwise(streaming.forward(x),
                 T::conv2d(x, store.materialize(0), store.materialize(1),
                           conv.spec()));
}

TEST(RegenConv2d, TrafficCoversEveryWeightOnce) {
  nn::Conv2d conv(2, 3, 3, 1, 1, 11);
  auto store = core::SparseWeightStore::from_params(
      {&conv.weight(), conv.bias()});
  RegenConv2d streaming(&store.record(0), &store.record(1), conv.spec());
  energy::TrafficCounter traffic;
  streaming.forward(random_tensor({1, 2, 4, 4}, 3), &traffic);
  // All weights + biases touched exactly once (filters streamed per output
  // channel, not per pixel — the engine caches one filter row at a time).
  EXPECT_EQ(traffic.dram_reads + traffic.regens,
            static_cast<std::uint64_t>(3 * 2 * 9 + 3));
}

/// Budget sweep: streaming inference must be exact at every budget.
class RegenBudgetSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(RegenBudgetSweep, StreamedEqualsMaterialized) {
  auto store = small_trained_store(GetParam());
  RegenMlp engine(store);
  const T::Tensor x = random_tensor({3, 12}, 21);
  const T::Tensor streamed = engine.forward(x);
  // Reference via materialized tensors.
  T::Tensor h = x;
  for (std::size_t p = 0; p < store.num_params(); p += 2) {
    const auto& wshape = store.record(p).shape;
    h = T::add_row_vector(
        T::matmul_nt(h, store.materialize(p).reshape(wshape)),
        store.materialize(p + 1));
    if (p + 2 < store.num_params()) h = T::relu(h);
  }
  expect_bitwise(streamed, h);
}

INSTANTIATE_TEST_SUITE_P(Budgets, RegenBudgetSweep,
                         ::testing::Values(1, 10, 50, 136));

}  // namespace
}  // namespace dropback::inference
