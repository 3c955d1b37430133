// Parallel-vs-serial bitwise equivalence for every parallelized hot path.
//
// The determinism contract (docs/PARALLELISM.md): for ANY thread count the
// parallel kernels produce output bitwise identical to --threads 1. Each
// test computes a serial reference, then recomputes under 2 and 7 threads
// (7 deliberately odd and larger than most shard counts, so ragged
// partitions and idle workers are both exercised) and compares with memcmp
// — not EXPECT_FLOAT_EQ — so even a single reassociated addition fails.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "core/accumulated_gradients.hpp"
#include "core/dropback_optimizer.hpp"
#include "core/tracked_set.hpp"
#include "data/dataloader.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/linear.hpp"
#include "nn/models/lenet.hpp"
#include "nn/sequential.hpp"
#include "optim/sgd.hpp"
#include "rng/xorshift.hpp"
#include "tensor/conv.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "train/trainer.hpp"
#include "util/atomic_file.hpp"
#include "util/thread_pool.hpp"

namespace dropback {
namespace {

namespace T = dropback::tensor;

const int kThreadCounts[] = {2, 7};

class ParallelEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override { util::set_num_threads(1); }
  void TearDown() override { util::set_num_threads(1); }
};

T::Tensor random_tensor(const T::Shape& shape, std::uint64_t seed) {
  T::Tensor t(shape);
  rng::Xorshift128 rng(seed);
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(-2, 2);
  return t;
}

::testing::AssertionResult bitwise_equal(const T::Tensor& a,
                                         const T::Tensor& b) {
  if (a.numel() != b.numel()) {
    return ::testing::AssertionFailure() << "numel mismatch";
  }
  if (std::memcmp(a.data(), b.data(),
                  static_cast<std::size_t>(a.numel()) * sizeof(float)) != 0) {
    for (std::int64_t i = 0; i < a.numel(); ++i) {
      if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "first bit difference at flat index " << i << ": "
               << a.data()[i] << " vs " << b.data()[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST_F(ParallelEquivalenceTest, MatmulAllShapes) {
  // Odd shapes including m=1 / n=1 degenerate panels, plus sizes that
  // exercise the ikj kernel, the blocked kernel, and the parallel gate. The
  // last row has m % 4 != 0 with enough work to shard: matmul_nt shards by
  // 4-row tiles, so a 2- or 7-way split by rows would land inside a tile.
  const std::vector<std::array<std::int64_t, 3>> shapes = {
      {1, 1, 1},    {1, 5, 3},     {7, 5, 1},      {17, 13, 29},
      {64, 64, 64}, {129, 65, 33}, {96, 700, 512}, {3, 1024, 300},
      {7, 300, 50}, {30, 200, 90}, {103, 37, 45},
  };
  for (const auto& [m, k, n] : shapes) {
    const T::Tensor a = random_tensor({m, k}, 11 * static_cast<unsigned>(m));
    const T::Tensor b = random_tensor({k, n}, 13 * static_cast<unsigned>(n));
    const T::Tensor bt = T::transpose2d(b);
    const T::Tensor ref = T::matmul(a, b);
    const T::Tensor ref_nt = T::matmul_nt(a, bt);
    const T::Tensor at = T::transpose2d(a);
    const T::Tensor ref_tn = T::matmul_tn(at, b);
    for (int threads : kThreadCounts) {
      util::set_num_threads(threads);
      EXPECT_TRUE(bitwise_equal(ref, T::matmul(a, b)))
          << "matmul " << m << "x" << k << "x" << n << " @" << threads;
      EXPECT_TRUE(bitwise_equal(ref_nt, T::matmul_nt(a, bt)))
          << "matmul_nt " << m << "x" << k << "x" << n << " @" << threads;
      EXPECT_TRUE(bitwise_equal(ref_tn, T::matmul_tn(at, b)))
          << "matmul_tn " << m << "x" << k << "x" << n << " @" << threads;
      util::set_num_threads(1);
    }
  }
}

TEST_F(ParallelEquivalenceTest, Conv2dForwardBackward) {
  struct Case {
    std::int64_t n, cin, hw, cout, kernel, stride, padding;
    bool gy_zeros;  ///< every 4th gy entry exactly zero (the zero skip)
  };
  // The conv passes run each image in column panels of 64 KB: the last
  // three cases hold two or more panels per image, and their C_in (3, 2)
  // is below the 7-thread pool, so the dW shards (input-channel groups)
  // leave threads idle.
  const std::vector<Case> cases = {
      {1, 1, 5, 1, 3, 1, 1, false},   // minimal
      {3, 5, 9, 4, 3, 2, 0, false},   // odd channels, strided, no padding
      {4, 8, 16, 16, 3, 1, 1, false}, // large enough to shard every pass
      {3, 3, 32, 8, 3, 1, 1, true},   // 2 panels per image, C_in < threads
      {2, 2, 20, 6, 5, 1, 2, true},   // 5x5 kernel, 2 panels, C_in = 2
      {2, 64, 6, 9, 3, 1, 1, true},   // 576-wide patch: 28-row panels
  };
  for (const auto& c : cases) {
    const T::Tensor x = random_tensor({c.n, c.cin, c.hw, c.hw}, 21);
    const T::Tensor w =
        random_tensor({c.cout, c.cin, c.kernel, c.kernel}, 22);
    const T::Tensor b = random_tensor({c.cout}, 23);
    const T::Conv2dSpec spec{c.kernel, c.kernel, c.stride, c.padding};
    const T::Tensor ref_y = T::conv2d(x, w, b, spec);
    T::Tensor gy = random_tensor(ref_y.shape(), 24);
    for (std::int64_t i = 0; c.gy_zeros && i < gy.numel(); i += 4) {
      gy[i] = 0.0F;
    }
    const T::Conv2dGrads ref_g = T::conv2d_backward(x, w, gy, spec, true);
    for (int threads : kThreadCounts) {
      util::set_num_threads(threads);
      EXPECT_TRUE(bitwise_equal(ref_y, T::conv2d(x, w, b, spec)))
          << "conv2d fwd @" << threads;
      const T::Conv2dGrads g = T::conv2d_backward(x, w, gy, spec, true);
      EXPECT_TRUE(bitwise_equal(ref_g.grad_weight, g.grad_weight))
          << "conv2d dW @" << threads;
      EXPECT_TRUE(bitwise_equal(ref_g.grad_input, g.grad_input))
          << "conv2d dX @" << threads;
      EXPECT_TRUE(bitwise_equal(ref_g.grad_bias, g.grad_bias))
          << "conv2d db @" << threads;
      util::set_num_threads(1);
    }
  }
}

TEST_F(ParallelEquivalenceTest, ElementwiseAndRowKernels) {
  // 100003 elements: prime, so every shard boundary is ragged.
  const T::Tensor a = random_tensor({100003}, 31);
  const T::Tensor b = random_tensor({100003}, 32);
  const T::Tensor m2 = random_tensor({257, 389}, 33);
  const T::Tensor rowv = random_tensor({389}, 34);
  const T::Tensor nchw = random_tensor({6, 13, 17, 17}, 35);
  const T::Tensor cvec = random_tensor({13}, 36);

  const T::Tensor r_add = T::add(a, b), r_mul = T::mul(a, b);
  const T::Tensor r_exp = T::exp(a), r_relu = T::relu(a);
  const T::Tensor r_sig = T::sigmoid(a);
  const T::Tensor r_rowadd = T::add_row_vector(m2, rowv);
  const T::Tensor r_sm = T::row_softmax(m2);
  const T::Tensor r_lse = T::row_logsumexp(m2);
  const T::Tensor r_srows = T::sum_rows(m2), r_scols = T::sum_cols(m2);
  const T::Tensor r_tr = T::transpose2d(m2);
  const T::Tensor r_cm = T::channel_mean(nchw);
  const T::Tensor r_cv = T::channel_var(nchw, r_cm);
  const T::Tensor r_caff = T::channel_affine(nchw, r_cm, cvec, cvec);
  const T::Tensor r_cmul = T::mul_per_channel(nchw, cvec);

  for (int threads : kThreadCounts) {
    util::set_num_threads(threads);
    EXPECT_TRUE(bitwise_equal(r_add, T::add(a, b))) << "add @" << threads;
    EXPECT_TRUE(bitwise_equal(r_mul, T::mul(a, b))) << "mul @" << threads;
    EXPECT_TRUE(bitwise_equal(r_exp, T::exp(a))) << "exp @" << threads;
    EXPECT_TRUE(bitwise_equal(r_relu, T::relu(a))) << "relu @" << threads;
    EXPECT_TRUE(bitwise_equal(r_sig, T::sigmoid(a)))
        << "sigmoid @" << threads;
    EXPECT_TRUE(bitwise_equal(r_rowadd, T::add_row_vector(m2, rowv)))
        << "add_row_vector @" << threads;
    EXPECT_TRUE(bitwise_equal(r_sm, T::row_softmax(m2)))
        << "row_softmax @" << threads;
    EXPECT_TRUE(bitwise_equal(r_lse, T::row_logsumexp(m2)))
        << "row_logsumexp @" << threads;
    EXPECT_TRUE(bitwise_equal(r_srows, T::sum_rows(m2)))
        << "sum_rows @" << threads;
    EXPECT_TRUE(bitwise_equal(r_scols, T::sum_cols(m2)))
        << "sum_cols @" << threads;
    EXPECT_TRUE(bitwise_equal(r_tr, T::transpose2d(m2)))
        << "transpose2d @" << threads;
    EXPECT_TRUE(bitwise_equal(r_cm, T::channel_mean(nchw)))
        << "channel_mean @" << threads;
    EXPECT_TRUE(bitwise_equal(r_cv, T::channel_var(nchw, r_cm)))
        << "channel_var @" << threads;
    EXPECT_TRUE(bitwise_equal(r_caff, T::channel_affine(nchw, r_cm, cvec,
                                                        cvec)))
        << "channel_affine @" << threads;
    EXPECT_TRUE(bitwise_equal(r_cmul, T::mul_per_channel(nchw, cvec)))
        << "mul_per_channel @" << threads;
    util::set_num_threads(1);
  }
}

TEST_F(ParallelEquivalenceTest, AccumulatedGradientScores) {
  // The 89.6k-parameter paper MLP: big enough that compute_scores shards.
  auto model = nn::models::make_mnist_100_100(7);
  auto params = model->collect_parameters();
  rng::Xorshift128 rng(41);
  for (auto* p : params) {
    float* g = p->var.grad().data();
    for (std::int64_t i = 0; i < p->numel(); ++i) g[i] = rng.uniform(-1, 1);
  }
  core::ParamIndex index(params);
  std::vector<float> ref;
  core::compute_scores(index, 0.1F, ref);
  for (int threads : kThreadCounts) {
    util::set_num_threads(threads);
    std::vector<float> scores;
    core::compute_scores(index, 0.1F, scores);
    ASSERT_EQ(scores.size(), ref.size());
    EXPECT_EQ(std::memcmp(scores.data(), ref.data(),
                          ref.size() * sizeof(float)),
              0)
        << "compute_scores @" << threads;
    util::set_num_threads(1);
  }
}

/// Runs `steps` DropBack steps on a fresh copy of the paper MLP and returns
/// every weight value, so whole-optimizer trajectories can be compared.
std::vector<float> dropback_trajectory(int steps) {
  auto model = nn::models::make_mnist_100_100(7);
  auto params = model->collect_parameters();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(20000);
  core::DropBackOptimizer opt(params, 0.1F, config);
  rng::Xorshift128 rng(42);
  for (int s = 0; s < steps; ++s) {
    for (auto* p : params) {
      float* g = p->var.grad().data();
      for (std::int64_t i = 0; i < p->numel(); ++i) g[i] = rng.uniform(-1, 1);
    }
    opt.step();
  }
  std::vector<float> weights;
  for (auto* p : params) {
    const float* w = p->var.value().data();
    weights.insert(weights.end(), w, w + p->numel());
  }
  return weights;
}

TEST_F(ParallelEquivalenceTest, DropBackUpdateAndSelection) {
  const std::vector<float> ref = dropback_trajectory(3);
  for (int threads : kThreadCounts) {
    util::set_num_threads(threads);
    const std::vector<float> got = dropback_trajectory(3);
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_EQ(
        std::memcmp(got.data(), ref.data(), ref.size() * sizeof(float)), 0)
        << "DropBack trajectory @" << threads;
    util::set_num_threads(1);
  }
}

/// Flattens every per-param mask of `set` into one vector.
std::vector<std::uint8_t> flatten_masks(const core::TrackedSet& set,
                                        const core::ParamIndex& index) {
  std::vector<std::uint8_t> flat;
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    const std::uint8_t* m = set.mask_of(p);
    flat.insert(flat.end(), m, m + index.param(p).numel());
  }
  return flat;
}

TEST_F(ParallelEquivalenceTest, TrackedSetSelectLargeAndTieHeavy) {
  // 500x400 linear + bias = 200400 weights: above the parallel-select gate.
  nn::Sequential net;
  net.emplace<nn::Linear>(400, 500, 1);
  core::ParamIndex index(net.collect_parameters());
  ASSERT_GE(index.total(), 1 << 15);

  rng::Xorshift128 rng(51);
  std::vector<float> random_scores(static_cast<std::size_t>(index.total()));
  for (auto& s : random_scores) s = rng.uniform();
  // Tie-heavy: every score is one of 4 values, so thousands of weights sit
  // exactly at the selection threshold.
  std::vector<float> tied_scores(static_cast<std::size_t>(index.total()));
  for (auto& s : tied_scores) {
    s = 0.25F * static_cast<float>(rng.next_u32() % 4);
  }

  for (const auto* scores : {&random_scores, &tied_scores}) {
    for (std::int64_t k : {std::int64_t{1}, std::int64_t{5000},
                           std::int64_t{123457}}) {
      core::TrackedSet ref_set(index);
      ref_set.select(*scores, k);
      const auto ref_mask = flatten_masks(ref_set, index);
      const float ref_lambda = ref_set.last_lambda();
      for (int threads : kThreadCounts) {
        util::set_num_threads(threads);
        core::TrackedSet set(index);
        set.select(*scores, k);
        EXPECT_EQ(flatten_masks(set, index), ref_mask)
            << "select k=" << k << " @" << threads;
        EXPECT_EQ(set.last_lambda(), ref_lambda)
            << "lambda k=" << k << " @" << threads;
        util::set_num_threads(1);
      }
    }
  }
}

/// A scattered 10x-compression mask over a [out, in] weight matrix.
std::vector<std::uint8_t> scattered_mask(std::int64_t out, std::int64_t in) {
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(out * in), 0);
  const std::size_t k = mask.size() / 10;
  for (std::size_t i = 0; i < k; ++i) {
    mask[(i * 2654435761U) % mask.size()] = 1;
  }
  return mask;
}

TEST_F(ParallelEquivalenceTest, FrozenPhaseUntrackedWeightsSeeNoTraffic) {
  // The frozen phase computes dense dW for every weight, but the commit
  // must never move an untracked one: across a multi-step frozen loop their
  // bits never change, and the whole trajectory is bitwise identical to
  // serial. The first step's gradient is the scattered mask itself, so the
  // frozen tracked set is exactly that mask.
  const std::int64_t out = 64, in = 96;
  const auto mask = scattered_mask(out, in);
  std::int64_t k = 0;
  for (std::uint8_t m : mask) k += m;

  const auto run = [&](int threads) {
    util::set_num_threads(threads);
    nn::Linear fc(in, out, /*seed=*/71, /*bias=*/false);
    nn::Parameter& weight = fc.weight();
    const T::Tensor w0 = weight.var.value().clone();
    core::DropBackConfig config;
    config.schedule = optim::constant_budget(k, 1);
    core::DropBackOptimizer opt({&weight}, 0.05F, config);
    float* g = weight.var.grad().data();
    for (std::int64_t i = 0; i < out * in; ++i) {
      g[i] = mask[static_cast<std::size_t>(i)] ? 1.0F : 0.0F;
    }
    opt.step();
    EXPECT_TRUE(opt.frozen()) << "@" << threads;
    for (std::int64_t i = 0; i < out * in; ++i) {
      EXPECT_EQ(opt.tracked().is_tracked(i),
                mask[static_cast<std::size_t>(i)] != 0)
          << "tracked set differs from the mask at " << i << " @" << threads;
    }
    for (int step = 0; step < 5; ++step) {
      const T::Tensor dense_grad =
          random_tensor({out, in}, 80 + static_cast<unsigned>(step));
      std::memcpy(g, dense_grad.data(),
                  static_cast<std::size_t>(out * in) * sizeof(float));
      opt.step();
    }
    const T::Tensor& w = weight.var.value();
    for (std::int64_t i = 0; i < out * in; ++i) {
      if (!mask[static_cast<std::size_t>(i)]) {
        EXPECT_EQ(std::memcmp(&w.data()[i], &w0.data()[i], sizeof(float)), 0)
            << "untracked weight " << i << " changed @" << threads;
      }
    }
    util::set_num_threads(1);
    return w.clone();
  };

  const T::Tensor ref = run(1);
  for (int threads : kThreadCounts) {
    EXPECT_TRUE(bitwise_equal(ref, run(threads))) << "@" << threads;
  }
}

TEST_F(ParallelEquivalenceTest, DataLoaderThreadsAndPrefetch) {
  // Batch assembly shards per sample and the transform streams key on the
  // dataset index, so batches are bitwise identical across thread counts
  // and prefetch settings.
  data::SyntheticMnistOptions opt;
  opt.num_samples = 45;
  auto ds = data::make_synthetic_mnist(opt);

  const auto run = [&](std::int64_t prefetch) {
    data::DataLoaderOptions options;
    options.batch_size = 8;
    options.shuffle = true;
    options.seed = 17;
    options.prefetch_batches = prefetch;
    options.transform = data::uniform_noise_transform(0.2F);
    data::DataLoader loader(*ds, options);
    std::vector<float> pixels;
    std::vector<std::int64_t> labels;
    for (int epoch = 0; epoch < 2; ++epoch) {
      if (epoch > 0) loader.start_epoch();
      data::Batch batch;
      while (loader.next(batch)) {
        pixels.insert(pixels.end(), batch.images.data(),
                      batch.images.data() + batch.images.numel());
        labels.insert(labels.end(), batch.labels.begin(),
                      batch.labels.end());
      }
    }
    return std::make_pair(pixels, labels);
  };

  const auto ref = run(/*prefetch=*/0);
  for (int threads : kThreadCounts) {
    for (std::int64_t prefetch : {std::int64_t{0}, std::int64_t{1}}) {
      util::set_num_threads(threads);
      const auto got = run(prefetch);
      ASSERT_EQ(got.second, ref.second)
          << "labels @" << threads << " prefetch " << prefetch;
      ASSERT_EQ(got.first.size(), ref.first.size());
      EXPECT_EQ(std::memcmp(got.first.data(), ref.first.data(),
                            ref.first.size() * sizeof(float)),
                0)
          << "pixels @" << threads << " prefetch " << prefetch;
      util::set_num_threads(1);
    }
  }
}

/// One full Trainer run; returns the final weights and the bytes of the
/// training checkpoint it wrote.
std::pair<std::vector<float>, std::string> trainer_run(
    const data::Dataset& train_set, const data::Dataset& val_set,
    std::int64_t prefetch, const std::string& checkpoint_path) {
  auto model = nn::models::make_mnist_100_100(7);
  auto params = model->collect_parameters();
  optim::SGD optimizer(params, 0.05F);
  train::TrainConfig config = train::TrainConfig{}
                                  .with_epochs(2)
                                  .with_batch_size(16)
                                  .with_loader_seed(29)
                                  .with_shuffle(true)
                                  .with_prefetch(prefetch)
                                  .with_checkpoint(checkpoint_path, 2);
  config.transform = data::uniform_noise_transform(0.05F);
  config.verbose = false;
  train::Trainer trainer(*model, optimizer, train_set, val_set, config);
  trainer.run();
  std::vector<float> weights;
  for (auto* p : params) {
    const float* w = p->var.value().data();
    weights.insert(weights.end(), w, w + p->numel());
  }
  return {std::move(weights), util::read_file(checkpoint_path)};
}

TEST_F(ParallelEquivalenceTest, TrainerEndToEndWithPrefetchAndThreads) {
  // The whole pipeline — prefetching loader, parallel kernels, checkpoint
  // writer — produces bitwise-identical final weights AND bitwise-identical
  // checkpoint files for every thread count, with prefetch on or off.
  data::SyntheticMnistOptions opt;
  opt.num_samples = 48;
  auto train_set = data::make_synthetic_mnist(opt);
  opt.num_samples = 16;
  opt.seed = 3;
  auto val_set = data::make_synthetic_mnist(opt);

  const std::string dir = ::testing::TempDir();
  const auto ref = trainer_run(*train_set, *val_set, /*prefetch=*/0,
                               dir + "/equiv_ref.dbts");
  for (int threads : {1, 2, 7}) {
    util::set_num_threads(threads);
    const auto got = trainer_run(*train_set, *val_set, /*prefetch=*/1,
                                 dir + "/equiv_t" + std::to_string(threads) +
                                     ".dbts");
    ASSERT_EQ(got.first.size(), ref.first.size());
    EXPECT_EQ(std::memcmp(got.first.data(), ref.first.data(),
                          ref.first.size() * sizeof(float)),
              0)
        << "final weights @" << threads << " threads, prefetch on";
    EXPECT_EQ(got.second, ref.second)
        << "checkpoint bytes @" << threads << " threads, prefetch on";
    util::set_num_threads(1);
  }
}

}  // namespace
}  // namespace dropback
