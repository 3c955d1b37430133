// Bitwise pins for the convolution numerics, across commits.
//
// simd_equivalence_test and parallel_equivalence_test compare targets and
// thread counts within one build, so a change that reorders a chain
// everywhere at once passes both. This suite pins the CRC-32 of conv2d's
// output and of conv2d_backward's dX, dW and dB for seeded inputs — every
// VGG-S layer shape at width 0.125 and batch 16, plus stride 2, padding 0,
// 1x1 and 5x5 kernels and ragged widths — and of the VGG-S weights after
// three DropBack steps. gy carries exact zeros of both signs, so the
// gradient products' zero skip is pinned too. Each case runs at 1 and 3
// threads against the same constants.
//
// The dX, dW and dB constants were recorded from the build before the panel
// conv rewrite; the y constants and the three-step VGG-S CRC were re-pinned
// when the forward moved onto gemm_acc's float chain. None may move except
// by a deliberate numerics change that re-pins them and says so.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "autograd/variable.hpp"
#include "core/dropback_optimizer.hpp"
#include "data/dataloader.hpp"
#include "data/synthetic_cifar.hpp"
#include "nn/loss.hpp"
#include "nn/models/vgg_s.hpp"
#include "optim/budget_schedule.hpp"
#include "rng/xorshift.hpp"
#include "tensor/conv.hpp"
#include "util/crc32.hpp"
#include "util/thread_pool.hpp"

namespace dropback {
namespace {

namespace T = dropback::tensor;

std::uint32_t crc_of(const T::Tensor& t) {
  return util::crc32(t.data(), static_cast<std::size_t>(t.numel()) *
                                   sizeof(float));
}

T::Tensor seeded(const T::Shape& shape, std::uint64_t seed) {
  T::Tensor t(shape);
  rng::Xorshift128 rng(seed);
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(-1, 1);
  return t;
}

struct ConvCase {
  const char* name;
  std::int64_t n, cin, h, w, cout, kernel, stride, padding;
  std::uint32_t y, dx, dw, db;  ///< pinned CRC-32s
};

void PrintTo(const ConvCase& c, std::ostream* os) { *os << c.name; }

class ConvPinTest : public ::testing::TestWithParam<ConvCase> {
 protected:
  void TearDown() override { util::set_num_threads(1); }
};

TEST_P(ConvPinTest, OutputsAndGradientsKeepTheirBits) {
  const ConvCase& c = GetParam();
  const T::Conv2dSpec spec{c.kernel, c.kernel, c.stride, c.padding};
  const T::Tensor x = seeded({c.n, c.cin, c.h, c.w}, 101);
  const T::Tensor w = seeded({c.cout, c.cin, c.kernel, c.kernel}, 102);
  const T::Tensor b = seeded({c.cout}, 103);
  T::Tensor gy =
      seeded({c.n, c.cout, spec.out_h(c.h), spec.out_w(c.w)}, 104);
  for (std::int64_t i = 0; i < gy.numel(); i += 3) {
    gy[i] = i % 2 == 0 ? 0.0F : -0.0F;
  }
  for (const int threads : {1, 3}) {
    util::set_num_threads(threads);
    const std::string at = " @" + std::to_string(threads) + " threads";
    EXPECT_EQ(crc_of(T::conv2d(x, w, b, spec)), c.y) << "y" << at;
    const T::Conv2dGrads g = T::conv2d_backward(x, w, gy, spec, true);
    EXPECT_EQ(crc_of(g.grad_input), c.dx) << "dX" << at;
    EXPECT_EQ(crc_of(g.grad_weight), c.dw) << "dW" << at;
    EXPECT_EQ(crc_of(g.grad_bias), c.db) << "dB" << at;
  }
}

// VGG-S at width 0.125 and batch 16: the nine distinct conv shapes of its
// thirteen layers (3x3, stride 1, padding 1).
INSTANTIATE_TEST_SUITE_P(
    VggS, ConvPinTest,
    ::testing::Values(
        ConvCase{"c3to8_32", 16, 3, 32, 32, 8, 3, 1, 1,
                 0x4fe5ee79, 0xe87b62ad, 0xf2949537, 0x27151b9e},
        ConvCase{"c8to8_32", 16, 8, 32, 32, 8, 3, 1, 1,
                 0x71e3315e, 0xa4c51120, 0xc45ab05d, 0x27151b9e},
        ConvCase{"c8to16_16", 16, 8, 16, 16, 16, 3, 1, 1,
                 0x2eb54241, 0x1743ef2f, 0x3f6106ec, 0xad3af2c6},
        ConvCase{"c16to16_16", 16, 16, 16, 16, 16, 3, 1, 1,
                 0x138c2ad9, 0x5b81b615, 0x43b66164, 0xad3af2c6},
        ConvCase{"c16to32_8", 16, 16, 8, 8, 32, 3, 1, 1,
                 0x0cdce9b2, 0x353e829a, 0x7aff749c, 0xfe961562},
        ConvCase{"c32to32_8", 16, 32, 8, 8, 32, 3, 1, 1,
                 0xee7791ae, 0x78fbc579, 0xf04413e3, 0xfe961562},
        ConvCase{"c32to64_4", 16, 32, 4, 4, 64, 3, 1, 1,
                 0xbcc17991, 0x992434f7, 0xfc8e44e4, 0x3c1c0ae4},
        ConvCase{"c64to64_4", 16, 64, 4, 4, 64, 3, 1, 1,
                 0xbdaaa9ab, 0xf68acabb, 0x1105eab6, 0x3c1c0ae4},
        ConvCase{"c64to64_2", 16, 64, 2, 2, 64, 3, 1, 1,
                 0x81216ed4, 0x5d65af5c, 0xb73a2b19, 0x8df1df6f}),
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      return std::string(info.param.name);
    });

// Geometry the VGG-S shapes never reach: stride 2, no padding, 1x1 and 5x5
// kernels, and output widths that are no multiple of any lane count.
INSTANTIATE_TEST_SUITE_P(
    Geometry, ConvPinTest,
    ::testing::Values(
        ConvCase{"stride2", 3, 5, 9, 9, 4, 3, 2, 1,
                 0x8b960a8c, 0x71ec4c45, 0xd5b37e04, 0xccde5ef1},
        ConvCase{"pad0", 2, 4, 10, 10, 6, 3, 1, 0,
                 0x9ea28407, 0x34cbda13, 0x40203453, 0x4c5204a2},
        ConvCase{"kernel1", 2, 6, 7, 7, 5, 1, 1, 0,
                 0x85ea547d, 0x855f136a, 0x35ef3b24, 0x24d6327b},
        ConvCase{"kernel5", 2, 3, 12, 12, 4, 5, 1, 2,
                 0x5cbc7657, 0x6b3aa543, 0xcf74e8f0, 0xbc66ebad},
        ConvCase{"ragged_ow13", 3, 5, 11, 13, 7, 3, 1, 1,
                 0x9cc99ac6, 0xd3ff08bc, 0x8538fc86, 0x1596617d},
        ConvCase{"stride2_pad0_ragged", 2, 4, 10, 15, 6, 3, 2, 0,
                 0xa8fb661c, 0x11b34fe9, 0x24d5842e, 0xdc55d7ab}),
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      return std::string(info.param.name);
    });

/// CRC-32 of every VGG-S weight after three DropBack steps on synthetic
/// CIFAR (batch 16, budget 1/5, tracked set frozen after step 2).
std::uint32_t vgg_weights_after_three_steps() {
  data::SyntheticCifarOptions cifar;
  cifar.num_samples = 48;
  cifar.seed = 5;
  const auto dataset = data::make_synthetic_cifar(cifar);
  nn::models::VggSOptions vgg;
  vgg.width_mult = 0.125F;
  vgg.seed = 5;
  const auto net = nn::models::make_vgg_s(vgg);
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(net->num_params() / 5, 2);
  core::DropBackOptimizer opt(net->collect_parameters(), 0.05F, config);
  data::DataLoaderOptions loader_options;
  loader_options.batch_size = 16;
  loader_options.shuffle = true;
  loader_options.seed = 5;
  data::DataLoader loader(*dataset, loader_options);
  data::Batch batch;
  for (int step = 0; step < 3; ++step) {
    EXPECT_TRUE(loader.next(batch));
    const autograd::Variable logits =
        net->forward(autograd::Variable(batch.images));
    const autograd::Variable loss = nn::cross_entropy(logits, batch.labels);
    opt.zero_grad();
    autograd::backward(loss);
    opt.step();
  }
  std::vector<float> weights;
  for (const nn::Parameter* p : net->parameters()) {
    const T::Tensor& v = p->var.value();
    weights.insert(weights.end(), v.data(), v.data() + v.numel());
  }
  return util::crc32(weights.data(), weights.size() * sizeof(float));
}

TEST(ConvPin, VggSWeightsAfterThreeDropBackSteps) {
  constexpr std::uint32_t kPinned = 0x789f7765;
  for (const int threads : {1, 3}) {
    util::set_num_threads(threads);
    EXPECT_EQ(vgg_weights_after_three_steps(), kPinned)
        << "@" << threads << " threads";
  }
  util::set_num_threads(1);
}

}  // namespace
}  // namespace dropback
