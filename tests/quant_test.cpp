#include "quant/quantized_store.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "autograd/ops.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "rng/init_spec.hpp"
#include "rng/xorshift.hpp"
#include "util/io_error.hpp"

namespace dropback::quant {
namespace {

namespace T = dropback::tensor;
namespace ag = dropback::autograd;

core::SparseWeightStore trained_store(std::int64_t budget = 20) {
  nn::Sequential net;
  net.emplace<nn::Linear>(6, 8, 1);
  net.emplace<nn::Linear>(8, 4, 2);
  auto params = net.collect_parameters();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(budget);
  core::DropBackOptimizer opt(params, 0.1F, config);
  rng::Xorshift128 rng(3);
  for (int iter = 0; iter < 5; ++iter) {
    net.zero_grad();
    T::Tensor x({3, 6});
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
    ag::Variable input(x);
    ag::backward(ag::sum(ag::mul(net.forward(input), net.forward(input))));
    opt.step();
  }
  return core::SparseWeightStore::from_optimizer(opt);
}

TEST(QuantizedStore, PreservesStructure) {
  auto store = trained_store();
  auto q = QuantizedSparseStore::quantize(store, 8);
  EXPECT_EQ(q.num_params(), store.num_params());
  EXPECT_EQ(q.live_weights(), store.live_weights());
  EXPECT_EQ(q.dense_weights(), store.dense_weights());
  EXPECT_EQ(q.bits(), 8);
}

TEST(QuantizedStore, Int8ErrorBoundedByHalfStep) {
  auto store = trained_store();
  auto q = QuantizedSparseStore::quantize(store, 8);
  // Max error of symmetric quantization is scale/2 per record; take the
  // largest scale as the bound.
  float max_scale = 0.0F;
  for (std::size_t p = 0; p < q.num_params(); ++p) {
    max_scale = std::max(max_scale, q.record(p).scale);
  }
  EXPECT_LE(q.max_abs_error(store), max_scale * 0.5F + 1e-7F);
}

TEST(QuantizedStore, LowerBitsCoarserError) {
  auto store = trained_store();
  const double err8 =
      QuantizedSparseStore::quantize(store, 8).max_abs_error(store);
  const double err4 =
      QuantizedSparseStore::quantize(store, 4).max_abs_error(store);
  const double err2 =
      QuantizedSparseStore::quantize(store, 2).max_abs_error(store);
  EXPECT_LE(err8, err4 + 1e-9);
  EXPECT_LE(err4, err2 + 1e-9);
}

TEST(QuantizedStore, MaterializeOverlaysDequantizedEntries) {
  auto store = trained_store();
  auto q = QuantizedSparseStore::quantize(store, 8);
  for (std::size_t p = 0; p < q.num_params(); ++p) {
    const T::Tensor original = store.materialize(p);
    const T::Tensor dequant = q.materialize(p);
    ASSERT_EQ(original.shape(), dequant.shape());
    const auto& rec = q.record(p);
    // Untracked positions are bit-identical (regenerated, not quantized).
    std::size_t e = 0;
    for (std::int64_t i = 0; i < original.numel(); ++i) {
      const bool tracked =
          e < rec.entries.size() &&
          static_cast<std::int64_t>(rec.entries[e].first) == i;
      if (tracked) {
        EXPECT_NEAR(dequant[i], original[i], rec.scale * 0.5F + 1e-6F);
        ++e;
      } else {
        EXPECT_EQ(dequant[i], original[i]);
      }
    }
  }
}

TEST(QuantizedStore, BytesSmallerThanFloatStore) {
  auto store = trained_store(30);
  auto q = QuantizedSparseStore::quantize(store, 8);
  EXPECT_LT(q.bytes(), store.bytes());
  EXPECT_GT(q.compression_ratio_bytes(), 1.0);
}

TEST(QuantizedStore, SaveLoadRoundTrip) {
  auto store = trained_store();
  auto q = QuantizedSparseStore::quantize(store, 6);
  std::stringstream ss;
  q.save(ss);
  auto loaded = QuantizedSparseStore::load(ss);
  EXPECT_TRUE(q == loaded);
  EXPECT_EQ(loaded.bits(), 6);
}

TEST(QuantizedStore, BytesMatchesSerializedSize) {
  auto q = QuantizedSparseStore::quantize(trained_store(), 4);
  std::stringstream ss;
  q.save(ss);
  EXPECT_EQ(static_cast<std::int64_t>(ss.str().size()), q.bytes());
}

TEST(QuantizedStore, LoadRejectsGarbage) {
  std::stringstream ss;
  ss << "garbage data here";
  EXPECT_THROW(QuantizedSparseStore::load(ss), util::IoError);
}

TEST(QuantizedStore, LoadRejectsTruncationAtEveryByte) {
  // Every prefix of a valid file ends inside some field (magic, bit width,
  // record count, name length, name, shape, init spec, scale, entry count,
  // entries); each must fail with the typed loader error.
  auto q = QuantizedSparseStore::quantize(trained_store(), 8);
  std::stringstream ss;
  q.save(ss);
  const std::string full = ss.str();
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::istringstream cut(full.substr(0, len), std::ios::binary);
    EXPECT_THROW(QuantizedSparseStore::load(cut), util::IoError)
        << "length " << len;
  }
}

/// One hand-written DBQS record with the given shape whose header claims
/// `n_entries` entries (none follow) in a file claiming `records` records.
std::string single_record_bytes(const T::Shape& shape,
                                std::uint64_t n_entries = 0,
                                std::uint32_t records = 1) {
  std::ostringstream out(std::ios::binary);
  const auto put = [&out](const auto& v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  out.write("DBQS", 4);
  put(std::uint8_t{8});   // bits
  put(records);           // record count
  put(std::uint16_t{1});
  out.write("w", 1);
  put(static_cast<std::uint8_t>(shape.size()));
  for (std::int64_t d : shape) put(d);
  put(static_cast<std::uint8_t>(rng::InitSpec::Kind::kScaledNormal));
  put(0.5F);              // init scale
  put(std::uint64_t{7});  // init seed
  put(1.0F);              // quant scale
  put(n_entries);         // entry count
  return out.str();
}

TEST(QuantizedStore, LoadRejectsInvalidShapesWithTypedError) {
  std::istringstream ok(single_record_bytes({3, 4}), std::ios::binary);
  EXPECT_EQ(QuantizedSparseStore::load(ok).dense_weights(), 12);
  const std::int64_t big = std::int64_t{1} << 32;
  for (const T::Shape& shape : {T::Shape{2, -1}, T::Shape{big, big}}) {
    std::istringstream in(single_record_bytes(shape), std::ios::binary);
    EXPECT_THROW(QuantizedSparseStore::load(in), util::IoError)
        << T::shape_str(shape);
  }
}

TEST(QuantizedStore, LyingHeaderCountsFailAsTruncationNotAllocation) {
  // A shape of 2^34 elements passes checked_numel, so the header may claim
  // 2^34 entries, and the record count may claim 2^32 - 1 records; the
  // stream holds none of them. Loading must fail with the typed error after
  // allocating about what the stream holds, not bad_alloc or OOM.
  const T::Shape huge{std::int64_t{1} << 20, std::int64_t{1} << 14};
  std::istringstream entries(single_record_bytes(huge, std::uint64_t{1} << 34),
                             std::ios::binary);
  EXPECT_THROW(QuantizedSparseStore::load(entries), util::IoError);
  std::istringstream records(single_record_bytes({3, 4}, 0, UINT32_MAX),
                             std::ios::binary);
  EXPECT_THROW(QuantizedSparseStore::load(records), util::IoError);
}

TEST(QuantizedStore, RejectsBadBitWidths) {
  auto store = trained_store();
  EXPECT_THROW(QuantizedSparseStore::quantize(store, 1),
               std::invalid_argument);
  EXPECT_THROW(QuantizedSparseStore::quantize(store, 9),
               std::invalid_argument);
}

TEST(QuantizedStore, ApplyToLoadsModel) {
  auto store = trained_store();
  auto q = QuantizedSparseStore::quantize(store, 8);
  nn::Sequential net;
  net.emplace<nn::Linear>(6, 8, 99);
  net.emplace<nn::Linear>(8, 4, 98);
  auto params = net.collect_parameters();
  q.apply_to(params);
  const T::Tensor expected = q.materialize(0);
  for (std::int64_t i = 0; i < expected.numel(); ++i) {
    EXPECT_EQ(params[0]->var.value()[i], expected[i]);
  }
}

TEST(QuantizedStore, ZeroEntriesQuantizeSafely) {
  // A fresh (untrained) model captured via from_params has zero entries;
  // quantization must not divide by zero.
  nn::Sequential net;
  net.emplace<nn::Linear>(4, 4, 1);
  auto store = core::SparseWeightStore::from_params(net.collect_parameters());
  EXPECT_EQ(store.live_weights(), 0);
  auto q = QuantizedSparseStore::quantize(store, 8);
  EXPECT_EQ(q.live_weights(), 0);
  EXPECT_NO_THROW(q.materialize(0));
}

/// Bit-width sweep: round-trip plus monotone byte size.
class BitSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitSweep, RoundTripAndBytes) {
  auto store = trained_store();
  auto q = QuantizedSparseStore::quantize(store, GetParam());
  std::stringstream ss;
  q.save(ss);
  EXPECT_TRUE(QuantizedSparseStore::load(ss) == q);
}

INSTANTIATE_TEST_SUITE_P(Bits, BitSweep, ::testing::Values(2, 3, 4, 6, 8));

}  // namespace
}  // namespace dropback::quant
