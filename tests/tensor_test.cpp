#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "tensor/serialize.hpp"
#include "util/io_error.hpp"

namespace dropback::tensor {
namespace {

TEST(Tensor, DefaultConstructedIsUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_EQ(t.numel(), 0);
}

TEST(Tensor, ConstructionZeroFills) {
  Tensor t({2, 3});
  EXPECT_TRUE(t.defined());
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.ndim(), 2);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(t[i], 0.0F);
}

TEST(Tensor, NumelOfHandlesEmptyAndZeroDims) {
  EXPECT_EQ(numel_of({}), 0);
  EXPECT_EQ(numel_of({0}), 0);
  EXPECT_EQ(numel_of({3, 0, 2}), 0);
  EXPECT_EQ(numel_of({2, 3, 4}), 24);
}

TEST(Tensor, NumelOfRejectsElementCountOverflow) {
  const std::int64_t big = std::int64_t{1} << 32;
  EXPECT_THROW(numel_of({big, big}), std::invalid_argument);
  std::int64_t n = -1;
  EXPECT_FALSE(checked_numel({big, big}, &n));
  EXPECT_FALSE(checked_numel({2, -1}, &n));
  EXPECT_EQ(n, -1);  // untouched on failure
  ASSERT_TRUE(checked_numel({big, 0, big}, &n));
  EXPECT_EQ(n, 0);
  ASSERT_TRUE(checked_numel({big, 1 << 30}, &n));
  EXPECT_EQ(n, std::int64_t{1} << 62);
}

TEST(Tensor, NumelOfRejectsNegativeDims) {
  EXPECT_THROW(numel_of({2, -1}), std::invalid_argument);
}

TEST(Tensor, FactoriesProduceExpectedValues) {
  EXPECT_FLOAT_EQ(Tensor::ones({3})[1], 1.0F);
  EXPECT_FLOAT_EQ(Tensor::full({2, 2}, 2.5F)[3], 2.5F);
  Tensor ar = Tensor::arange(5);
  for (std::int64_t i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(ar[i], float(i));
}

TEST(Tensor, FromVectorChecksSize) {
  EXPECT_NO_THROW(Tensor::from_vector({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor::from_vector({2, 2}, {1, 2, 3}),
               std::invalid_argument);
}

TEST(Tensor, SizeSupportsNegativeDims) {
  Tensor t({4, 5, 6});
  EXPECT_EQ(t.size(0), 4);
  EXPECT_EQ(t.size(-1), 6);
  EXPECT_EQ(t.size(-3), 4);
  EXPECT_THROW(t.size(3), std::invalid_argument);
}

TEST(Tensor, MultiDimAtUsesRowMajorOrder) {
  Tensor t = Tensor::from_vector({2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_FLOAT_EQ(t.at({0, 0}), 0.0F);
  EXPECT_FLOAT_EQ(t.at({0, 2}), 2.0F);
  EXPECT_FLOAT_EQ(t.at({1, 0}), 3.0F);
  EXPECT_FLOAT_EQ(t.at({1, 2}), 5.0F);
  t.at({1, 1}) = 42.0F;
  EXPECT_FLOAT_EQ(t[4], 42.0F);
}

TEST(Tensor, AtRejectsBadIndices) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at({2, 0}), std::invalid_argument);
  EXPECT_THROW(t.at({0, 3}), std::invalid_argument);
  EXPECT_THROW(t.at({0}), std::invalid_argument);
}

TEST(Tensor, CopySharesStorageCloneDoesNot) {
  Tensor a = Tensor::from_vector({3}, {1, 2, 3});
  Tensor shared = a;        // aliases
  Tensor deep = a.clone();  // copies
  a[0] = 100.0F;
  EXPECT_FLOAT_EQ(shared[0], 100.0F);
  EXPECT_FLOAT_EQ(deep[0], 1.0F);
}

TEST(Tensor, ReshapeSharesStorage) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = a.reshape({3, 2});
  b[0] = 9.0F;
  EXPECT_FLOAT_EQ(a[0], 9.0F);
  EXPECT_EQ(b.shape(), (Shape{3, 2}));
}

TEST(Tensor, ReshapeInfersMinusOne) {
  Tensor a({4, 6});
  EXPECT_EQ(a.reshape({-1}).shape(), (Shape{24}));
  EXPECT_EQ(a.reshape({2, -1}).shape(), (Shape{2, 12}));
  EXPECT_EQ(a.reshape({-1, 8}).shape(), (Shape{3, 8}));
}

TEST(Tensor, ReshapeRejectsBadShapes) {
  Tensor a({4, 6});
  EXPECT_THROW(a.reshape({5, 5}), std::invalid_argument);
  EXPECT_THROW(a.reshape({-1, -1}), std::invalid_argument);
  EXPECT_THROW(a.reshape({-1, 7}), std::invalid_argument);
}

TEST(Tensor, InPlaceHelpers) {
  Tensor a = Tensor::from_vector({3}, {1, 2, 3});
  Tensor b = Tensor::from_vector({3}, {10, 20, 30});
  a.add_(b, 0.5F);
  EXPECT_FLOAT_EQ(a[0], 6.0F);
  EXPECT_FLOAT_EQ(a[2], 18.0F);
  a.scale_(2.0F);
  EXPECT_FLOAT_EQ(a[1], 24.0F);
  a.fill_(7.0F);
  EXPECT_FLOAT_EQ(a[2], 7.0F);
  a.zero_();
  EXPECT_FLOAT_EQ(a[0], 0.0F);
  a.copy_from(b);
  EXPECT_FLOAT_EQ(a[1], 20.0F);
}

TEST(Tensor, AddUnderscoreChecksNumel) {
  Tensor a({3});
  Tensor b({4});
  EXPECT_THROW(a.add_(b), std::invalid_argument);
}

TEST(Tensor, Reductions) {
  Tensor t = Tensor::from_vector({4}, {-1, 3, 2, -4});
  EXPECT_FLOAT_EQ(t.sum(), 0.0F);
  EXPECT_FLOAT_EQ(t.mean(), 0.0F);
  EXPECT_FLOAT_EQ(t.min(), -4.0F);
  EXPECT_FLOAT_EQ(t.max(), 3.0F);
  EXPECT_FLOAT_EQ(t.norm(), std::sqrt(1.0F + 9.0F + 4.0F + 16.0F));
  EXPECT_EQ(t.argmax_flat(), 1);
}

TEST(Tensor, DescribeIncludesShape) {
  Tensor t({2, 3});
  EXPECT_NE(t.describe().find("[2, 3]"), std::string::npos);
  EXPECT_NE(Tensor().describe().find("undefined"), std::string::npos);
}

TEST(Tensor, SameShape) {
  EXPECT_TRUE(same_shape(Tensor({2, 3}), Tensor({2, 3})));
  EXPECT_FALSE(same_shape(Tensor({2, 3}), Tensor({3, 2})));
  EXPECT_FALSE(same_shape(Tensor({6}), Tensor({2, 3})));
}

// --- serialization --------------------------------------------------------

TEST(Serialize, RoundTripPreservesShapeAndData) {
  Tensor t = Tensor::from_vector({2, 2, 3},
                                 {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  std::stringstream ss;
  save_tensor(ss, t);
  Tensor back = load_tensor(ss);
  EXPECT_EQ(back.shape(), t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_FLOAT_EQ(back[i], t[i]);
  }
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream ss;
  ss << "NOPE....garbage";
  EXPECT_THROW(load_tensor(ss), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedPayload) {
  Tensor t({100});
  std::stringstream ss;
  save_tensor(ss, t);
  std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_tensor(cut), std::runtime_error);
}

TEST(Serialize, RejectsShapeWhoseElementCountOverflows) {
  std::stringstream ss;
  ss.write("DBT1", 4);
  const std::uint32_t ndim = 2;
  ss.write(reinterpret_cast<const char*>(&ndim), sizeof(ndim));
  const std::int64_t dim = std::int64_t{1} << 32;
  ss.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  ss.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  EXPECT_THROW(load_tensor(ss), util::IoError);
}

TEST(Serialize, LyingShapeFailsAsTruncationNotAllocation) {
  // {2^20, 2^14} passes checked_numel (2^34 elements, 64 GiB of payload)
  // but the stream holds 16 bytes. Loading must fail with the typed error
  // after allocating about what the stream holds, not bad_alloc or OOM.
  std::stringstream ss;
  ss.write("DBT1", 4);
  const std::uint32_t ndim = 2;
  ss.write(reinterpret_cast<const char*>(&ndim), sizeof(ndim));
  const std::int64_t dims[2] = {std::int64_t{1} << 20, std::int64_t{1} << 14};
  ss.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  const float payload[4] = {1.0F, 2.0F, 3.0F, 4.0F};
  ss.write(reinterpret_cast<const char*>(payload), sizeof(payload));
  EXPECT_THROW(load_tensor(ss), util::IoError);
}

/// Shape sweep: reshape round-trips through arbitrary factorizations.
class ReshapeSweep
    : public ::testing::TestWithParam<std::pair<Shape, Shape>> {};

TEST_P(ReshapeSweep, RoundTripsLosslessly) {
  const auto& [from, to] = GetParam();
  Tensor t(from);
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(i);
  Tensor r = t.reshape(to).reshape(from);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_FLOAT_EQ(r[i], t[i]);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReshapeSweep,
    ::testing::Values(std::make_pair(Shape{12}, Shape{3, 4}),
                      std::make_pair(Shape{2, 3, 4}, Shape{24}),
                      std::make_pair(Shape{2, 3, 4}, Shape{4, 3, 2}),
                      std::make_pair(Shape{1, 1, 5}, Shape{5, 1}),
                      std::make_pair(Shape{6, 6}, Shape{2, 3, 3, 2})));

}  // namespace
}  // namespace dropback::tensor
