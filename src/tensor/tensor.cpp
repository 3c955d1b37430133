#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/check.hpp"

namespace dropback::tensor {

bool checked_numel(const Shape& shape, std::int64_t* numel) {
  std::int64_t n = shape.empty() ? 0 : 1;
  for (std::int64_t d : shape) {
    if (d < 0 || __builtin_mul_overflow(n, d, &n)) return false;
  }
  *numel = n;
  return true;
}

std::int64_t numel_of(const Shape& shape) {
  std::int64_t n = 0;
  DROPBACK_CHECK(checked_numel(shape, &n),
                 << "negative dimension or element count overflow in "
                 << shape_str(shape));
  return n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      numel_(numel_of(shape_)),
      storage_(std::make_shared<std::vector<float>>(numel_, 0.0F)) {}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::ones(Shape shape) { return full(std::move(shape), 1.0F); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill_(value);
  return t;
}

Tensor Tensor::from_vector(Shape shape, const std::vector<float>& values) {
  Tensor t(std::move(shape));
  DROPBACK_CHECK(static_cast<std::int64_t>(values.size()) == t.numel(),
                 << "from_vector: " << values.size() << " values for shape "
                 << shape_str(t.shape()));
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

Tensor Tensor::arange(std::int64_t n) {
  Tensor t({n});
  float* p = t.data();
  for (std::int64_t i = 0; i < n; ++i) p[i] = static_cast<float>(i);
  return t;
}

std::int64_t Tensor::size(std::int64_t dim) const {
  if (dim < 0) dim += ndim();
  DROPBACK_CHECK(dim >= 0 && dim < ndim(),
                 << "size(" << dim << ") on " << shape_str(shape_));
  return shape_[static_cast<size_t>(dim)];
}

Tensor Tensor::reshape(Shape new_shape) const {
  DROPBACK_CHECK(defined(), << "reshape of undefined tensor");
  // Infer a single -1 dimension.
  std::int64_t known = 1;
  int infer_at = -1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      DROPBACK_CHECK(infer_at < 0, << "reshape: multiple -1 dims");
      infer_at = static_cast<int>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (infer_at >= 0) {
    DROPBACK_CHECK(known > 0 && numel_ % known == 0,
                   << "reshape: cannot infer dim for " << shape_str(new_shape)
                   << " from numel " << numel_);
    new_shape[static_cast<size_t>(infer_at)] = numel_ / known;
  }
  DROPBACK_CHECK(numel_of(new_shape) == numel_,
                 << "reshape " << shape_str(shape_) << " -> "
                 << shape_str(new_shape) << " changes numel");
  Tensor view;
  view.shape_ = std::move(new_shape);
  view.numel_ = numel_;
  view.storage_ = storage_;
  return view;
}

Tensor Tensor::clone() const {
  if (!defined()) return Tensor();
  Tensor copy(shape_);
  std::copy(storage_->begin(), storage_->end(), copy.storage_->begin());
  return copy;
}

float* Tensor::data() {
  DROPBACK_ASSERT(defined(), << "data() on undefined tensor");
  return storage_->data();
}

const float* Tensor::data() const {
  DROPBACK_ASSERT(defined(), << "data() on undefined tensor");
  return storage_->data();
}

float& Tensor::operator[](std::int64_t flat_index) {
  DROPBACK_ASSERT(flat_index >= 0 && flat_index < numel_,
                  << "flat index " << flat_index << " out of range " << numel_);
  return (*storage_)[static_cast<size_t>(flat_index)];
}

float Tensor::operator[](std::int64_t flat_index) const {
  DROPBACK_ASSERT(flat_index >= 0 && flat_index < numel_,
                  << "flat index " << flat_index << " out of range " << numel_);
  return (*storage_)[static_cast<size_t>(flat_index)];
}

namespace {
std::int64_t flat_index_of(const Shape& shape,
                           std::initializer_list<std::int64_t> idx) {
  DROPBACK_CHECK(idx.size() == shape.size(),
                 << "at(): " << idx.size() << " indices for "
                 << shape_str(shape));
  std::int64_t flat = 0;
  size_t d = 0;
  for (std::int64_t i : idx) {
    DROPBACK_CHECK(i >= 0 && i < shape[d],
                   << "index " << i << " out of range for dim " << d << " of "
                   << shape_str(shape));
    flat = flat * shape[d] + i;
    ++d;
  }
  return flat;
}
}  // namespace

float& Tensor::at(std::initializer_list<std::int64_t> idx) {
  return (*storage_)[static_cast<size_t>(flat_index_of(shape_, idx))];
}

float Tensor::at(std::initializer_list<std::int64_t> idx) const {
  return (*storage_)[static_cast<size_t>(flat_index_of(shape_, idx))];
}

void Tensor::fill_(float value) {
  DROPBACK_CHECK(defined(), << "fill_ on undefined tensor");
  std::fill(storage_->begin(), storage_->end(), value);
}

void Tensor::add_(const Tensor& other, float alpha) {
  DROPBACK_CHECK(other.numel() == numel_, << "add_: numel mismatch "
                                          << other.numel() << " vs " << numel_);
  float* a = data();
  const float* b = other.data();
  for (std::int64_t i = 0; i < numel_; ++i) a[i] += alpha * b[i];
}

void Tensor::scale_(float s) {
  float* a = data();
  for (std::int64_t i = 0; i < numel_; ++i) a[i] *= s;
}

void Tensor::copy_from(const Tensor& other) {
  DROPBACK_CHECK(other.numel() == numel_, << "copy_from: numel mismatch");
  std::copy(other.data(), other.data() + numel_, data());
}

float Tensor::sum() const {
  const float* p = data();
  double acc = 0.0;  // double accumulator for stability on large tensors
  for (std::int64_t i = 0; i < numel_; ++i) acc += p[i];
  return static_cast<float>(acc);
}

float Tensor::mean() const {
  DROPBACK_CHECK(numel_ > 0, << "mean of empty tensor");
  return sum() / static_cast<float>(numel_);
}

float Tensor::min() const {
  DROPBACK_CHECK(numel_ > 0, << "min of empty tensor");
  return *std::min_element(storage_->begin(), storage_->end());
}

float Tensor::max() const {
  DROPBACK_CHECK(numel_ > 0, << "max of empty tensor");
  return *std::max_element(storage_->begin(), storage_->end());
}

float Tensor::norm() const {
  const float* p = data();
  double acc = 0.0;
  for (std::int64_t i = 0; i < numel_; ++i) {
    acc += static_cast<double>(p[i]) * static_cast<double>(p[i]);
  }
  return static_cast<float>(std::sqrt(acc));
}

std::int64_t Tensor::argmax_flat() const {
  DROPBACK_CHECK(numel_ > 0, << "argmax of empty tensor");
  return std::distance(
      storage_->begin(),
      std::max_element(storage_->begin(), storage_->end()));
}

std::string Tensor::describe() const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream os;
  os << "Tensor" << shape_str(shape_) << " numel=" << numel_;
  return os.str();
}

bool same_shape(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape();
}

}  // namespace dropback::tensor
