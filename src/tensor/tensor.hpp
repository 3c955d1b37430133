// A minimal dense float32 tensor.
//
// Design choices (deliberately narrow — this is a training substrate, not a
// general array library):
//  * Always contiguous, row-major, zero offset. `reshape` shares storage.
//  * float32 only: matches the paper's training precision and keeps kernels
//    simple.
//  * Value semantics with shared storage (like torch.Tensor): copying a
//    Tensor aliases the same buffer; use `clone()` for a deep copy.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

namespace dropback::tensor {

using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape (product of dims; empty shape = 1
/// element scalar is NOT supported — empty shape means the null tensor).
/// A negative dimension or a product beyond int64 is a caller error
/// (std::invalid_argument).
std::int64_t numel_of(const Shape& shape);

/// numel_of for untrusted shapes: stores the element count in `*numel` and
/// returns true, or returns false on a negative dimension or an element
/// count that overflows int64. Loaders use it to raise util::IoError.
bool checked_numel(const Shape& shape, std::int64_t* numel);

/// Human-readable "[2, 3, 4]".
std::string shape_str(const Shape& shape);

class Tensor {
 public:
  /// Null tensor (no storage). numel() == 0, defined() == false.
  Tensor() = default;

  /// Allocates a zero-filled tensor of the given shape.
  explicit Tensor(Shape shape);

  /// --- factories -------------------------------------------------------
  static Tensor zeros(Shape shape);
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, float value);
  /// Wraps a copy of `values` (size must equal numel(shape)).
  static Tensor from_vector(Shape shape, const std::vector<float>& values);
  /// 1-D tensor [0, 1, ..., n-1].
  static Tensor arange(std::int64_t n);

  /// --- structure -------------------------------------------------------
  bool defined() const { return storage_ != nullptr; }
  const Shape& shape() const { return shape_; }
  std::int64_t ndim() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t size(std::int64_t dim) const;
  std::int64_t numel() const { return numel_; }

  /// Shares storage; the product of the new shape must equal numel().
  /// A single -1 dim is inferred.
  Tensor reshape(Shape new_shape) const;

  /// Deep copy.
  Tensor clone() const;

  /// --- element access --------------------------------------------------
  float* data();
  const float* data() const;
  float& operator[](std::int64_t flat_index);
  float operator[](std::int64_t flat_index) const;
  /// Bounds-checked multi-dim access.
  float& at(std::initializer_list<std::int64_t> idx);
  float at(std::initializer_list<std::int64_t> idx) const;

  /// --- in-place helpers --------------------------------------------------
  void fill_(float value);
  void zero_() { fill_(0.0F); }
  /// this += alpha * other (same numel; shape is not checked beyond numel).
  void add_(const Tensor& other, float alpha = 1.0F);
  /// this *= s
  void scale_(float s);
  /// Copies values from other (same numel required).
  void copy_from(const Tensor& other);

  /// --- scalar reductions -------------------------------------------------
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  /// L2 norm of the flattened tensor.
  float norm() const;
  /// Flat index of the maximum element.
  std::int64_t argmax_flat() const;

  std::string describe() const;

 private:
  Shape shape_;
  std::int64_t numel_ = 0;
  std::shared_ptr<std::vector<float>> storage_;
};

/// True if shapes are identical.
bool same_shape(const Tensor& a, const Tensor& b);

}  // namespace dropback::tensor
