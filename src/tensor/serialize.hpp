// Binary tensor (de)serialization.
//
// Format: magic "DBT1", ndim (u32), dims (i64 each), raw float32 payload.
// Used by SparseWeightStore persistence and model checkpointing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "tensor/tensor.hpp"
#include "util/bytes.hpp"
#include "util/check.hpp"

namespace dropback::tensor {

void save_tensor(std::ostream& out, const Tensor& t);
/// Reads one tensor, which must end the input.
Tensor load_tensor(std::istream& in);

/// The shape codec every format shares: the rank as a `Rank` (u32 in DBT1,
/// u8 in the sparse stores), then one i64 per dimension.
template <typename Rank>
void write_shape(util::ByteWriter& w, const Shape& shape) {
  DROPBACK_CHECK(shape.size() <= std::numeric_limits<Rank>::max(),
                 << "rank " << shape.size() << " exceeds its rank field");
  w.pod(static_cast<Rank>(shape.size()));
  for (std::int64_t d : shape) w.pod(d);
}

/// Decodes a shape, rejecting negative dimensions and element-count
/// overflow with util::IoError; stores the element count in `*numel`.
template <typename Rank>
Shape read_shape(util::ByteReader& r, std::int64_t* numel) {
  Shape shape(r.count(r.pod<Rank>(), sizeof(std::int64_t), "shape"));
  for (auto& d : shape) d = r.pod<std::int64_t>();
  if (!checked_numel(shape, numel)) {
    r.fail("invalid shape " + shape_str(shape) +
           " (negative dimension or element count overflow)");
  }
  return shape;
}

}  // namespace dropback::tensor
