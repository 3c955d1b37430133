// Post-training quantization of a DropBack SparseWeightStore.
//
// The paper (§5) notes that quantization is orthogonal to DropBack and the
// two can be combined: DropBack shrinks the *number* of stored weights, and
// quantization shrinks the *bits per stored weight*. This module implements
// that combination: symmetric per-tensor uniform quantization of the tracked
// (index, value) entries to `bits` <= 8. Untracked weights are untouched —
// they are regenerated, not stored, so they cost zero bits either way.
//
// bench_ablation_quant regenerates the compounded compression/accuracy
// tradeoff this enables (the paper's suggested extension experiment).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/sparse_weight_store.hpp"
#include "tensor/tensor.hpp"

namespace dropback::quant {

struct QuantizedParamRecord {
  std::string name;
  tensor::Shape shape;
  rng::InitSpec init;
  float scale = 1.0F;  ///< dequant: value = scale * q
  core::SparseEntries<std::int8_t> entries;

  std::int64_t dense_numel() const { return tensor::numel_of(shape); }
};

class QuantizedSparseStore {
 public:
  QuantizedSparseStore() = default;

  /// Quantizes every record of `store` symmetrically to `bits` (2..8).
  static QuantizedSparseStore quantize(const core::SparseWeightStore& store,
                                       int bits = 8);

  std::size_t num_params() const { return records_.size(); }
  const QuantizedParamRecord& record(std::size_t p) const;
  int bits() const { return bits_; }

  /// Dense tensor: regenerated init overlaid with dequantized entries.
  tensor::Tensor materialize(std::size_t p) const;

  /// Loads the dequantized model into a matching parameter list.
  void apply_to(const std::vector<nn::Parameter*>& params) const;

  std::int64_t live_weights() const;
  std::int64_t dense_weights() const;
  /// Serialized size; every entry is a 4-byte index + a 1-byte value.
  std::int64_t bytes() const;
  /// vs dense float32 storage.
  double compression_ratio_bytes() const;

  /// Largest |original - dequantized| across all entries of `reference`
  /// (must be the store this was quantized from).
  double max_abs_error(const core::SparseWeightStore& reference) const;

  /// Flat "DBQS" format (magic, bit width, records; no checksums), built
  /// from the same name, shape, InitSpec and sparse-entry codecs as DBSW.
  /// Write failures and corrupt, truncated, over-long or implausible input
  /// raise util::IoError.
  void save(std::ostream& out) const;
  static QuantizedSparseStore load(std::istream& in);

  friend bool operator==(const QuantizedSparseStore& a,
                         const QuantizedSparseStore& b);

 private:
  int bits_ = 8;
  std::vector<QuantizedParamRecord> records_;
};

}  // namespace dropback::quant
