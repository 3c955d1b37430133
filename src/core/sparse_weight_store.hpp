// SparseWeightStore — the compressed representation DropBack trains into.
//
// A trained DropBack model is fully described by, per parameter:
//   * its InitSpec (13 bytes: kind + scale + seed), and
//   * the (index, value) pairs of its *tracked* weights.
// Every untracked weight is regenerated on access from the InitSpec. This is
// the artifact an embedded accelerator would ship: `bytes()` /
// `compression_ratio()` quantify the paper's "weight compression" columns,
// and `materialize()` (optionally traffic-counted) is the inference path.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/dropback_optimizer.hpp"
#include "energy/energy_model.hpp"
#include "nn/module.hpp"
#include "rng/init_spec.hpp"
#include "tensor/tensor.hpp"
#include "util/bytes.hpp"

namespace dropback::core {

/// (flat index, value) pairs of the stored weights, strictly increasing in
/// index.
template <typename V>
using SparseEntries = std::vector<std::pair<std::uint32_t, V>>;

/// The sparse-entry codec shared by DBSW (V = float) and DBQS (V = int8):
/// a u64 count, then (u32 index, V value) pairs.
template <typename V>
void write_sparse_entries(util::ByteWriter& w,
                          const SparseEntries<V>& entries) {
  w.pod<std::uint64_t>(entries.size());
  for (const auto& [idx, val] : entries) {
    w.pod(idx);
    w.pod(val);
  }
}

/// Rejects, with util::IoError, more entries than `dense` elements, an
/// index outside [0, dense), and indices that do not strictly increase.
template <typename V>
SparseEntries<V> read_sparse_entries(util::ByteReader& r, std::int64_t dense) {
  const std::uint64_t n = r.count(r.pod<std::uint64_t>(),
                                  sizeof(std::uint32_t) + sizeof(V), "entries");
  if (n > static_cast<std::uint64_t>(dense)) {
    r.fail("more entries (" + std::to_string(n) + ") than dense elements (" +
           std::to_string(dense) + ")");
  }
  SparseEntries<V> entries(n);
  std::int64_t prev = -1;
  for (auto& [idx, val] : entries) {
    idx = r.pod<std::uint32_t>();
    val = r.pod<V>();
    if (static_cast<std::int64_t>(idx) >= dense) {
      r.fail("entry index " + std::to_string(idx) + " out of range " +
             std::to_string(dense));
    }
    if (static_cast<std::int64_t>(idx) <= prev) {
      r.fail("entries not strictly sorted at index " + std::to_string(idx));
    }
    prev = static_cast<std::int64_t>(idx);
  }
  return entries;
}

struct SparseParamRecord {
  std::string name;
  tensor::Shape shape;
  rng::InitSpec init;
  /// Sorted by index; only tracked weights appear.
  SparseEntries<float> entries;

  std::int64_t dense_numel() const;
};

class SparseWeightStore {
 public:
  SparseWeightStore() = default;

  /// Captures the current weights of a trained DropBack optimizer: tracked
  /// weights become entries, untracked ones are represented by the InitSpec.
  static SparseWeightStore from_optimizer(const DropBackOptimizer& opt);

  /// Captures `params` keeping every weight that differs from its
  /// regenerated init by more than `tolerance` (generic export path).
  static SparseWeightStore from_params(
      const std::vector<nn::Parameter*>& params, float tolerance = 0.0F);

  std::size_t num_params() const { return records_.size(); }
  const SparseParamRecord& record(std::size_t p) const;

  /// Reconstructs the full dense tensor of parameter p (regen + overlay).
  /// If `traffic` is non-null, counts one regen per untracked element and
  /// one DRAM read per tracked element.
  tensor::Tensor materialize(std::size_t p,
                             energy::TrafficCounter* traffic = nullptr) const;

  /// Writes all materialized tensors back into a matching parameter list
  /// (same order, same shapes) — i.e. loads the compressed model.
  void apply_to(const std::vector<nn::Parameter*>& params,
                energy::TrafficCounter* traffic = nullptr) const;

  /// Stored (tracked) weight count across all parameters.
  std::int64_t live_weights() const;
  /// Total dense weight count.
  std::int64_t dense_weights() const;
  /// Serialized size in bytes of this store.
  std::int64_t bytes() const;
  /// Dense float32 size in bytes.
  std::int64_t dense_bytes() const;
  /// dense_weights / live_weights — the paper's "weight compression" metric.
  double compression_ratio() const;

  /// Persistence uses the shared checksummed container (util/container.hpp,
  /// kind "DBSW"): one CRC32-guarded section per record holding the name,
  /// shape, InitSpec and sparse entries. Corrupt, truncated, or over-long
  /// input raises util::IoError. File saves are atomic (temp + fsync +
  /// rename).
  void save(std::ostream& out) const;
  static SparseWeightStore load(std::istream& in);
  void save_file(const std::string& path) const;
  static SparseWeightStore load_file(const std::string& path);

  /// Same records (name, shape, init spec, entries), entry values compared
  /// by their bits: equal stores save equal bytes, and a store with a NaN
  /// weight equals its own reload.
  friend bool operator==(const SparseWeightStore& a,
                         const SparseWeightStore& b);

 private:
  std::vector<SparseParamRecord> records_;
};

}  // namespace dropback::core
