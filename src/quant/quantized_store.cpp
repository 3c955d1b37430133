#include "quant/quantized_store.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.hpp"
#include "util/io_error.hpp"

namespace dropback::quant {

namespace {
constexpr char kMagic[4] = {'D', 'B', 'Q', 'S'};
/// Most records or entries reserved from a header count before any of them
/// is read.
constexpr std::uint32_t kMaxReserve = 1 << 16;

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw util::IoError("QuantizedSparseStore: truncated stream");
  return v;
}
}  // namespace

QuantizedSparseStore QuantizedSparseStore::quantize(
    const core::SparseWeightStore& store, int bits) {
  DROPBACK_CHECK(bits >= 2 && bits <= 8, << "quantize: bits " << bits);
  QuantizedSparseStore out;
  out.bits_ = bits;
  const int qmax = (1 << (bits - 1)) - 1;  // symmetric range [-qmax, qmax]
  for (std::size_t p = 0; p < store.num_params(); ++p) {
    const auto& rec = store.record(p);
    QuantizedParamRecord q;
    q.name = rec.name;
    q.shape = rec.shape;
    q.init = rec.init;
    float max_abs = 0.0F;
    for (const auto& [idx, val] : rec.entries) {
      max_abs = std::max(max_abs, std::fabs(val));
    }
    q.scale = max_abs > 0.0F ? max_abs / static_cast<float>(qmax) : 1.0F;
    q.entries.reserve(rec.entries.size());
    for (const auto& [idx, val] : rec.entries) {
      const int quantized = std::clamp(
          static_cast<int>(std::lround(val / q.scale)), -qmax, qmax);
      q.entries.emplace_back(idx, static_cast<std::int8_t>(quantized));
    }
    out.records_.push_back(std::move(q));
  }
  return out;
}

const QuantizedParamRecord& QuantizedSparseStore::record(
    std::size_t p) const {
  DROPBACK_CHECK(p < records_.size(), << "record(" << p << ")");
  return records_[p];
}

tensor::Tensor QuantizedSparseStore::materialize(std::size_t p) const {
  const auto& rec = record(p);
  tensor::Tensor t(rec.shape);
  rec.init.fill(t.data(), static_cast<std::size_t>(t.numel()));
  float* w = t.data();
  for (const auto& [idx, q] : rec.entries) {
    w[idx] = rec.scale * static_cast<float>(q);
  }
  return t;
}

void QuantizedSparseStore::apply_to(
    const std::vector<nn::Parameter*>& params) const {
  DROPBACK_CHECK(params.size() == records_.size(),
                 << "apply_to: " << params.size() << " params vs "
                 << records_.size() << " records");
  for (std::size_t p = 0; p < params.size(); ++p) {
    DROPBACK_CHECK(params[p]->var.value().shape() == records_[p].shape,
                   << "apply_to: shape mismatch at " << records_[p].name);
    params[p]->var.value().copy_from(materialize(p));
  }
}

std::int64_t QuantizedSparseStore::live_weights() const {
  std::int64_t n = 0;
  for (const auto& rec : records_) {
    n += static_cast<std::int64_t>(rec.entries.size());
  }
  return n;
}

std::int64_t QuantizedSparseStore::dense_weights() const {
  std::int64_t n = 0;
  for (const auto& rec : records_) n += rec.dense_numel();
  return n;
}

std::int64_t QuantizedSparseStore::bytes() const {
  std::int64_t total = 4 + 1 + 4;  // magic + bits + record count
  const std::int64_t payload = (bits_ + 7) / 8;
  for (const auto& rec : records_) {
    total += 2 + static_cast<std::int64_t>(rec.name.size());
    total += 1 + 8 * static_cast<std::int64_t>(rec.shape.size());
    total += static_cast<std::int64_t>(rng::InitSpec::persisted_bytes());
    total += 4;  // scale
    total += 8;  // entry count
    total += (4 + payload) * static_cast<std::int64_t>(rec.entries.size());
  }
  return total;
}

double QuantizedSparseStore::compression_ratio_bytes() const {
  return static_cast<double>(4 * dense_weights()) /
         static_cast<double>(bytes());
}

double QuantizedSparseStore::max_abs_error(
    const core::SparseWeightStore& reference) const {
  DROPBACK_CHECK(reference.num_params() == records_.size(),
                 << "max_abs_error: store mismatch");
  double max_err = 0.0;
  for (std::size_t p = 0; p < records_.size(); ++p) {
    const auto& ref = reference.record(p);
    const auto& q = records_[p];
    DROPBACK_CHECK(ref.entries.size() == q.entries.size(),
                   << "max_abs_error: entry count mismatch at " << q.name);
    for (std::size_t e = 0; e < q.entries.size(); ++e) {
      const double dequant = q.scale * static_cast<double>(q.entries[e].second);
      max_err = std::max(max_err,
                         std::fabs(dequant - ref.entries[e].second));
    }
  }
  return max_err;
}

void QuantizedSparseStore::save(std::ostream& out) const {
  out.write(kMagic, sizeof(kMagic));
  write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(bits_));
  write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(records_.size()));
  for (const auto& rec : records_) {
    write_pod<std::uint16_t>(out, static_cast<std::uint16_t>(rec.name.size()));
    out.write(rec.name.data(), static_cast<std::streamsize>(rec.name.size()));
    write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(rec.shape.size()));
    for (std::int64_t d : rec.shape) write_pod<std::int64_t>(out, d);
    write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(rec.init.kind()));
    write_pod<float>(out, rec.init.scale());
    write_pod<std::uint64_t>(out, rec.init.seed());
    write_pod<float>(out, rec.scale);
    write_pod<std::uint64_t>(out, rec.entries.size());
    for (const auto& [idx, q] : rec.entries) {
      write_pod<std::uint32_t>(out, idx);
      write_pod<std::int8_t>(out, q);
    }
  }
  if (!out) throw util::IoError("QuantizedSparseStore: write failed");
}

QuantizedSparseStore QuantizedSparseStore::load(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw util::IoError("QuantizedSparseStore: bad magic");
  }
  QuantizedSparseStore store;
  store.bits_ = read_pod<std::uint8_t>(in);
  if (store.bits_ < 2 || store.bits_ > 8) {
    throw util::IoError("QuantizedSparseStore: bad bit width " +
                        std::to_string(store.bits_));
  }
  const auto count = read_pod<std::uint32_t>(in);
  // Header counts are untrusted: reserve a bounded head start and let the
  // vectors grow with what the stream actually holds.
  store.records_.reserve(std::min<std::uint32_t>(count, kMaxReserve));
  for (std::uint32_t p = 0; p < count; ++p) {
    QuantizedParamRecord rec;
    const auto name_len = read_pod<std::uint16_t>(in);
    rec.name.resize(name_len);
    in.read(rec.name.data(), name_len);
    if (!in) throw util::IoError("QuantizedSparseStore: truncated record name");
    const auto ndim = read_pod<std::uint8_t>(in);
    rec.shape.resize(ndim);
    for (auto& d : rec.shape) d = read_pod<std::int64_t>(in);
    std::int64_t dense = 0;
    if (!tensor::checked_numel(rec.shape, &dense)) {
      throw util::IoError("QuantizedSparseStore: record '" + rec.name +
                          "': invalid shape " + tensor::shape_str(rec.shape) +
                          " (negative dimension or element count overflow)");
    }
    const auto kind = read_pod<std::uint8_t>(in);
    const auto init_scale = read_pod<float>(in);
    const auto seed = read_pod<std::uint64_t>(in);
    rec.init = kind == static_cast<std::uint8_t>(
                           rng::InitSpec::Kind::kScaledNormal)
                   ? rng::InitSpec::scaled_normal(init_scale, seed)
                   : rng::InitSpec::constant(init_scale);
    rec.scale = read_pod<float>(in);
    const auto n_entries = read_pod<std::uint64_t>(in);
    if (n_entries > static_cast<std::uint64_t>(dense)) {
      throw util::IoError("QuantizedSparseStore: record '" + rec.name +
                          "': more entries (" + std::to_string(n_entries) +
                          ") than dense elements (" + std::to_string(dense) +
                          ")");
    }
    rec.entries.reserve(std::min<std::uint64_t>(n_entries, kMaxReserve));
    for (std::uint64_t e = 0; e < n_entries; ++e) {
      const auto idx = read_pod<std::uint32_t>(in);
      const auto q = read_pod<std::int8_t>(in);
      if (static_cast<std::int64_t>(idx) >= dense) {
        throw util::IoError("QuantizedSparseStore: record '" + rec.name +
                            "': entry index " + std::to_string(idx) +
                            " out of range " + std::to_string(dense));
      }
      rec.entries.emplace_back(idx, q);
    }
    store.records_.push_back(std::move(rec));
  }
  return store;
}

bool operator==(const QuantizedSparseStore& a, const QuantizedSparseStore& b) {
  if (a.bits_ != b.bits_ || a.records_.size() != b.records_.size()) {
    return false;
  }
  for (std::size_t p = 0; p < a.records_.size(); ++p) {
    const auto& ra = a.records_[p];
    const auto& rb = b.records_[p];
    if (ra.name != rb.name || ra.shape != rb.shape ||
        !(ra.init == rb.init) || ra.scale != rb.scale ||
        ra.entries != rb.entries) {
      return false;
    }
  }
  return true;
}

}  // namespace dropback::quant
