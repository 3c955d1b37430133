#include "quant/quantized_store.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "tensor/serialize.hpp"
#include "util/bytes.hpp"
#include "util/check.hpp"

namespace dropback::quant {

namespace {
constexpr std::string_view kMagic = "DBQS";
/// Smallest possible record: empty name, rank 0, InitSpec, scale, count.
constexpr std::uint64_t kMinRecordBytes =
    2 + 1 + rng::InitSpec::persisted_bytes() + 4 + 8;
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
  std::ostringstream out(std::ios::binary);
  save(out);
  return static_cast<std::int64_t>(out.tellp());
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
  util::ByteWriter w(out, "QuantizedSparseStore");
  w.raw(kMagic);
  w.pod(static_cast<std::uint8_t>(bits_));
  w.pod(static_cast<std::uint32_t>(records_.size()));
  for (const auto& rec : records_) {
    w.str(rec.name);
    tensor::write_shape<std::uint8_t>(w, rec.shape);
    rec.init.encode(w);
    w.pod(rec.scale);
    core::write_sparse_entries(w, rec.entries);
  }
  w.finish();
}

QuantizedSparseStore QuantizedSparseStore::load(std::istream& in) {
  util::ByteReader r(in, "QuantizedSparseStore");
  r.expect_magic(kMagic);
  QuantizedSparseStore store;
  store.bits_ = r.pod<std::uint8_t>();
  if (store.bits_ < 2 || store.bits_ > 8) {
    r.fail("bad bit width " + std::to_string(store.bits_));
  }
  store.records_.resize(
      r.count(r.pod<std::uint32_t>(), kMinRecordBytes, "records"));
  for (QuantizedParamRecord& rec : store.records_) {
    rec.name = r.str();
    std::int64_t dense = 0;
    rec.shape = tensor::read_shape<std::uint8_t>(r, &dense);
    rec.init = rng::InitSpec::decode(r);
    rec.scale = r.pod<float>();
    rec.entries = core::read_sparse_entries<std::int8_t>(r, dense);
  }
  r.expect_end();
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
