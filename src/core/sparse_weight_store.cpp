#include "core/sparse_weight_store.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "tensor/serialize.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/container.hpp"
#include "util/io_error.hpp"

namespace dropback::core {

namespace {
// Container payload kind of the checksummed store format.
constexpr char kKind[] = "DBSW";

void write_record(std::ostream& out, const SparseParamRecord& rec) {
  util::ByteWriter w(out, "SparseWeightStore");
  w.str(rec.name);
  tensor::write_shape<std::uint8_t>(w, rec.shape);
  rec.init.encode(w);
  write_sparse_entries(w, rec.entries);
}

SparseParamRecord read_record(std::istream& in, const std::string& section,
                              std::int64_t offset) {
  util::ByteReader r(in, "SparseWeightStore: section '" + section +
                             "' at offset " + std::to_string(offset));
  SparseParamRecord rec;
  rec.name = r.str();
  if (rec.name != section) r.fail("holds record named '" + rec.name + "'");
  std::int64_t dense = 0;
  rec.shape = tensor::read_shape<std::uint8_t>(r, &dense);
  rec.init = rng::InitSpec::decode(r);
  rec.entries = read_sparse_entries<float>(r, dense);
  r.expect_end();
  return rec;
}
}  // namespace

std::int64_t SparseParamRecord::dense_numel() const {
  return tensor::numel_of(shape);
}

SparseWeightStore SparseWeightStore::from_optimizer(
    const DropBackOptimizer& opt) {
  SparseWeightStore store;
  const ParamIndex& index = opt.param_index();
  const TrackedSet& tracked = opt.tracked();
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    nn::Parameter& param = index.param(p);
    SparseParamRecord rec;
    rec.name = param.name;
    rec.shape = param.var.value().shape();
    rec.init = param.init;
    const float* w = param.var.value().data();
    const std::int64_t n = param.numel();
    DROPBACK_CHECK(n <= static_cast<std::int64_t>(UINT32_MAX),
                   << "parameter too large for u32 indices: " << n);
    if (tracked.all_tracked()) {
      rec.entries.reserve(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        rec.entries.emplace_back(static_cast<std::uint32_t>(i), w[i]);
      }
    } else {
      const std::uint8_t* mask = tracked.mask_of(p);
      for (std::int64_t i = 0; i < n; ++i) {
        if (mask[static_cast<std::size_t>(i)]) {
          rec.entries.emplace_back(static_cast<std::uint32_t>(i), w[i]);
        }
      }
    }
    store.records_.push_back(std::move(rec));
  }
  return store;
}

SparseWeightStore SparseWeightStore::from_params(
    const std::vector<nn::Parameter*>& params, float tolerance) {
  SparseWeightStore store;
  for (nn::Parameter* param : params) {
    DROPBACK_CHECK(param != nullptr, << "from_params: null parameter");
    SparseParamRecord rec;
    rec.name = param->name;
    rec.shape = param->var.value().shape();
    rec.init = param->init;
    const float* w = param->var.value().data();
    const std::int64_t n = param->numel();
    for (std::int64_t i = 0; i < n; ++i) {
      const float w0 = rec.init.value_at(static_cast<std::uint64_t>(i));
      if (std::fabs(w[i] - w0) > tolerance) {
        rec.entries.emplace_back(static_cast<std::uint32_t>(i), w[i]);
      }
    }
    store.records_.push_back(std::move(rec));
  }
  return store;
}

const SparseParamRecord& SparseWeightStore::record(std::size_t p) const {
  DROPBACK_CHECK(p < records_.size(), << "record(" << p << ") of "
                                      << records_.size());
  return records_[p];
}

tensor::Tensor SparseWeightStore::materialize(
    std::size_t p, energy::TrafficCounter* traffic) const {
  const SparseParamRecord& rec = record(p);
  tensor::Tensor t(rec.shape);
  rec.init.fill(t.data(), static_cast<std::size_t>(t.numel()));
  float* w = t.data();
  for (const auto& [idx, val] : rec.entries) {
    w[idx] = val;
  }
  if (traffic) {
    traffic->dram_reads += rec.entries.size();
    traffic->regens +=
        static_cast<std::uint64_t>(t.numel()) - rec.entries.size();
  }
  return t;
}

void SparseWeightStore::apply_to(const std::vector<nn::Parameter*>& params,
                                 energy::TrafficCounter* traffic) const {
  DROPBACK_CHECK(params.size() == records_.size(),
                 << "apply_to: " << params.size() << " params vs "
                 << records_.size() << " records");
  for (std::size_t p = 0; p < params.size(); ++p) {
    DROPBACK_CHECK(params[p]->var.value().shape() == records_[p].shape,
                   << "apply_to: shape mismatch at " << records_[p].name);
    params[p]->var.value().copy_from(materialize(p, traffic));
  }
}

std::int64_t SparseWeightStore::live_weights() const {
  std::int64_t n = 0;
  for (const auto& rec : records_) {
    n += static_cast<std::int64_t>(rec.entries.size());
  }
  return n;
}

std::int64_t SparseWeightStore::dense_weights() const {
  std::int64_t n = 0;
  for (const auto& rec : records_) n += rec.dense_numel();
  return n;
}

std::int64_t SparseWeightStore::bytes() const {
  std::ostringstream out(std::ios::binary);
  save(out);
  return static_cast<std::int64_t>(out.tellp());
}

std::int64_t SparseWeightStore::dense_bytes() const {
  return 4 * dense_weights();
}

double SparseWeightStore::compression_ratio() const {
  const std::int64_t live = live_weights();
  if (live == 0) return 0.0;
  return static_cast<double>(dense_weights()) / static_cast<double>(live);
}

void SparseWeightStore::save(std::ostream& out) const {
  util::ContainerWriter writer(kKind);
  for (const auto& rec : records_) {
    write_record(writer.add_section(rec.name), rec);
  }
  writer.write_to(out);
}

SparseWeightStore SparseWeightStore::load(std::istream& in) {
  const util::ContainerReader reader =
      util::ContainerReader::read_from(in, kKind);
  SparseWeightStore store;
  store.records_.reserve(reader.num_sections());
  for (std::size_t p = 0; p < reader.num_sections(); ++p) {
    std::istringstream section = reader.section_stream(p);
    store.records_.push_back(read_record(section, reader.section_name(p),
                                         reader.section_offset(p)));
  }
  return store;
}

void SparseWeightStore::save_file(const std::string& path) const {
  util::atomic_write_file(path, [this](std::ostream& out) { save(out); });
}

SparseWeightStore SparseWeightStore::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::IoError("SparseWeightStore: cannot open " + path);
  return load(in);
}

bool operator==(const SparseWeightStore& a, const SparseWeightStore& b) {
  if (a.records_.size() != b.records_.size()) return false;
  for (std::size_t p = 0; p < a.records_.size(); ++p) {
    const auto& ra = a.records_[p];
    const auto& rb = b.records_[p];
    if (ra.name != rb.name || ra.shape != rb.shape ||
        !(ra.init == rb.init) || ra.entries.size() != rb.entries.size()) {
      return false;
    }
    // Entry values compare by their bits, as the saved bytes do: NaN
    // equals itself, -0 differs from +0.
    for (std::size_t e = 0; e < ra.entries.size(); ++e) {
      if (ra.entries[e].first != rb.entries[e].first ||
          std::memcmp(&ra.entries[e].second, &rb.entries[e].second,
                      sizeof(float)) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace dropback::core
