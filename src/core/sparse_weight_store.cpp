#include "core/sparse_weight_store.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/container.hpp"
#include "util/io_error.hpp"

namespace dropback::core {

namespace {
// Container payload kind of the checksummed store format.
constexpr char kKind[] = "DBSW";
/// Most entries reserved from a header count before any of them is read.
constexpr std::uint64_t kMaxReserve = 1 << 16;

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw util::IoError("SparseWeightStore: truncated stream");
  return v;
}

void write_record(std::ostream& out, const SparseParamRecord& rec) {
  write_pod<std::uint16_t>(out, static_cast<std::uint16_t>(rec.name.size()));
  out.write(rec.name.data(), static_cast<std::streamsize>(rec.name.size()));
  write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(rec.shape.size()));
  for (std::int64_t d : rec.shape) write_pod<std::int64_t>(out, d);
  write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(rec.init.kind()));
  write_pod<float>(out, rec.init.scale());
  write_pod<std::uint64_t>(out, rec.init.seed());
  write_pod<std::uint64_t>(out, rec.entries.size());
  for (const auto& [idx, val] : rec.entries) {
    write_pod<std::uint32_t>(out, idx);
    write_pod<float>(out, val);
  }
}

SparseParamRecord read_record(std::istream& in) {
  SparseParamRecord rec;
  const auto name_len = read_pod<std::uint16_t>(in);
  rec.name.resize(name_len);
  in.read(rec.name.data(), name_len);
  if (!in) throw util::IoError("SparseWeightStore: truncated record name");
  const auto ndim = read_pod<std::uint8_t>(in);
  rec.shape.resize(ndim);
  for (auto& d : rec.shape) d = read_pod<std::int64_t>(in);
  std::int64_t dense = 0;
  if (!tensor::checked_numel(rec.shape, &dense)) {
    throw util::IoError("SparseWeightStore: record '" + rec.name +
                        "': invalid shape " + tensor::shape_str(rec.shape) +
                        " (negative dimension or element count overflow)");
  }
  const auto kind = read_pod<std::uint8_t>(in);
  const auto scale = read_pod<float>(in);
  const auto seed = read_pod<std::uint64_t>(in);
  rec.init =
      kind == static_cast<std::uint8_t>(rng::InitSpec::Kind::kScaledNormal)
          ? rng::InitSpec::scaled_normal(scale, seed)
          : rng::InitSpec::constant(scale);
  const auto n_entries = read_pod<std::uint64_t>(in);
  if (n_entries > static_cast<std::uint64_t>(dense)) {
    throw util::IoError("SparseWeightStore: record '" + rec.name +
                        "': more entries (" + std::to_string(n_entries) +
                        ") than dense elements (" + std::to_string(dense) +
                        ")");
  }
  // n_entries is only bounded by the shape: reserve a bounded head start and
  // let the vector grow with the entries the stream actually holds.
  rec.entries.reserve(std::min<std::uint64_t>(n_entries, kMaxReserve));
  std::int64_t prev = -1;
  for (std::uint64_t i = 0; i < n_entries; ++i) {
    const auto idx = read_pod<std::uint32_t>(in);
    const auto val = read_pod<float>(in);
    if (static_cast<std::int64_t>(idx) >= dense) {
      throw util::IoError("SparseWeightStore: record '" + rec.name +
                          "': entry index " + std::to_string(idx) +
                          " out of range " + std::to_string(dense));
    }
    if (static_cast<std::int64_t>(idx) <= prev) {
      throw util::IoError("SparseWeightStore: record '" + rec.name +
                          "': entries not strictly sorted at index " +
                          std::to_string(idx));
    }
    prev = static_cast<std::int64_t>(idx);
    rec.entries.emplace_back(idx, val);
  }
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
  std::int64_t total = util::ContainerWriter::header_bytes();
  for (const auto& rec : records_) {
    // One checksummed section per record, named after the parameter.
    total += util::ContainerWriter::section_overhead_bytes(rec.name.size());
    total += 2 + static_cast<std::int64_t>(rec.name.size());   // name
    total += 1 + 8 * static_cast<std::int64_t>(rec.shape.size());  // shape
    total += static_cast<std::int64_t>(rng::InitSpec::persisted_bytes());
    total += 8;                                                 // entry count
    total += 8 * static_cast<std::int64_t>(rec.entries.size());  // idx+val
  }
  return total;
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
  if (!out) throw util::IoError("SparseWeightStore: write failed");
}

SparseWeightStore SparseWeightStore::load(std::istream& in) {
  const util::ContainerReader reader =
      util::ContainerReader::read_from(in, kKind);
  SparseWeightStore store;
  store.records_.reserve(reader.num_sections());
  for (std::size_t p = 0; p < reader.num_sections(); ++p) {
    std::istringstream section = reader.section_stream(p);
    SparseParamRecord rec = read_record(section);
    if (rec.name != reader.section_name(p)) {
      throw util::IoError("SparseWeightStore: section '" +
                          reader.section_name(p) + "' at offset " +
                          std::to_string(reader.section_offset(p)) +
                          " holds record named '" + rec.name + "'");
    }
    const auto consumed = static_cast<std::size_t>(section.tellg());
    if (consumed != reader.section_bytes(p).size()) {
      throw util::IoError("SparseWeightStore: record '" + rec.name + "': " +
                          std::to_string(reader.section_bytes(p).size() -
                                         consumed) +
                          " trailing bytes after entries");
    }
    store.records_.push_back(std::move(rec));
  }
  return store;
}

void SparseWeightStore::save_file(const std::string& path) const {
  util::atomic_write_file(path, [this](std::ostream& out) { save(out); });
}

SparseWeightStore SparseWeightStore::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::IoError("SparseWeightStore: cannot open " + path);
  SparseWeightStore store = load(in);
  if (in.peek() != std::char_traits<char>::eof()) {
    throw util::IoError("SparseWeightStore: trailing bytes after store "
                        "payload in " +
                        path);
  }
  return store;
}

bool operator==(const SparseWeightStore& a, const SparseWeightStore& b) {
  if (a.records_.size() != b.records_.size()) return false;
  for (std::size_t p = 0; p < a.records_.size(); ++p) {
    const auto& ra = a.records_[p];
    const auto& rb = b.records_[p];
    if (ra.name != rb.name || ra.shape != rb.shape ||
        !(ra.init == rb.init) || ra.entries != rb.entries) {
      return false;
    }
  }
  return true;
}

}  // namespace dropback::core
