#include "tensor/serialize.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/io_error.hpp"

namespace dropback::tensor {

namespace {
constexpr char kMagic[4] = {'D', 'B', 'T', '1'};
/// Largest payload piece read (and allocated) ahead of the bytes seen so far.
constexpr std::size_t kChunkFloats = std::size_t{1} << 18;  // 1 MiB

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw util::IoError("load_tensor: truncated stream");
  return v;
}
}  // namespace

void save_tensor(std::ostream& out, const Tensor& t) {
  DROPBACK_CHECK(t.defined(), << "save_tensor: undefined tensor");
  out.write(kMagic, sizeof(kMagic));
  write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(t.ndim()));
  for (std::int64_t d : t.shape()) write_pod<std::int64_t>(out, d);
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
  if (!out) throw util::IoError("save_tensor: write failed");
}

Tensor load_tensor(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw util::IoError("load_tensor: bad magic");
  }
  const auto ndim = read_pod<std::uint32_t>(in);
  if (ndim > 8) throw util::IoError("load_tensor: implausible rank");
  Shape shape(ndim);
  for (auto& d : shape) d = read_pod<std::int64_t>(in);
  std::int64_t numel = 0;
  if (!checked_numel(shape, &numel)) {
    throw util::IoError("load_tensor: invalid shape " + shape_str(shape) +
                        " (negative dimension or element count overflow)");
  }
  // The payload is read in bounded chunks, so memory grows only with bytes
  // the stream really holds: a header that claims more fails as truncated
  // instead of allocating the claimed size up front.
  const auto total = static_cast<std::size_t>(numel);
  std::vector<float> values;
  while (values.size() < total) {
    const std::size_t have = values.size();
    const std::size_t chunk = std::min(total - have, kChunkFloats);
    values.resize(have + chunk);
    in.read(reinterpret_cast<char*>(values.data() + have),
            static_cast<std::streamsize>(chunk * sizeof(float)));
    if (!in) {
      throw util::IoError(
          "load_tensor: truncated payload (need " +
          std::to_string(total * sizeof(float)) + " bytes, have " +
          std::to_string(have * sizeof(float) +
                         static_cast<std::size_t>(in.gcount())) +
          ")");
    }
  }
  return Tensor::from_vector(std::move(shape), values);
}

void save_tensor_file(const std::string& path, const Tensor& t) {
  util::atomic_write_file(path,
                          [&](std::ostream& out) { save_tensor(out, t); });
}

Tensor load_tensor_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::IoError("load_tensor_file: cannot open " + path);
  return load_tensor(in);
}

}  // namespace dropback::tensor
