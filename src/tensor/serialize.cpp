#include "tensor/serialize.hpp"

#include <cstring>
#include <fstream>

#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/io_error.hpp"

namespace dropback::tensor {

namespace {
constexpr char kMagic[4] = {'D', 'B', 'T', '1'};

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
  Tensor t(shape);
  in.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.numel() * sizeof(float)));
  if (!in) {
    throw util::IoError("load_tensor: truncated payload (need " +
                        std::to_string(t.numel() * sizeof(float)) +
                        " bytes, have " + std::to_string(in.gcount()) + ")");
  }
  return t;
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
