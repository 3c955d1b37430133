#include "tensor/serialize.hpp"

namespace dropback::tensor {

namespace {
constexpr std::string_view kMagic = "DBT1";
}  // namespace

void save_tensor(std::ostream& out, const Tensor& t) {
  DROPBACK_CHECK(t.defined(), << "save_tensor: undefined tensor");
  util::ByteWriter w(out, "save_tensor");
  w.raw(kMagic);
  write_shape<std::uint32_t>(w, t.shape());
  w.raw(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  w.finish();
}

Tensor load_tensor(std::istream& in) {
  util::ByteReader r(in, "load_tensor");
  r.expect_magic(kMagic);
  std::int64_t numel = 0;
  Shape shape = read_shape<std::uint32_t>(r, &numel);
  r.count(static_cast<std::uint64_t>(numel), sizeof(float), "payload");
  Tensor t(std::move(shape));
  r.raw(t.data(), static_cast<std::size_t>(numel) * sizeof(float));
  r.expect_end();
  return t;
}

}  // namespace dropback::tensor
