#include "nn/checkpoint.hpp"

#include <fstream>
#include <sstream>

#include "tensor/serialize.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/container.hpp"
#include "util/io_error.hpp"

namespace dropback::nn {

namespace {
constexpr char kKind[] = "DBCP";

std::string param_label(std::size_t ordinal, const std::string& name) {
  return "parameter " + std::to_string(ordinal) + " ('" + name + "')";
}
}  // namespace

void save_checkpoint(std::ostream& out,
                     const std::vector<Parameter*>& params) {
  util::ContainerWriter writer(kKind);
  for (const Parameter* p : params) {
    DROPBACK_CHECK(p != nullptr, << "save_checkpoint: null parameter");
    tensor::save_tensor(writer.add_section(p->name), p->var.value());
  }
  writer.write_to(out);
  if (!out) throw util::IoError("save_checkpoint: write failed");
}

void load_checkpoint(std::istream& in,
                     const std::vector<Parameter*>& params) {
  const util::ContainerReader reader =
      util::ContainerReader::read_from(in, kKind);
  if (reader.num_sections() != params.size()) {
    throw util::IoError("load_checkpoint: parameter count mismatch "
                        "(checkpoint has " +
                        std::to_string(reader.num_sections()) +
                        ", model expects " + std::to_string(params.size()) +
                        ")");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    Parameter* p = params[i];
    if (reader.section_name(i) != p->name) {
      throw util::IoError("load_checkpoint: " + param_label(i, p->name) +
                          " at offset " +
                          std::to_string(reader.section_offset(i)) +
                          ": checkpoint has '" + reader.section_name(i) +
                          "'");
    }
    std::istringstream section = reader.section_stream(i);
    tensor::Tensor t;
    try {
      t = tensor::load_tensor(section);
    } catch (const util::IoError& e) {
      throw util::IoError("load_checkpoint: " + param_label(i, p->name) +
                          " at offset " +
                          std::to_string(reader.section_offset(i)) + ": " +
                          e.what());
    }
    if (t.shape() != p->var.value().shape()) {
      throw util::IoError("load_checkpoint: " + param_label(i, p->name) +
                          ": shape mismatch (checkpoint " +
                          tensor::shape_str(t.shape()) + ", model " +
                          tensor::shape_str(p->var.value().shape()) + ")");
    }
    p->var.value().copy_from(t);
  }
}

void save_checkpoint_file(const std::string& path,
                          const std::vector<Parameter*>& params) {
  util::atomic_write_file(
      path, [&](std::ostream& out) { save_checkpoint(out, params); });
}

void load_checkpoint_file(const std::string& path,
                          const std::vector<Parameter*>& params) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::IoError("load_checkpoint_file: cannot open " + path);
  load_checkpoint(in, params);
}

}  // namespace dropback::nn
