// store_tool — inspect and transform compressed DropBack models (.dbsw).
//
//   ./store_tool info model.dbsw           # per-layer summary + totals
//   ./store_tool verify model.dbsw         # structural validation
//   ./store_tool quantize model.dbsw out.dbqs --bits=8
//   ./store_tool diff a.dbsw b.dbsw        # compare two stores
#include <cmath>
#include <cstdio>
#include <string>

#include "core/sparse_weight_store.hpp"
#include "quant/quantized_store.hpp"
#include "util/atomic_file.hpp"
#include "util/flags.hpp"
#include "util/io_error.hpp"
#include "util/table.hpp"

namespace {

using namespace dropback;

int cmd_info(const std::string& path) {
  const auto store = core::SparseWeightStore::load_file(path);
  util::Table table({"parameter", "shape", "dense", "tracked", "layer x",
                     "init"});
  for (std::size_t p = 0; p < store.num_params(); ++p) {
    const auto& rec = store.record(p);
    const auto dense = rec.dense_numel();
    const auto tracked = static_cast<std::int64_t>(rec.entries.size());
    table.add_row({rec.name, tensor::shape_str(rec.shape),
                   std::to_string(dense), std::to_string(tracked),
                   tracked > 0 ? util::Table::times(
                                     static_cast<double>(dense) / tracked, 1)
                               : "inf",
                   rec.init.describe()});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "totals: %lld tracked of %lld dense (%.2fx weights), %lld bytes vs "
      "%lld dense bytes (%.2fx storage)\n",
      static_cast<long long>(store.live_weights()),
      static_cast<long long>(store.dense_weights()),
      store.compression_ratio(), static_cast<long long>(store.bytes()),
      static_cast<long long>(store.dense_bytes()),
      static_cast<double>(store.dense_bytes()) /
          static_cast<double>(store.bytes()));
  return 0;
}

int cmd_verify(const std::string& path) {
  const auto store = core::SparseWeightStore::load_file(path);
  int problems = 0;
  for (std::size_t p = 0; p < store.num_params(); ++p) {
    const auto& rec = store.record(p);
    const std::int64_t dense = rec.dense_numel();
    std::int64_t prev = -1;
    for (const auto& [idx, val] : rec.entries) {
      if (static_cast<std::int64_t>(idx) >= dense) {
        std::printf("FAIL %s: entry index %u out of range %lld\n",
                    rec.name.c_str(), idx, static_cast<long long>(dense));
        ++problems;
      }
      if (static_cast<std::int64_t>(idx) <= prev) {
        std::printf("FAIL %s: entries not strictly sorted at %u\n",
                    rec.name.c_str(), idx);
        ++problems;
      }
      if (!std::isfinite(val)) {
        std::printf("FAIL %s: non-finite value at %u\n", rec.name.c_str(),
                    idx);
        ++problems;
      }
      prev = idx;
    }
    // Materialization must succeed and be finite.
    const auto dense_tensor = store.materialize(p);
    for (std::int64_t i = 0; i < dense_tensor.numel(); ++i) {
      if (!std::isfinite(dense_tensor[i])) {
        std::printf("FAIL %s: non-finite regenerated value at %lld\n",
                    rec.name.c_str(), static_cast<long long>(i));
        ++problems;
        break;
      }
    }
  }
  if (problems == 0) {
    std::printf("OK: %zu parameters, %lld tracked weights, all invariants "
                "hold\n",
                store.num_params(),
                static_cast<long long>(store.live_weights()));
  }
  return problems == 0 ? 0 : 1;
}

int cmd_quantize(const std::string& in_path, const std::string& out_path,
                 int bits) {
  const auto store = core::SparseWeightStore::load_file(in_path);
  const auto q = quant::QuantizedSparseStore::quantize(store, bits);
  try {
    util::atomic_write_file(out_path,
                            [&](std::ostream& out) { q.save(out); });
  } catch (const util::IoError& e) {
    std::printf("cannot write %s: %s\n", out_path.c_str(), e.what());
    return 1;
  }
  std::printf(
      "quantized to int%d: %lld -> %lld bytes (%.2fx vs dense f32), max "
      "|err| %.5f\n",
      bits, static_cast<long long>(store.bytes()),
      static_cast<long long>(q.bytes()), q.compression_ratio_bytes(),
      q.max_abs_error(store));
  return 0;
}

int cmd_diff(const std::string& a_path, const std::string& b_path) {
  const auto a = core::SparseWeightStore::load_file(a_path);
  const auto b = core::SparseWeightStore::load_file(b_path);
  if (a == b) {
    std::printf("identical\n");
    return 0;
  }
  if (a.num_params() != b.num_params()) {
    std::printf("different parameter counts: %zu vs %zu\n", a.num_params(),
                b.num_params());
    return 1;
  }
  for (std::size_t p = 0; p < a.num_params(); ++p) {
    const auto& ra = a.record(p);
    const auto& rb = b.record(p);
    if (ra.shape != rb.shape) {
      std::printf("%s: shape %s vs %s\n", ra.name.c_str(),
                  tensor::shape_str(ra.shape).c_str(),
                  tensor::shape_str(rb.shape).c_str());
      continue;
    }
    if (!(ra.init == rb.init)) {
      std::printf("%s: init %s vs %s\n", ra.name.c_str(),
                  ra.init.describe().c_str(), rb.init.describe().c_str());
    }
    if (ra.entries.size() != rb.entries.size()) {
      std::printf("%s: %zu vs %zu tracked entries\n", ra.name.c_str(),
                  ra.entries.size(), rb.entries.size());
    } else if (ra.entries != rb.entries) {
      std::size_t diffs = 0;
      for (std::size_t e = 0; e < ra.entries.size(); ++e) {
        if (ra.entries[e] != rb.entries[e]) ++diffs;
      }
      std::printf("%s: %zu differing entries of %zu\n", ra.name.c_str(),
                  diffs, ra.entries.size());
    }
  }
  return 1;
}

void usage() {
  std::printf(
      "usage:\n"
      "  store_tool info <model.dbsw>\n"
      "  store_tool verify <model.dbsw>\n"
      "  store_tool quantize <in.dbsw> <out.dbqs> [--bits=8]\n"
      "  store_tool diff <a.dbsw> <b.dbsw>\n");
}

}  // namespace

int main(int argc, char** argv) {
  dropback::util::Flags flags(argc, argv);
  const auto& args = flags.positional();
  try {
    if (args.size() == 2 && args[0] == "info") return cmd_info(args[1]);
    if (args.size() == 2 && args[0] == "verify") return cmd_verify(args[1]);
    if (args.size() == 3 && args[0] == "quantize") {
      return cmd_quantize(args[1], args[2],
                          static_cast<int>(flags.get_int("bits", 8)));
    }
    if (args.size() == 3 && args[0] == "diff") {
      return cmd_diff(args[1], args[2]);
    }
  } catch (const dropback::util::IoError& e) {
    std::printf("corrupt or unreadable store: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
