// Operator's walkthrough for the inference server (docs/SERVING.md):
// prepare a directory of DropBack variant stores, serve queries against
// them, and deliberately damage one to watch the degradation ladder
// (retry -> quarantine -> fallback) engage instead of a crash.
//
//   ./serve_tool prepare --dir=variants [--variants=3] [--epochs=2]
//                        [--budget=2000]
//       trains a small DropBack model on synthetic MNIST, exports it as
//       fallback.dbsw, then continues training one epoch per variant and
//       exports v0.dbsw .. v{N-1}.dbsw — checkpoints-as-variants, the
//       deployment shape the tiny DBSW footprint makes practical.
//
//   ./serve_tool query --dir=variants [--model=v0] [--requests=32]
//                      [--threads=2] [--deadline-ms=50]
//       starts an InferenceServer over the directory, submits requests,
//       prints per-outcome counts, and cross-checks served outputs
//       bitwise against a direct RegenMlp forward on the same store.
//
//   ./serve_tool corrupt --dir=variants --model=v1 [--truncate]
//                        [--flip=<byte offset>]
//       damages a variant file in place (default: flip one payload byte,
//       which the DBSW section checksum catches). Re-run `query` against
//       it to see quarantine + fallback and the serve.* counters move.
//
// Fault injection also works from the environment, no corrupt step needed:
//   DROPBACK_FAULT=rerr:0 ./serve_tool query --dir=variants
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dropback_optimizer.hpp"
#include "core/sparse_weight_store.hpp"
#include "data/synthetic_mnist.hpp"
#include "inference/regen_forward.hpp"
#include "nn/models/lenet.hpp"
#include "serve/server.hpp"
#include "train/trainer.hpp"
#include "util/atomic_file.hpp"
#include "util/flags.hpp"
#include "util/io_error.hpp"

namespace {

using namespace dropback;

int cmd_prepare(const util::Flags& flags) {
  const std::string dir = flags.get_string("dir", "variants");
  const long long variants = flags.get_int("variants", 3);
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "serve_tool: cannot create %s\n", dir.c_str());
    return 1;
  }

  data::SyntheticMnistOptions data_opt;
  data_opt.num_samples = 1000;
  auto train_set = data::make_synthetic_mnist(data_opt);
  data_opt.num_samples = 200;
  data_opt.seed = 2;
  auto val_set = data::make_synthetic_mnist(data_opt);

  auto model = nn::models::make_mnist_100_100(7);
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(flags.get_int("budget", 2000));
  core::DropBackOptimizer optimizer(model->collect_parameters(), 0.1F,
                                    config);
  train::TrainConfig options;
  options.epochs = flags.get_int("epochs", 2);
  options.batch_size = 32;
  train::Trainer(*model, optimizer, *train_set, *val_set, options).run();

  auto export_store = [&](const std::string& name) {
    auto store = core::SparseWeightStore::from_optimizer(optimizer);
    const std::string path = dir + "/" + name + ".dbsw";
    store.save_file(path);
    std::printf("  %-12s %6lld bytes  (%lld tracked weights)\n",
                path.c_str(), static_cast<long long>(store.bytes()),
                static_cast<long long>(store.live_weights()));
  };
  std::printf("exported variants under %s/:\n", dir.c_str());
  export_store("fallback");
  // Each additional epoch of training becomes its own serveable variant.
  train::TrainConfig continue_opt;
  continue_opt.epochs = 1;
  continue_opt.batch_size = 32;
  for (long long v = 0; v < variants; ++v) {
    train::Trainer(*model, optimizer, *train_set, *val_set, continue_opt)
        .run();
    export_store("v" + std::to_string(v));
  }
  std::printf("\nnext: ./serve_tool query --dir=%s --model=v0\n",
              dir.c_str());
  return 0;
}

int cmd_query(const util::Flags& flags) {
  const std::string dir = flags.get_string("dir", "variants");
  const std::string model_id = flags.get_string("model", "v0");
  const long long requests = flags.get_int("requests", 32);

  serve::ServerConfig config;
  config.threads = static_cast<int>(flags.get_int("threads", 2));
  config.cache.dir = dir;
  config.cache.fallback_model = "fallback";
  config.default_deadline_us = flags.get_int("deadline-ms", 50) * 1000;

  data::SyntheticMnistOptions data_opt;
  data_opt.num_samples = requests;
  data_opt.seed = 11;
  auto queries = data::make_synthetic_mnist(data_opt);

  std::vector<std::shared_ptr<serve::ResponseSlot>> slots;
  {
    serve::InferenceServer server(config);
    for (long long i = 0; i < requests; ++i) {
      slots.push_back(
          server.submit(model_id, queries->slice(i, 1).images));
    }
    for (const auto& slot : slots) slot->wait_us(10'000'000);
    // Destructor == stop(): joins workers, resolves any stragglers, and
    // emits the serve_summary event if an event stream is configured.
  }

  // Tally outcomes and cross-check kOk outputs bitwise against a direct
  // RegenMlp forward — serving adds scheduling, never numerics.
  std::map<std::string, int> by_outcome;
  long long mismatches = 0;
  core::SparseWeightStore reference_store;  // must outlive the engine
  std::unique_ptr<inference::RegenMlp> reference;
  try {
    reference_store =
        core::SparseWeightStore::load_file(dir + "/" + model_id + ".dbsw");
    reference = std::make_unique<inference::RegenMlp>(reference_store);
  } catch (const util::IoError&) {
    // Primary unreadable (e.g. after `corrupt`): skip the bitwise check;
    // the point of that run is watching fallback/quarantine outcomes.
  }
  for (long long i = 0; i < requests; ++i) {
    const auto& slot = *slots[i];
    std::string label = serve::outcome_name(slot.outcome());
    if (slot.degraded()) label += " (degraded, via " + slot.served_model() + ")";
    ++by_outcome[label];
    if (slot.outcome() != serve::Outcome::kOk || slot.degraded() ||
        !reference) {
      continue;
    }
    const tensor::Tensor expect =
        reference->forward(queries->slice(i, 1).images);
    const tensor::Tensor& got = slot.output();
    for (std::int64_t k = 0; k < expect.numel(); ++k) {
      if (got[k] != expect[k]) {
        ++mismatches;
        break;
      }
    }
  }

  std::printf("served %lld requests for '%s' (%d threads):\n", requests,
              model_id.c_str(), config.threads);
  for (const auto& [name, count] : by_outcome) {
    std::printf("  %-24s %d\n", name.c_str(), count);
  }
  if (reference) {
    std::printf("bitwise check vs direct RegenMlp: %s\n",
                mismatches == 0 ? "identical" : "MISMATCH");
  }
  std::printf("\nmetrics: %s\n",
              obs::MetricsRegistry::global().snapshot_json().c_str());
  return mismatches == 0 ? 0 : 1;
}

int cmd_corrupt(const util::Flags& flags) {
  const std::string dir = flags.get_string("dir", "variants");
  const std::string model_id = flags.get_string("model", "v0");
  const std::string path = dir + "/" + model_id + ".dbsw";
  std::string bytes;
  try {
    bytes = util::read_file(path);
  } catch (const util::IoError& e) {
    std::fprintf(stderr, "serve_tool: %s\n", e.what());
    return 1;
  }
  if (flags.get_bool("truncate", false)) {
    bytes.resize(bytes.size() / 2);
    std::printf("truncated %s to %zu bytes\n", path.c_str(), bytes.size());
  } else {
    const auto offset = static_cast<std::size_t>(flags.get_int(
        "flip", static_cast<long long>(bytes.size()) / 2));
    if (offset >= bytes.size()) {
      std::fprintf(stderr, "serve_tool: --flip=%zu out of range (%zu)\n",
                   offset, bytes.size());
      return 1;
    }
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0xFF);
    std::printf("flipped byte %zu of %s\n", offset, path.c_str());
  }
  util::atomic_write_file(path,
                          [&](std::ostream& out) { out << bytes; });
  std::printf("re-run `query --model=%s` to watch quarantine + fallback\n",
              model_id.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  dropback::util::Flags flags(argc, argv);
  const auto& positional = flags.positional();
  const std::string command = positional.empty() ? "" : positional.front();
  if (command == "prepare") return cmd_prepare(flags);
  if (command == "query") return cmd_query(flags);
  if (command == "corrupt") return cmd_corrupt(flags);
  std::fprintf(stderr,
               "usage: serve_tool prepare|query|corrupt [--dir=variants] "
               "[--model=v0] ...\n(see the header comment for the full "
               "flag list)\n");
  return 2;
}
