// Embedded deployment walkthrough: train with DropBack, export the
// compressed SparseWeightStore, then — acting as the "device" — reload it
// and run inference two ways:
//   1. materialize-and-run (dense tensors rebuilt transiently), and
//   2. the streaming RegenMlp engine, which never allocates a dense weight
//      tensor at all: every untracked weight is regenerated inside the MAC
//      loop, the paper's actual deployment model.
// Reports memory footprint and modeled energy vs a dense deployment.
//
//   ./embedded_inference [--budget=5000] [--epochs=12]
#include <cstdio>

#include "core/dropback_optimizer.hpp"
#include "core/sparse_weight_store.hpp"
#include "data/synthetic_mnist.hpp"
#include "energy/energy_model.hpp"
#include "inference/regen_forward.hpp"
#include "nn/loss.hpp"
#include "nn/models/lenet.hpp"
#include "train/trainer.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace dropback;
  util::Flags flags(argc, argv);
  const std::int64_t budget = flags.get_int("budget", 5000);

  // ---- "workstation" side: train and export -------------------------------
  data::SyntheticMnistOptions data_opt;
  data_opt.num_samples = 1000;
  auto train_set = data::make_synthetic_mnist(data_opt);
  data_opt.num_samples = 300;
  data_opt.seed = 2;
  auto val_set = data::make_synthetic_mnist(data_opt);

  auto model = nn::models::make_mnist_100_100(7);
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(budget);
  core::DropBackOptimizer optimizer(model->collect_parameters(), 0.1F,
                                    config);
  train::TrainConfig options;
  options.epochs = flags.get_int("epochs", 12);
  options.batch_size = 32;
  train::Trainer trainer(*model, optimizer, *train_set, *val_set, options);
  trainer.run();
  const double trained_acc = train::Trainer::evaluate(*model, *val_set);

  auto store = core::SparseWeightStore::from_optimizer(optimizer);
  const std::string path = flags.get_string("save", "embedded_model.dbsw");
  store.save_file(path);
  std::printf("exported %s: %lld bytes (%lld live weights + InitSpecs)\n",
              path.c_str(), static_cast<long long>(store.bytes()),
              static_cast<long long>(store.live_weights()));
  std::printf("dense float32 equivalent: %lld bytes -> %.1fx smaller\n\n",
              static_cast<long long>(store.dense_bytes()),
              static_cast<double>(store.dense_bytes()) /
                  static_cast<double>(store.bytes()));

  // ---- "device" side: reload and run regen-based inference ----------------
  auto loaded = core::SparseWeightStore::load_file(path);
  auto device_model = nn::models::make_mnist_100_100(999);  // blank weights
  energy::TrafficCounter weight_fetch;
  loaded.apply_to(device_model->collect_parameters(), &weight_fetch);
  const double device_acc = train::Trainer::evaluate(*device_model, *val_set);

  std::printf("trained accuracy : %.2f%%\n", 100.0 * trained_acc);
  std::printf("device accuracy  : %.2f%% (must match exactly)\n",
              100.0 * device_acc);
  std::printf("\nweight-fetch traffic for materializing the model:\n%s\n",
              weight_fetch.report().c_str());

  // Streaming engine: weights are regenerated one panel at a time right
  // before the GEMM that consumes them; the only weight storage the engine
  // holds is the tracked entries themselves.
  inference::RegenMlp engine(loaded);
  energy::TrafficCounter streaming_traffic;
  std::int64_t correct = 0, seen = 0;
  for (std::int64_t first = 0; first < val_set->size(); first += 64) {
    const std::int64_t count = std::min<std::int64_t>(64, val_set->size() - first);
    data::Batch batch = val_set->slice(first, count);
    const tensor::Tensor logits =
        engine.forward(batch.images, &streaming_traffic);
    correct += static_cast<std::int64_t>(
        nn::accuracy(logits, batch.labels) * static_cast<double>(count) +
        0.5);
    seen += count;
  }
  const double streaming_acc =
      static_cast<double>(correct) / static_cast<double>(seen);
  std::printf("\nstreaming RegenMlp accuracy: %.2f%% over %lld samples\n",
              100.0 * streaming_acc, static_cast<long long>(seen));
  std::printf("streaming engine weight storage: %lld floats (dense model: "
              "%lld)\n",
              static_cast<long long>(engine.live_floats()),
              static_cast<long long>(engine.dense_floats()));
  std::printf("streaming weight traffic across the whole val set:\n%s\n",
              streaming_traffic.report().c_str());
  std::printf(
      "\nEvery untracked weight was recomputed from (seed, index) — %llu\n"
      "regens replaced what would have been DRAM reads in a dense model.\n",
      static_cast<unsigned long long>(weight_fetch.regens));
  return device_acc == trained_acc ? 0 : 1;
}
