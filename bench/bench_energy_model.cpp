// Reproduces the paper's §1/§2.1 energy claims:
//   * a 32-bit DRAM access costs >700x a 32-bit FLOP (640 pJ vs 0.9 pJ);
//   * regenerating an init value by xorshift (~6 int + 1 float ops, ~1.5 pJ)
//     is ~427x cheaper than fetching it from DRAM;
// and measures the modeled weight-traffic energy of a DropBack training run
// vs its dense equivalent, plus regen-based inference from a
// SparseWeightStore.
#include "bench_common.hpp"

#include <chrono>

#include "core/sparse_weight_store.hpp"
#include "energy/energy_model.hpp"

int main(int argc, char** argv) {
  using namespace dropback;
  util::Flags flags(argc, argv);
  bench::BenchScale scale = bench::BenchScale::mnist(flags);
  scale.epochs = flags.get_int("epochs", util::Flags::full_scale() ? 20 : 4);
  bench::print_scale_banner("Energy model: paper ratio + traffic accounting",
                            scale);

  energy::EnergyConstants constants;
  std::printf("model constants (45nm, Han et al. 2016):\n");
  std::printf("  DRAM access      : %.1f pJ\n", constants.dram_access_pj);
  std::printf("  32-bit float op  : %.1f pJ\n", constants.float_op_pj);
  std::printf("  xorshift regen   : %.2f pJ (6 int + 1 float ops)\n",
              constants.regen_pj());
  std::printf("  DRAM / FLOP      : %.0fx   (paper: \"over 700x\")\n",
              constants.dram_vs_flop());
  std::printf("  DRAM / regen     : %.0fx   (paper: \"427x less energy\")\n\n",
              constants.dram_vs_regen());

  // Wall-clock throughput of the regen path (evidence it is compute-cheap).
  {
    const std::int64_t n = 20'000'000;
    volatile float sink = 0.0F;
    const auto start = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < n; ++i) {
      sink = sink + rng::indexed_normal_fast(42, static_cast<std::uint64_t>(i));
    }
    const auto elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    std::printf("regen throughput: %.0f M values/s (%.2f ns/value)\n\n",
                n / elapsed / 1e6, elapsed / n * 1e9);
  }

  // Training-time weight traffic: DropBack 20k vs the dense equivalent.
  auto task = bench::make_mnist_task(scale);
  auto model = nn::models::make_mnist_100_100(7);
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(flags.get_int("budget", 20000));
  core::DropBackOptimizer opt(model->collect_parameters(), scale.lr, config);
  energy::TrafficCounter training_traffic;
  opt.set_traffic_counter(&training_traffic);
  bench::run_training("DropBack", *model, opt, *task.train_set,
                      *task.val_set, scale);
  std::printf("training weight traffic (DropBack %s, %lld epochs):\n",
              util::Table::count(config.schedule->base_budget()).c_str(),
              static_cast<long long>(scale.epochs));
  std::printf("%s\n\n", training_traffic.report(constants).c_str());

  // Inference-time traffic: materialize the compressed model.
  auto store = core::SparseWeightStore::from_optimizer(opt);
  energy::TrafficCounter inference_traffic;
  for (std::size_t p = 0; p < store.num_params(); ++p) {
    store.materialize(p, &inference_traffic);
  }
  std::printf("per-inference weight traffic (regenerative weight fetch):\n");
  std::printf("%s\n\n", inference_traffic.report(constants).c_str());
  std::printf(
      "compressed model: %lld live weights of %lld (%.2fx compression), "
      "%lld bytes vs %lld dense\n",
      static_cast<long long>(store.live_weights()),
      static_cast<long long>(store.dense_weights()),
      store.compression_ratio(), static_cast<long long>(store.bytes()),
      static_cast<long long>(store.dense_bytes()));
  return 0;
}
