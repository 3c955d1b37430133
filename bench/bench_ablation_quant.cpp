// Extension experiment (paper §5): DropBack x quantization.
//
// "Quantization is orthogonal to DropBack, and the two techniques can be
// combined." This bench trains DropBack at a fixed budget, quantizes the
// tracked weights to 8/6/4/3/2 bits, and reports accuracy after reloading
// plus the compounded storage: bytes shrink by (budget reduction) x
// (bits reduction) while untracked weights stay free (regenerated).
#include "bench_common.hpp"

#include "core/sparse_weight_store.hpp"
#include "quant/quantized_store.hpp"

int main(int argc, char** argv) {
  using namespace dropback;
  util::Flags flags(argc, argv);
  const bench::BenchScale scale = bench::BenchScale::mnist(flags);
  bench::print_scale_banner("Extension: DropBack x quantization", scale);
  auto task = bench::make_mnist_task(scale);
  const std::int64_t budget = flags.get_int("budget", 10000);

  auto model = nn::models::make_mnist_100_100(7);
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(budget);
  core::DropBackOptimizer opt(model->collect_parameters(), scale.lr, config);
  bench::run_training("DropBack", *model, opt, *task.train_set,
                      *task.val_set, scale);
  const double float_acc =
      train::Trainer::evaluate(*model, *task.val_set, 64);
  auto store = core::SparseWeightStore::from_optimizer(opt);

  util::Table table({"format", "val acc", "store bytes",
                     "vs dense f32 bytes", "max |quant err|"});
  table.add_row({"float32 sparse", util::Table::pct(float_acc),
                 std::to_string(store.bytes()),
                 util::Table::times(static_cast<double>(store.dense_bytes()) /
                                        static_cast<double>(store.bytes()),
                                    1),
                 "0"});

  for (int bits : {8, 6, 4, 3, 2}) {
    auto q = quant::QuantizedSparseStore::quantize(store, bits);
    auto eval_model = nn::models::make_mnist_100_100(4242);
    q.apply_to(eval_model->collect_parameters());
    const double acc =
        train::Trainer::evaluate(*eval_model, *task.val_set, 64);
    char label[32];
    std::snprintf(label, sizeof(label), "int%d sparse", bits);
    table.add_row({label, util::Table::pct(acc), std::to_string(q.bytes()),
                   util::Table::times(q.compression_ratio_bytes(), 1),
                   util::Table::num(q.max_abs_error(store), 4)});
  }

  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Paper shape (§5): quantization multiplies DropBack's compression —\n"
      "int8 should cost ~no accuracy; very low bit widths degrade.\n");
  return 0;
}
