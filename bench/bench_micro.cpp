// Micro-benchmarks (google-benchmark) for the performance-critical kernels:
// xorshift regeneration, InitSpec fill, global top-k selection (both
// strategies), matmul, conv2d, the full DropBack step, and sparse-store
// materialization. These back the ablation discussion in DESIGN.md: the
// top-k selection must stay cheap relative to the backward pass, and regen
// must be orders of magnitude faster than a memory-bound weight load.
//
// Threading: `--threads N` (or DROPBACK_THREADS) sizes the kernel thread
// pool for the google-benchmark section, `--threads 1` reproduces the
// fully serial numbers. `--speedup` first runs a serial-vs-threaded
// comparison over matmul, conv2d, top-k select, and batch-parallel data
// loading (plus the cost of an empty pool dispatch at 2 and 4 threads),
// emitting two JSONL records per config — the serial baseline and the
// threaded run — in the kernel-timing schema shared with the profiler dump
// ({"name","calls","total_us","threads"}; util::kernel_timing_json), plus a
// '#' comment line with the derived speedup, to join against --profile
// output. It is a local tool: the tracked step and kernel numbers, with
// the host they ran on, come from perfbench (perfbench/README.md). The kernel
// outputs are bitwise identical by construction (see
// tests/parallel_equivalence_test), so the comparison is purely wall-clock.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "autograd/ops.hpp"
#include "bench_common.hpp"
#include "core/dropback_optimizer.hpp"
#include "core/sparse_weight_store.hpp"
#include "data/dataloader.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/linear.hpp"
#include "nn/models/lenet.hpp"
#include "nn/sequential.hpp"
#include "rng/init_spec.hpp"
#include "rng/xorshift.hpp"
#include "simd/dispatch.hpp"
#include "tensor/conv.hpp"
#include "tensor/matmul.hpp"
#include "util/flags.hpp"
#include "util/steady_clock.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dropback;

void BM_XorshiftNext(benchmark::State& state) {
  rng::Xorshift128 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u32());
  }
}
BENCHMARK(BM_XorshiftNext);

void BM_IndexedRegenNormal(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::indexed_normal_fast(42, i++));
  }
}
BENCHMARK(BM_IndexedRegenNormal);

void BM_InitSpecFill(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<float> buf(n);
  const auto spec = rng::InitSpec::lecun(784, 7);
  for (auto _ : state) {
    spec.fill(buf.data(), n);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_InitSpecFill)->Arg(1024)->Arg(65536)->Arg(1048576);

void BM_TopKSelection(benchmark::State& state) {
  const auto n = state.range(0);
  const auto k = state.range(1);
  nn::Sequential net;
  // A single linear layer with ~n weights.
  const std::int64_t side = std::max<std::int64_t>(
      2, static_cast<std::int64_t>(std::sqrt(static_cast<double>(n))));
  net.emplace<nn::Linear>(side, side, 1);
  core::ParamIndex index(net.collect_parameters());
  core::TrackedSet set(index);
  rng::Xorshift128 rng(1);
  std::vector<float> scores(static_cast<std::size_t>(index.total()));
  for (auto& s : scores) s = rng.uniform();
  for (auto _ : state) {
    set.select(scores, std::min<std::int64_t>(k, index.total() - 1));
    benchmark::DoNotOptimize(set.tracked_count());
  }
}
BENCHMARK(BM_TopKSelection)->Args({10000, 1000})->Args({250000, 20000});

void BM_Matmul(benchmark::State& state) {
  const auto n = state.range(0);
  rng::Xorshift128 rng(1);
  tensor::Tensor a({n, n}), b({n, n});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    a[i] = rng.uniform(-1, 1);
    b[i] = rng.uniform(-1, 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(128);

void BM_MatmulThreaded(benchmark::State& state) {
  // Args: {matrix side, pool threads}. Resizes the global pool for the run;
  // the pool is restored to serial afterwards so other benches are
  // unaffected.
  const auto n = state.range(0);
  util::set_num_threads(static_cast<int>(state.range(1)));
  rng::Xorshift128 rng(1);
  tensor::Tensor a({n, n}), b({n, n});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    a[i] = rng.uniform(-1, 1);
    b[i] = rng.uniform(-1, 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n);
  util::set_num_threads(1);
}
BENCHMARK(BM_MatmulThreaded)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({512, 1})
    ->Args({512, 4});

void BM_Conv2d(benchmark::State& state) {
  rng::Xorshift128 rng(1);
  tensor::Tensor x({8, 8, 16, 16}), w({16, 8, 3, 3}), b({16});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.uniform(-1, 1);
  tensor::Conv2dSpec spec{3, 3, 1, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::conv2d(x, w, b, spec).data());
  }
}
BENCHMARK(BM_Conv2d);

void BM_Conv2dThreaded(benchmark::State& state) {
  // Arg: pool threads, on a CIFAR-sized convolution.
  util::set_num_threads(static_cast<int>(state.range(0)));
  rng::Xorshift128 rng(1);
  tensor::Tensor x({16, 16, 32, 32}), w({32, 16, 3, 3}), b({32});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.uniform(-1, 1);
  tensor::Conv2dSpec spec{3, 3, 1, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::conv2d(x, w, b, spec).data());
  }
  util::set_num_threads(1);
}
BENCHMARK(BM_Conv2dThreaded)->Arg(1)->Arg(2)->Arg(4);

void BM_TopKSelectionThreaded(benchmark::State& state) {
  // Args: {pool threads}; large tie-free score vector. select() is serial,
  // so the thread count should not move the time. The scores never change
  // between iterations, so after the first one every select() takes the
  // warm band path: lambda_prev is exact and the band is its ties alone.
  util::set_num_threads(static_cast<int>(state.range(0)));
  nn::Sequential net;
  net.emplace<nn::Linear>(1000, 1000, 1);
  core::ParamIndex index(net.collect_parameters());
  core::TrackedSet set(index);
  rng::Xorshift128 rng(1);
  std::vector<float> scores(static_cast<std::size_t>(index.total()));
  for (auto& s : scores) s = rng.uniform();
  for (auto _ : state) {
    set.select(scores, 50000);
    benchmark::DoNotOptimize(set.tracked_count());
  }
  util::set_num_threads(1);
}
BENCHMARK(BM_TopKSelectionThreaded)->Arg(1)->Arg(2)->Arg(4);

void BM_DropBackStep(benchmark::State& state) {
  auto model = nn::models::make_mnist_100_100(7);
  auto params = model->collect_parameters();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(state.range(0));
  core::DropBackOptimizer opt(params, 0.1F, config);
  // Synthetic gradients (constant across iterations; selection cost is what
  // we measure).
  rng::Xorshift128 rng(2);
  for (auto* p : params) {
    float* g = p->var.grad().data();
    for (std::int64_t i = 0; i < p->numel(); ++i) g[i] = rng.uniform(-1, 1);
  }
  for (auto _ : state) {
    opt.step();
    benchmark::DoNotOptimize(opt.live_weights());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          89610);
}
BENCHMARK(BM_DropBackStep)->Arg(2000)->Arg(20000);

void BM_SgdStepSameModel(benchmark::State& state) {
  // Reference cost: plain SGD on the same 89.6k parameters, to show the
  // overhead factor of DropBack's selection + regeneration.
  auto model = nn::models::make_mnist_100_100(7);
  auto params = model->collect_parameters();
  optim::SGD opt(params, 0.1F);
  rng::Xorshift128 rng(2);
  for (auto* p : params) {
    float* g = p->var.grad().data();
    for (std::int64_t i = 0; i < p->numel(); ++i) g[i] = rng.uniform(-1, 1);
  }
  for (auto _ : state) {
    opt.step();
    benchmark::DoNotOptimize(params[0]->var.value()[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          89610);
}
BENCHMARK(BM_SgdStepSameModel);

void BM_SparseStoreMaterialize(benchmark::State& state) {
  auto model = nn::models::make_mnist_100_100(7);
  auto params = model->collect_parameters();
  core::DropBackConfig config;
  config.schedule = optim::constant_budget(state.range(0));
  core::DropBackOptimizer opt(params, 0.1F, config);
  rng::Xorshift128 rng(2);
  for (auto* p : params) {
    float* g = p->var.grad().data();
    for (std::int64_t i = 0; i < p->numel(); ++i) g[i] = rng.uniform(-1, 1);
  }
  opt.step();
  const auto store = core::SparseWeightStore::from_optimizer(opt);
  for (auto _ : state) {
    for (std::size_t p = 0; p < store.num_params(); ++p) {
      benchmark::DoNotOptimize(store.materialize(p).data());
    }
  }
}
BENCHMARK(BM_SparseStoreMaterialize)->Arg(2000)->Arg(20000);

// ---------------------------------------------------------------------------
// --speedup: serial-vs-threaded comparison in the unified kernel-timing
// schema ({"name","calls","total_us","threads"}, shared with the profiler).
// ---------------------------------------------------------------------------

constexpr int kSpeedupReps = 3;

struct TimedRun {
  double best_ms = 1e300;
  double total_us = 0.0;  ///< summed over the reps (profiler semantics)
};

/// Times `reps` calls of `fn` under `threads` pool threads.
template <typename Fn>
TimedRun timed_run(int threads, int reps, Fn&& fn) {
  util::set_num_threads(threads);
  fn();  // warm-up (also pays the one-time pool spawn)
  util::ClockSource& clock = util::steady_clock_source();
  TimedRun out;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t start_ns = clock.now_ns();
    fn();
    const double ms = static_cast<double>(clock.now_ns() - start_ns) * 1e-6;
    out.best_ms = std::min(out.best_ms, ms);
    out.total_us += ms * 1000.0;
  }
  return out;
}

void emit_speedup_lines(const std::string& name, int threads,
                        const TimedRun& serial, const TimedRun& parallel) {
  bench::print_kernel_timing(name, kSpeedupReps, serial.total_us, 1);
  bench::print_kernel_timing(name, kSpeedupReps, parallel.total_us, threads);
  std::printf("# %s speedup %.2fx (best-of-%d)\n", name.c_str(),
              parallel.best_ms > 0.0 ? serial.best_ms / parallel.best_ms : 0.0,
              kSpeedupReps);
}

/// The cost of one empty ThreadPool::run with a shard per participant,
/// at 2 and 4 threads: what every parallel op pays before its shards do any
/// work. One record per thread count; calls counts the dispatches.
void run_dispatch_report() {
  constexpr int kDispatches = 10000;
  const std::function<void(int)> noop = [](int) {};
  for (int threads : {2, 4}) {
    util::set_num_threads(threads);
    util::ThreadPool& pool = util::global_pool();
    auto body = [&] {
      for (int i = 0; i < kDispatches; ++i) pool.run(threads, noop);
    };
    const TimedRun run = timed_run(threads, kSpeedupReps, body);
    bench::print_kernel_timing("pool/dispatch_empty",
                               kSpeedupReps * kDispatches, run.total_us,
                               threads);
    std::printf("# pool/dispatch_empty threads=%d %.3f us per dispatch "
                "(best-of-%d)\n",
                threads, run.best_ms * 1000.0 / kDispatches, kSpeedupReps);
  }
}

void run_speedup_report(int threads) {
  std::printf("# serial-vs-threaded speedup (threads=%d, %d reps; outputs "
              "are bitwise identical across configs)\n", threads,
              kSpeedupReps);
  run_dispatch_report();

  for (std::int64_t n : {std::int64_t{256}, std::int64_t{512}}) {
    rng::Xorshift128 rng(1);
    tensor::Tensor a({n, n}), b({n, n});
    for (std::int64_t i = 0; i < a.numel(); ++i) {
      a[i] = rng.uniform(-1, 1);
      b[i] = rng.uniform(-1, 1);
    }
    auto body = [&] { benchmark::DoNotOptimize(tensor::matmul(a, b).data()); };
    const TimedRun serial = timed_run(1, kSpeedupReps, body);
    const TimedRun parallel = timed_run(threads, kSpeedupReps, body);
    emit_speedup_lines("matmul/" + std::to_string(n) + "x" +
                           std::to_string(n) + "x" + std::to_string(n),
                       threads, serial, parallel);
  }

  {
    rng::Xorshift128 rng(1);
    tensor::Tensor x({16, 16, 32, 32}), w({32, 16, 3, 3}), b({32});
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
    for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.uniform(-1, 1);
    tensor::Conv2dSpec spec{3, 3, 1, 1};
    auto body = [&] {
      benchmark::DoNotOptimize(tensor::conv2d(x, w, b, spec).data());
    };
    const TimedRun serial = timed_run(1, kSpeedupReps, body);
    const TimedRun parallel = timed_run(threads, kSpeedupReps, body);
    emit_speedup_lines("conv2d/16x16x32x32-k3s1p1", threads, serial,
                       parallel);
  }

  {
    nn::Sequential net;
    net.emplace<nn::Linear>(1000, 1000, 1);
    core::ParamIndex index(net.collect_parameters());
    core::TrackedSet set(index);
    rng::Xorshift128 rng(1);
    std::vector<float> scores(static_cast<std::size_t>(index.total()));
    for (auto& s : scores) s = rng.uniform();
    auto body = [&] {
      set.select(scores, 50000);
      benchmark::DoNotOptimize(set.tracked_count());
    };
    const TimedRun serial = timed_run(1, kSpeedupReps, body);
    const TimedRun parallel = timed_run(threads, kSpeedupReps, body);
    emit_speedup_lines("select/n=1001000-k=50000", threads, serial, parallel);
  }

  {
    // Batch-parallel data loading: one full epoch of synthetic MNIST
    // (2048 samples, batch 128) with the deterministic per-sample noise
    // transform. Prefetch stays off so the measurement isolates the
    // shard-parallel assemble path (prefetch overlaps, it doesn't scale).
    data::SyntheticMnistOptions mnist_opt;
    mnist_opt.num_samples = 2048;
    const auto dataset = data::make_synthetic_mnist(mnist_opt);
    data::DataLoaderOptions loader_opt;
    loader_opt.batch_size = 128;
    loader_opt.transform = data::uniform_noise_transform(0.1F);
    data::DataLoader loader(*dataset, loader_opt);
    auto body = [&] {
      loader.start_epoch();
      data::Batch batch;
      while (loader.next(batch)) {
        benchmark::DoNotOptimize(batch.images.data());
      }
    };
    const TimedRun serial = timed_run(1, kSpeedupReps, body);
    const TimedRun parallel = timed_run(threads, kSpeedupReps, body);
    emit_speedup_lines("dataload/mnist-n2048-b128", threads, serial,
                       parallel);
  }

  util::set_num_threads(1);
}

// ---------------------------------------------------------------------------
// --speedup, part 2: scalar-vs-best-SIMD-target comparison over the four
// vectorized kernel families (gemm, conv, regen, score), at 1/2/7 threads.
// Records use the same kernel-timing schema with names
// "simd/<kernel>@<target>". Nothing is committed from them: compare two
// builds on one host, or use perfbench for tracked numbers.
// Outputs are bitwise identical across targets (tests/simd_equivalence_test),
// so the comparison is purely wall-clock.
// ---------------------------------------------------------------------------

template <typename Fn>
void run_simd_case(const std::string& name, simd::Target best, Fn&& body) {
  for (const int threads : {1, 2, 7}) {
    TimedRun scalar_run, best_run;
    simd::set_target(simd::Target::kScalar);
    scalar_run = timed_run(threads, kSpeedupReps, body);
    simd::set_target(best);
    best_run = timed_run(threads, kSpeedupReps, body);
    bench::print_kernel_timing(
        name + "@" + simd::target_name(simd::Target::kScalar), kSpeedupReps,
        scalar_run.total_us, threads);
    bench::print_kernel_timing(name + "@" + simd::target_name(best),
                               kSpeedupReps, best_run.total_us, threads);
    std::printf("# %s threads=%d speedup %.2fx (%s vs scalar, best-of-%d)\n",
                name.c_str(), threads,
                best_run.best_ms > 0.0 ? scalar_run.best_ms / best_run.best_ms
                                       : 0.0,
                simd::target_name(best), kSpeedupReps);
  }
}

void run_simd_speedup_report() {
  const simd::Target prev = simd::active_target();
  const simd::Target best = simd::best_target();
  std::printf("# scalar-vs-%s SIMD speedup (%d reps; outputs are bitwise "
              "identical across targets)\n",
              simd::target_name(best), kSpeedupReps);
  if (best == simd::Target::kScalar) {
    std::printf("# simd: no vector target available on this host\n");
    return;
  }

  // matmul_nt: a square product, and MNIST fc1's forward (batch 32,
  // 784 -> 100): gemm_acc with X as A against the transposed weights.
  struct NtShape {
    const char* name;
    std::int64_t m, k, n;
  };
  for (const NtShape& s :
       {NtShape{"simd/matmul-nt-256", 256, 256, 256},
        NtShape{"simd/matmul-nt-fc1-32x784x100", 32, 784, 100}}) {
    rng::Xorshift128 rng(1);
    tensor::Tensor a({s.m, s.k}), bt({s.n, s.k});
    for (std::int64_t i = 0; i < a.numel(); ++i) a[i] = rng.uniform(-1, 1);
    for (std::int64_t i = 0; i < bt.numel(); ++i) bt[i] = rng.uniform(-1, 1);
    run_simd_case(s.name, best, [&] {
      benchmark::DoNotOptimize(tensor::matmul_nt(a, bt).data());
    });
  }

  {
    // The float-chain accumulate at MNIST fc1's weight gradient: dW =
    // gyᵀ·x over a batch of 32, gy holding ReLU's exact zeros (about half),
    // which the kernel's zero skip drops.
    rng::Xorshift128 rng(1);
    tensor::Tensor gy({32, 100}), x({32, 784});
    for (std::int64_t i = 0; i < gy.numel(); ++i) {
      const float v = rng.uniform(-1, 1);
      gy[i] = rng.uniform(0, 1) < 0.5F ? 0.0F : v;
    }
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(0, 1);
    run_simd_case("simd/gemm-acc-fc1-dw-32x100x784", best, [&] {
      benchmark::DoNotOptimize(tensor::matmul_tn(gy, x).data());
    });
  }

  {
    // VGG-S conv2 (8 -> 8 channels, 32x32, batch 16) as conv2d_backward
    // runs it: per image, 227-row column panels (64 KB of 72 floats). The
    // dW panel is gy[8, 227] · cols[227, 72] accumulated into dW[8, 72];
    // the dX panel is gyᵀ[227, 8] · W[8, 72] into a fresh dcols panel.
    // Each timed call covers the 16 x 5 panels of one backward.
    constexpr std::int64_t kCout = 8, kPatch = 72, kRows = 1024, kPanel = 227;
    rng::Xorshift128 rng(1);
    std::vector<float> gy(static_cast<std::size_t>(kCout * kRows));
    std::vector<float> cols(static_cast<std::size_t>(kPanel * kPatch));
    std::vector<float> w(static_cast<std::size_t>(kCout * kPatch));
    for (auto* v : {&gy, &cols, &w}) {
      for (float& f : *v) f = rng.uniform(-1, 1);
    }
    std::vector<float> dw(static_cast<std::size_t>(kCout * kPatch));
    std::vector<float> dcols(cols.size());
    const auto panels = [&](auto&& panel) {
      for (int image = 0; image < 16; ++image) {
        for (std::int64_t r0 = 0; r0 < kRows; r0 += kPanel) {
          panel(r0, std::min(kRows, r0 + kPanel) - r0);
        }
      }
    };
    run_simd_case("simd/gemm-acc-conv2-dw-panel-8x227x72", best, [&] {
      std::fill(dw.begin(), dw.end(), 0.0F);
      panels([&](std::int64_t r0, std::int64_t rows) {
        simd::kernels().gemm_acc(kCout, kPatch, rows, gy.data() + r0, kRows,
                                 1, cols.data(), kPatch, dw.data(), kPatch);
      });
      benchmark::DoNotOptimize(dw.data());
    });
    run_simd_case("simd/gemm-acc-conv2-dx-panel-227x8x72", best, [&] {
      panels([&](std::int64_t r0, std::int64_t rows) {
        std::fill(dcols.begin(), dcols.end(), 0.0F);
        simd::kernels().gemm_acc(rows, kPatch, kCout, gy.data() + r0, 1,
                                 kRows, w.data(), kPatch, dcols.data(),
                                 kPatch);
        benchmark::DoNotOptimize(dcols.data());
      });
    });
  }

  {
    rng::Xorshift128 rng(1);
    tensor::Tensor x({16, 8, 32, 32}), w({8, 8, 3, 3}), gy({16, 8, 32, 32});
    for (auto* t : {&x, &w, &gy}) {
      for (std::int64_t i = 0; i < t->numel(); ++i) {
        (*t)[i] = rng.uniform(-1, 1);
      }
    }
    tensor::Conv2dSpec spec{3, 3, 1, 1};
    run_simd_case("simd/conv2d-backward-16x8x32x32", best, [&] {
      benchmark::DoNotOptimize(
          tensor::conv2d_backward(x, w, gy, spec, true).grad_weight.data());
    });
  }

  // conv2d forward at batch 16: VGG-S conv2 (8 -> 8, 32x32), a wider
  // 32x32 layer (16 -> 32) and a 2x2-stage layer (64 -> 64), whose panels
  // hold 16 whole images.
  struct ConvShape {
    const char* name;
    std::int64_t cin, cout, hw;
  };
  for (const ConvShape& s : {ConvShape{"simd/conv2d-16x8x32x32", 8, 8, 32},
                             ConvShape{"simd/conv2d-16x16x32x32", 16, 32, 32},
                             ConvShape{"simd/conv2d-16x64x2x2", 64, 64, 2}}) {
    rng::Xorshift128 rng(1);
    tensor::Tensor x({16, s.cin, s.hw, s.hw}), w({s.cout, s.cin, 3, 3}),
        b({s.cout});
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
    for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.uniform(-1, 1);
    tensor::Conv2dSpec spec{3, 3, 1, 1};
    run_simd_case(s.name, best, [&] {
      benchmark::DoNotOptimize(tensor::conv2d(x, w, b, spec).data());
    });
  }

  {
    // Batched xorshift regeneration — the paper's per-weight regen path.
    constexpr std::size_t n = 1 << 21;
    std::vector<float> buf(n);
    const auto spec = rng::InitSpec::lecun(784, 7);
    run_simd_case("simd/regen-2m", best, [&] {
      spec.fill(buf.data(), n);
      benchmark::DoNotOptimize(buf.data());
    });
  }

  {
    // Fused score sweep (regen + |w - lr*g - w0|) over a 1000x1000 layer.
    nn::Sequential net;
    net.emplace<nn::Linear>(1000, 1000, 1);
    core::ParamIndex index(net.collect_parameters());
    std::vector<float> scores;
    run_simd_case("simd/score-1m", best, [&] {
      core::compute_scores(index, 0.01F, scores);
      benchmark::DoNotOptimize(scores.data());
    });
  }

  simd::set_target(prev);
  util::set_num_threads(1);
}

}  // namespace

int main(int argc, char** argv) {
  dropback::util::Flags flags(argc, argv);
  const int threads =
      static_cast<int>(flags.get_int("threads", 0));  // 0 = default rule
  if (threads > 0) dropback::util::set_num_threads(threads);
  dropback::simd::configure_simd(flags);  // --simd overrides DROPBACK_SIMD

  if (flags.get_bool("speedup", false)) {
    run_speedup_report(threads > 0 ? threads
                                   : dropback::util::num_threads());
    run_simd_speedup_report();
  }

  // Strip our flags before handing argv to google-benchmark, which rejects
  // flags it does not know.
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--speedup", 0) == 0) continue;
    if (arg.rfind("--simd", 0) == 0) {
      if (arg.find('=') == std::string::npos && i + 1 < argc &&
          std::string(argv[i + 1]).rfind("--", 0) != 0) {
        ++i;  // also skip the detached value
      }
      continue;
    }
    if (arg.rfind("--threads", 0) == 0) {
      if (arg.find('=') == std::string::npos && i + 1 < argc &&
          std::string(argv[i + 1]).rfind("--", 0) != 0) {
        ++i;  // also skip the detached value
      }
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
