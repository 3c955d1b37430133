// Unit tests for the thread pool itself: shard coverage, degenerate
// ranges, exception propagation and cancellation, heavy reuse, spinning and
// parked workers, teardown, and concurrent callers. The kernels' bitwise parallel-vs-serial guarantees live in
// parallel_equivalence_test.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/sparse_weight_store.hpp"
#include "inference/regen_forward.hpp"
#include "nn/models/lenet.hpp"
#include "rng/xorshift.hpp"
#include "tensor/conv.hpp"
#include "util/flags.hpp"

namespace dropback::util {
namespace {

class ThreadPoolTest : public ::testing::Test {
 protected:
  void TearDown() override { set_num_threads(1); }
};

TEST_F(ThreadPoolTest, EmptyRangeNeverInvokes) {
  set_num_threads(4);
  int calls = 0;
  parallel_for(16, 0, [&](std::int64_t, std::int64_t) { ++calls; });
  parallel_for(16, -5, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST_F(ThreadPoolTest, BelowGrainRunsInlineOnCaller) {
  set_num_threads(4);
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  std::int64_t begin = -1, end = -1;
  parallel_for(100, 37, [&](std::int64_t b, std::int64_t e) {
    ++calls;
    begin = b;
    end = e;
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(begin, 0);
  EXPECT_EQ(end, 37);
}

TEST_F(ThreadPoolTest, SingleThreadPoolRunsInline) {
  set_num_threads(1);
  const auto caller = std::this_thread::get_id();
  std::int64_t covered = 0;
  parallel_for(1, 1000, [&](std::int64_t b, std::int64_t e) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    covered += e - b;
  });
  EXPECT_EQ(covered, 1000);
}

TEST_F(ThreadPoolTest, CoversEveryIndexExactlyOnceWithRaggedShards) {
  // 7 threads over ranges that do not divide evenly: every index must be
  // touched exactly once, with no gaps at the shard seams.
  set_num_threads(7);
  for (std::int64_t n : {1, 2, 6, 7, 8, 13, 97, 1000, 12345}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    for (auto& h : hits) h.store(0);
    parallel_for(1, n, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " of " << n;
    }
  }
}

TEST_F(ThreadPoolTest, RunCoversShardsBeyondThreadCount) {
  // 23 shards on a 3-thread pool: the participants claim shards until none
  // are left, so each runs several.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(23);
  for (auto& h : hits) h.store(0);
  pool.run(23, [&](int s) { hits[static_cast<std::size_t>(s)].fetch_add(1); });
  for (std::size_t s = 0; s < hits.size(); ++s) {
    ASSERT_EQ(hits[s].load(), 1) << "shard " << s;
  }
}

TEST_F(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  set_num_threads(4);
  EXPECT_THROW(
      parallel_for(1, 1000,
                   [&](std::int64_t b, std::int64_t) {
                     if (b == 0) throw std::runtime_error("shard boom");
                   }),
      std::runtime_error);
  // The pool must be fully reusable after a throwing dispatch.
  std::atomic<std::int64_t> sum{0};
  parallel_for(1, 1000, [&](std::int64_t b, std::int64_t e) {
    std::int64_t local = 0;
    for (std::int64_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 1000 * 999 / 2);
}

TEST_F(ThreadPoolTest, ExceptionFromWorkerShardPropagates) {
  // Whoever claims a shard runs it, so the caller's shard holds the caller
  // until a worker has claimed one; the worker's shard throws, and the
  // error must cross to the calling thread.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> worker_claimed{false};
  EXPECT_THROW(pool.run(4,
                        [&](int) {
                          if (std::this_thread::get_id() != caller) {
                            worker_claimed.store(true);
                            throw std::runtime_error("worker boom");
                          }
                          while (!worker_claimed.load()) {
                            std::this_thread::yield();
                          }
                        }),
               std::runtime_error);
}

TEST_F(ThreadPoolTest, ThrowingShardStopsFurtherClaims) {
  // Shard 0 throws; every other shard takes a millisecond. Once the throw
  // has cancelled the unclaimed shards, only those already claimed finish,
  // so far fewer than all 127 others run, and the pool serves the next
  // dispatch in full.
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run(128,
                        [&](int s) {
                          if (s == 0) throw std::runtime_error("boom");
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(1));
                          ran.fetch_add(1);
                        }),
               std::runtime_error);
  EXPECT_LT(ran.load(), 64);

  std::vector<std::atomic<int>> hits(128);
  for (auto& h : hits) h.store(0);
  pool.run(128, [&](int s) { hits[static_cast<std::size_t>(s)].fetch_add(1); });
  for (std::size_t s = 0; s < hits.size(); ++s) {
    ASSERT_EQ(hits[s].load(), 1) << "shard " << s;
  }
}

TEST_F(ThreadPoolTest, ReuseAcrossManyDispatches) {
  set_num_threads(5);
  std::int64_t expected = 0;
  std::atomic<std::int64_t> total{0};
  for (int round = 0; round < 500; ++round) {
    const std::int64_t n = 1 + (round % 64);
    expected += n;
    parallel_for(1, n, [&](std::int64_t b, std::int64_t e) {
      total.fetch_add(e - b);
    });
  }
  EXPECT_EQ(total.load(), expected);
}

TEST_F(ThreadPoolTest, DispatchNeverOutlivesRun) {
  // 20,000 tiny dispatches whose fn and state live on this frame and die as
  // soon as run() returns. A worker that touched a finished dispatch would
  // write into a later iteration's state (a wrong count here, a race or a
  // use after scope under the sanitizers).
  ThreadPool pool(4);
  for (int i = 0; i < 20000; ++i) {
    std::vector<int> hits(3, 0);
    {
      const std::function<void(int)> fn = [&hits, i](int s) {
        hits[static_cast<std::size_t>(s)] += 1 + i;
      };
      pool.run(3, fn);
    }
    ASSERT_EQ(hits, std::vector<int>(3, 1 + i)) << "dispatch " << i;
  }
}

TEST_F(ThreadPoolTest, DestroyWhileWorkersSpin) {
  // Tear each pool down right after a dispatch, while its workers still
  // spin on the generation: the destructor must stop and join them.
  for (int round = 0; round < 200; ++round) {
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    pool.run(4, [&](int) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), 4) << "round " << round;
  }
}

TEST_F(ThreadPoolTest, ParkedWorkersWakeForNextDispatch) {
  // Sleep far past the spin budget so the workers park, then dispatch. The
  // caller's shard waits (boundedly) for a worker to claim one, so a lost
  // wakeup shows as no worker shard; every shard still runs exactly once.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  for (int round = 0; round < 5; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<std::atomic<int>> hits(16);
    for (auto& h : hits) h.store(0);
    std::atomic<bool> worker_claimed{false};
    pool.run(16, [&](int s) {
      hits[static_cast<std::size_t>(s)].fetch_add(1);
      if (std::this_thread::get_id() != caller) {
        worker_claimed.store(true);
        return;
      }
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!worker_claimed.load() &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
    });
    EXPECT_TRUE(worker_claimed.load()) << "round " << round;
    for (std::size_t s = 0; s < hits.size(); ++s) {
      ASSERT_EQ(hits[s].load(), 1) << "round " << round << " shard " << s;
    }
  }
}

TEST_F(ThreadPoolTest, NestedParallelForRunsSeriallyWithoutDeadlock) {
  set_num_threads(4);
  std::atomic<std::int64_t> inner_total{0};
  parallel_for(1, 8, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      parallel_for(1, 10, [&](std::int64_t ib, std::int64_t ie) {
        inner_total.fetch_add(ie - ib);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 80);
}

TEST_F(ThreadPoolTest, SetNumThreadsResizesGlobalPool) {
  set_num_threads(7);
  EXPECT_EQ(num_threads(), 7);
  set_num_threads(2);
  EXPECT_EQ(num_threads(), 2);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1);
}

TEST_F(ThreadPoolTest, ConfigureThreadsReadsFlag) {
  const char* argv[] = {"prog", "--threads", "3"};
  Flags flags(3, const_cast<char**>(argv));
  configure_threads(flags);
  EXPECT_EQ(num_threads(), 3);
}

tensor::Tensor uniform_tensor(tensor::Shape shape, std::uint64_t seed) {
  rng::Xorshift128 rng(seed);
  tensor::Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(-1, 1);
  return t;
}

bool same_bits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

TEST_F(ThreadPoolTest, ConcurrentCallersShareOnePoolBitwise) {
  // Two threads dispatch onto one 4-thread pool at once, each running a
  // conv2d (batch images fan out) and a 784-wide RegenMlp forward whose
  // 192 x 100 hidden ReLU fans out too. Whichever caller finds the pool
  // busy runs its shards inline, so every output equals its serial
  // reference bit for bit, and TSan sees no race.
  const tensor::Tensor x = uniform_tensor({4, 8, 16, 16}, 1);
  const tensor::Tensor w = uniform_tensor({16, 8, 3, 3}, 2);
  const tensor::Tensor b = uniform_tensor({16}, 3);
  const tensor::Conv2dSpec spec;
  nn::models::Mlp model(784, {100}, 10, /*seed=*/4);
  model.layer(0).weight().var.value()[5] += 0.5F;  // one tracked entry
  const auto store =
      core::SparseWeightStore::from_params(model.collect_parameters());
  const inference::RegenMlp engine(store);
  const tensor::Tensor images = uniform_tensor({192, 784}, 5);

  set_num_threads(1);
  const tensor::Tensor conv_ref = tensor::conv2d(x, w, b, spec);
  const tensor::Tensor logits_ref = engine.forward(images);

  set_num_threads(4);
  std::atomic<int> mismatches{0};
  const auto caller = [&] {
    for (int iter = 0; iter < 6; ++iter) {
      if (!same_bits(tensor::conv2d(x, w, b, spec), conv_ref)) ++mismatches;
      if (!same_bits(engine.forward(images), logits_ref)) ++mismatches;
    }
  };
  std::thread first(caller);
  std::thread second(caller);
  first.join();
  second.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ThreadPoolTest, DeterministicPartitionBoundaries) {
  // The even split must be a pure function of (n, shards): recompute the
  // boundaries a dispatch used and check contiguity and ordering.
  set_num_threads(4);
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  std::mutex mu;
  parallel_for(1, 103, [&](std::int64_t b, std::int64_t e) {
    std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(b, e);
  });
  std::sort(ranges.begin(), ranges.end());
  ASSERT_EQ(ranges.size(), 4U);
  EXPECT_EQ(ranges.front().first, 0);
  EXPECT_EQ(ranges.back().second, 103);
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].first, ranges[i - 1].second);
  }
}

}  // namespace
}  // namespace dropback::util
