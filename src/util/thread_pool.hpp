// Deterministic thread pool for the training hot paths.
//
// Design constraints (see docs/PARALLELISM.md):
//   * A dispatch of S shards is one atomic word, generation << 32 | shards
//     left. The caller and the workers claim shards from it by
//     compare-and-swap, in ascending order, until none are left; which
//     participant runs a shard depends on timing, and nothing else does.
//   * parallel_for splits [0, n) into contiguous shards via the even split
//     shard s = [n*s/S, n*(s+1)/S). Each shard runs the same scalar code a
//     serial loop would, in the same index order, so any kernel whose
//     outputs are written by exactly one shard produces bitwise-identical
//     results for every thread count, including 1, whoever runs the shard.
//   * Waiting workers spin on the generation, and the caller on the workers
//     that took shards, for a fixed ~50 us before parking on a condition
//     variable, so a dispatch in a busy step costs about a microsecond.
//   * With 1 thread (--threads 1 / DROPBACK_THREADS=1) nothing is spawned
//     and every dispatch runs inline on the caller: exactly the pre-pool
//     serial behaviour.
//   * Any number of threads may call run() at once. The pool serves one
//     dispatch at a time; a caller that finds it busy runs its own shards
//     inline, in serial order, which by the rule above gives the same bits.
//
// An exception thrown inside a shard is caught, the shards nobody has
// claimed yet are cancelled, and the first captured exception is rethrown
// on the calling thread once the dispatch has quiesced.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

namespace dropback::util {

class Flags;

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` total participants (the calling
  /// thread counts as one, so `num_threads - 1` workers are spawned).
  /// `num_threads <= 1` spawns nothing and makes every run() serial.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total participants (caller + workers); always >= 1.
  int num_threads() const;

  /// Executes fn(s) for every shard s in [0, shards), each claimed by
  /// whichever participant asks first, and blocks until all shards have
  /// finished. Rethrows the first exception a shard raised. Calls from
  /// inside a pool worker (nested parallelism), and calls made while another
  /// thread's dispatch is live, run serially on the calling thread.
  void run(int shards, const std::function<void(int)>& fn);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The process-wide pool used by all parallelized kernels. First use
/// creates it with DROPBACK_THREADS if set, else hardware_concurrency().
ThreadPool& global_pool();

/// Resizes the global pool. `n <= 0` restores the default sizing rule.
void set_num_threads(int n);

/// Size of the global pool (creates it on first call).
int num_threads();

/// Reads the `--threads` flag (env DROPBACK_THREADS) and sizes the global
/// pool accordingly; absent flag keeps the default.
void configure_threads(const Flags& flags);

/// Splits [0, n) into shards of at least `grain` iterations (the even split
/// above, capped at the pool size) and invokes fn(begin, end) for each,
/// possibly concurrently. fn must write only outputs owned by its range.
/// n <= grain — or a 1-thread pool — degenerates to one inline fn(0, n).
void parallel_for(std::int64_t grain, std::int64_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& fn);

}  // namespace dropback::util
