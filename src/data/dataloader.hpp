// Mini-batch iteration: per-epoch shuffling, batch-parallel assembly,
// deterministic per-sample augmentation, and optional background prefetch.
//
// Determinism contract (docs/PARALLELISM.md): batch contents are a pure
// function of (dataset, seed, epoch, cursor) — never of the thread count or
// of whether prefetch is enabled. Two mechanisms make that hold:
//
//   * Batch assembly partitions the batch's samples across the kernel
//     thread pool; each sample's pixels and label are written by exactly
//     one shard, so the assembled bytes are bitwise identical for every
//     pool size (and to the serial path the prefetch thread uses).
//   * The optional per-sample transform (augmentation, normalization
//     noise, ...) draws from an RNG seeded by (seed ⊕ sample index ⊕
//     epoch) — NOT by thread id or batch position — so a sample's
//     augmentation stream is identical wherever and whenever the sample is
//     assembled (sample_stream_seed below).
//
// Prefetch (`DataLoaderOptions::prefetch_batches > 0`) assembles the next
// batch on a dedicated background thread while the caller trains on the
// current one, double-buffering the pipeline:
//
//   consumer:   [train batch t  ......][train batch t+1 ......]
//   prefetcher:     [assemble batch t+1]   [assemble batch t+2]
//
// The prefetch thread assembles serially (the shared kernel pool has a
// single dispatcher — the training thread), which is still bitwise
// identical to the parallel path by the ownership rule above.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "rng/xorshift.hpp"

namespace dropback::data {

/// Deterministic per-sample transform hook: mutates one sample's
/// `numel` floats in place. `rng` is freshly seeded from
/// sample_stream_seed(seed, epoch, sample index) for every call.
using SampleTransform =
    std::function<void(float* sample, std::int64_t numel,
                       rng::Xorshift128& rng)>;

/// The RNG stream seed for one sample's transform: mixes the loader seed
/// with the *dataset* sample index and the epoch counter, so the stream is
/// independent of shuffle order, batch position, thread id, and prefetch.
std::uint64_t sample_stream_seed(std::uint64_t seed, std::int64_t epoch,
                                 std::int64_t sample_index);

/// Canned transform: adds uniform noise in [-amplitude, amplitude) to every
/// pixel — the cheap augmentation used by the bench and the equivalence
/// tests.
SampleTransform uniform_noise_transform(float amplitude);

struct DataLoaderOptions {
  std::int64_t batch_size = 32;
  bool shuffle = false;
  std::uint64_t seed = 0x5EED;
  /// Batches assembled ahead on the background prefetch thread (0 =
  /// synchronous, 1 = double-buffered). Purely a wall-clock knob: batch
  /// contents and checkpoint state are identical for every value.
  std::int64_t prefetch_batches = 0;
  /// Optional deterministic per-sample augmentation; empty = raw samples.
  SampleTransform transform;
};

class DataLoader {
 public:
  /// Does not take ownership of `dataset`; it must outlive the loader.
  DataLoader(const Dataset& dataset, DataLoaderOptions options);

  /// Legacy convenience constructor (no prefetch, no transform).
  DataLoader(const Dataset& dataset, std::int64_t batch_size, bool shuffle,
             std::uint64_t seed = 0x5EED);

  ~DataLoader();

  DataLoader(const DataLoader&) = delete;
  DataLoader& operator=(const DataLoader&) = delete;

  /// Number of batches per epoch (last partial batch included).
  std::int64_t num_batches() const;

  /// Reshuffles (if enabled), advances the epoch counter, and resets to the
  /// first batch. Any batch staged by the prefetcher is discarded.
  void start_epoch();

  /// Fetches the next batch; returns false at epoch end. With prefetch
  /// enabled this hands over the staged batch and immediately kicks off
  /// background assembly of the following one.
  bool next(Batch& batch);

  std::int64_t batch_size() const { return options_.batch_size; }

  /// Epochs started so far minus one (0 during the first epoch); feeds the
  /// per-sample transform streams and is part of the serialized state.
  std::int64_t epoch() const { return epoch_; }

  /// Serializes the shuffle state (RNG, current epoch order, cursor, epoch
  /// counter) so a resumed run continues from the exact batch the crashed
  /// run stopped at. The format is versioned ("DBD2", version 2).
  /// load_state validates dataset size and batch size against the current
  /// loader and raises util::IoError on corrupt or mismatched input; the
  /// cursor always reflects *consumed* batches, never staged ones, so
  /// snapshots are identical with prefetch on and off.
  void save_state(std::ostream& out) const;
  void load_state(std::istream& in);

 private:
  /// Assembles samples order_[first, first+count) into a batch. `parallel`
  /// shards the samples over the kernel pool (consumer thread only); the
  /// serial path produces bitwise-identical bytes.
  Batch assemble(std::int64_t first, std::int64_t count, std::int64_t epoch,
                 bool parallel) const;

  // Prefetch machinery. All stage_* fields are guarded by mu_; order_,
  // cursor_, rng_, and epoch_ are only ever touched by the consumer thread
  // (the worker reads a snapshot of its inputs taken under mu_).
  enum class Stage { kIdle, kRequested, kAssembling, kReady };
  void worker_loop();
  void schedule_locked();               ///< stage the next batch, if any
  void drain_stage_locked(std::unique_lock<std::mutex>& lock);

  const Dataset& dataset_;
  DataLoaderOptions options_;
  rng::Xorshift128 rng_;
  std::vector<std::int64_t> order_;
  std::int64_t cursor_ = 0;
  std::int64_t epoch_ = -1;  // first start_epoch() brings it to 0

  std::thread worker_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  Stage stage_ = Stage::kIdle;
  bool stop_ = false;
  std::int64_t stage_first_ = 0;
  std::int64_t stage_count_ = 0;
  std::int64_t stage_epoch_ = 0;
  Batch stage_batch_;
  std::exception_ptr stage_error_;  ///< rethrown on the consumer in next()
};

}  // namespace dropback::data
