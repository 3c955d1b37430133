// TrainConfig — the one configuration object for a training run.
//
// Everything the training pipeline needs lives in this single struct,
// grouped by concern: the loop itself (epochs, batch size, schedule), the
// data pipeline (shuffling, deterministic per-sample augmentation, prefetch
// depth), parallelism (kernel thread-pool size), crash safety (checkpoint
// path/cadence/resume), numeric-anomaly policy, and telemetry. `Trainer`
// consumes it, replacing the former sprawl of per-object option structs
// with duplicated fields.
//
// The chainable `with_*` setters make one-expression configuration read
// naturally:
//
//   auto config = train::TrainConfig{}
//                     .with_epochs(20)
//                     .with_batch_size(32)
//                     .with_prefetch(1)
//                     .with_checkpoint("run.dbts", /*every_steps=*/50)
//                     .with_anomaly_policy(train::AnomalyPolicy::kSkipStep);
//
// Every knob is still a plain public field, so aggregate-style assignment
// (`config.epochs = 20;`) keeps working.
//
// Determinism contract: none of the performance knobs (threads,
// prefetch_batches) change training results — a run is bitwise identical
// for every setting (tests/parallel_equivalence_test.cpp). Only `transform`
// changes the numbers, and it does so identically for every thread count
// because its RNG streams are derived from (seed ⊕ sample index), never
// from scheduling (see data/dataloader.hpp).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "data/dataloader.hpp"
#include "optim/lr_schedule.hpp"

namespace dropback::train {

/// What to do when a non-finite loss or gradient is detected.
enum class AnomalyPolicy {
  kOff,       ///< No checks (the pre-existing behavior).
  kThrow,     ///< Raise AnomalyError, aborting the run.
  kSkipStep,  ///< Drop the batch: clear gradients, take no optimizer step.
  kRollback,  ///< Reload the last snapshot (requires checkpoint_path) and
              ///< return with TrainResult::rolled_back set.
};

/// Raised by AnomalyPolicy::kThrow, and by kRollback when no snapshot is
/// available to roll back to. Deliberately not util::IoError: the bytes on
/// disk are fine, the numbers in flight are not.
class AnomalyError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses "off" | "throw" | "skip" | "rollback" (CLI --anomaly flag).
AnomalyPolicy parse_anomaly_policy(const std::string& text);

struct TrainConfig {
  // --- the loop -----------------------------------------------------------
  std::int64_t epochs = 10;
  std::int64_t batch_size = 32;
  /// Learning-rate schedule; nullptr keeps the optimizer's current lr.
  const optim::LrSchedule* schedule = nullptr;
  /// Stop after this many epochs without validation improvement
  /// (the paper uses 5 on MNIST); -1 disables early stopping.
  std::int64_t patience = -1;
  bool verbose = false;

  // --- data pipeline ------------------------------------------------------
  bool shuffle = true;
  std::uint64_t loader_seed = 0xDA7A;
  /// Batches the loader assembles ahead of the training step on a background
  /// thread (0 = synchronous loading, 1 = double-buffered: batch t+1 is
  /// decoded while batch t trains). Purely a performance knob — batch
  /// contents are bitwise identical either way.
  std::int64_t prefetch_batches = 0;
  /// Optional deterministic per-sample augmentation applied at batch
  /// assembly; its RNG stream is derived from (loader_seed ⊕ sample index ⊕
  /// epoch), never from thread or batch position (data/dataloader.hpp).
  data::SampleTransform transform;

  // --- parallelism --------------------------------------------------------
  /// Sizes the global kernel thread pool before training: 1 forces fully
  /// serial execution, 0 leaves the pool as configured (--threads flag /
  /// DROPBACK_THREADS env / hardware_concurrency). Training results are
  /// bitwise identical for every setting; only wall-clock changes.
  std::int64_t threads = 0;

  // --- crash safety -------------------------------------------------------
  /// Snapshot file for crash-safe training; empty disables checkpointing.
  /// A snapshot is written after every epoch, plus mid-epoch every
  /// `checkpoint_every` steps.
  std::string checkpoint_path;
  /// Extra mid-epoch snapshot cadence in optimizer steps; 0 = epoch ends
  /// only. Requires checkpoint_path.
  std::int64_t checkpoint_every = 0;
  /// Resume from checkpoint_path if that file exists (a missing file starts
  /// a fresh run, so the same command line works before and after a crash).
  bool resume = false;

  // --- robustness ---------------------------------------------------------
  /// Non-finite loss/gradient handling; kOff skips the checks entirely.
  AnomalyPolicy anomaly_policy = AnomalyPolicy::kOff;

  // --- telemetry ----------------------------------------------------------
  /// JSONL telemetry stream destination (one flat record per training step /
  /// epoch / checkpoint / anomaly plus a final summary — schemas in
  /// obs/event_stream.hpp and docs/OBSERVABILITY.md), written crash-safely
  /// at every epoch boundary and at run exit. The `*_ms` fields come from
  /// the trainer's spans (obs/trace.hpp). This stream is the trainer's only
  /// telemetry sink; empty disables it. The training trajectory is bitwise
  /// identical either way (tests/obs_equivalence_test.cpp).
  std::string metrics_out;

  // --- chainable builder setters ------------------------------------------
  TrainConfig& with_epochs(std::int64_t v) { epochs = v; return *this; }
  TrainConfig& with_batch_size(std::int64_t v) { batch_size = v; return *this; }
  TrainConfig& with_schedule(const optim::LrSchedule* s) {
    schedule = s;
    return *this;
  }
  TrainConfig& with_patience(std::int64_t v) { patience = v; return *this; }
  TrainConfig& with_verbose(bool v = true) { verbose = v; return *this; }
  TrainConfig& with_shuffle(bool v) { shuffle = v; return *this; }
  TrainConfig& with_loader_seed(std::uint64_t v) {
    loader_seed = v;
    return *this;
  }
  TrainConfig& with_prefetch(std::int64_t batches) {
    prefetch_batches = batches;
    return *this;
  }
  TrainConfig& with_transform(data::SampleTransform t) {
    transform = std::move(t);
    return *this;
  }
  TrainConfig& with_threads(std::int64_t v) { threads = v; return *this; }
  TrainConfig& with_checkpoint(std::string path, std::int64_t every_steps = 0) {
    checkpoint_path = std::move(path);
    checkpoint_every = every_steps;
    return *this;
  }
  TrainConfig& with_resume(bool v = true) { resume = v; return *this; }
  TrainConfig& with_anomaly_policy(AnomalyPolicy p) {
    anomaly_policy = p;
    return *this;
  }
  TrainConfig& with_metrics_out(std::string path) {
    metrics_out = std::move(path);
    return *this;
  }

  /// The loader configuration this TrainConfig implies.
  data::DataLoaderOptions loader_options() const {
    data::DataLoaderOptions opts;
    opts.batch_size = batch_size;
    opts.shuffle = shuffle;
    opts.seed = loader_seed;
    opts.prefetch_batches = prefetch_batches;
    opts.transform = transform;
    return opts;
  }

  /// Raises std::invalid_argument on an inconsistent configuration; called
  /// by Trainer's constructor so bad configs fail before any work starts.
  void validate() const;
};

}  // namespace dropback::train
