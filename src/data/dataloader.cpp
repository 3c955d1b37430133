#include "data/dataloader.hpp"

#include <numeric>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "util/bytes.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace dropback::data {

std::uint64_t sample_stream_seed(std::uint64_t seed, std::int64_t epoch,
                                 std::int64_t sample_index) {
  // Mix each component through splitmix64 so that nearby (epoch, index)
  // pairs land on unrelated streams; a plain xor of small integers would
  // make sample i in epoch e collide with sample i^1 in epoch e^1.
  std::uint64_t h = seed;
  h ^= rng::splitmix64(static_cast<std::uint64_t>(epoch) +
                       0x9E3779B97F4A7C15ULL);
  h ^= rng::splitmix64(static_cast<std::uint64_t>(sample_index) ^
                       0xD1B54A32D192ED03ULL);
  return rng::splitmix64(h);
}

SampleTransform uniform_noise_transform(float amplitude) {
  return [amplitude](float* sample, std::int64_t numel,
                     rng::Xorshift128& rng) {
    for (std::int64_t i = 0; i < numel; ++i) {
      sample[i] += rng.uniform(-amplitude, amplitude);
    }
  };
}

DataLoader::DataLoader(const Dataset& dataset, DataLoaderOptions options)
    : dataset_(dataset), options_(std::move(options)), rng_(options_.seed) {
  DROPBACK_CHECK(options_.batch_size > 0,
                 << "DataLoader: batch_size " << options_.batch_size);
  DROPBACK_CHECK(options_.prefetch_batches >= 0,
                 << "DataLoader: prefetch_batches "
                 << options_.prefetch_batches);
  order_.resize(static_cast<std::size_t>(dataset.size()));
  std::iota(order_.begin(), order_.end(), 0);
  if (options_.prefetch_batches > 0) {
    worker_ = std::thread([this] { worker_loop(); });
  }
  start_epoch();
}

DataLoader::DataLoader(const Dataset& dataset, std::int64_t batch_size,
                       bool shuffle, std::uint64_t seed)
    : DataLoader(dataset, [&] {
        DataLoaderOptions opts;
        opts.batch_size = batch_size;
        opts.shuffle = shuffle;
        opts.seed = seed;
        return opts;
      }()) {}

DataLoader::~DataLoader() {
  if (worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }
}

std::int64_t DataLoader::num_batches() const {
  return (dataset_.size() + options_.batch_size - 1) / options_.batch_size;
}

void DataLoader::drain_stage_locked(std::unique_lock<std::mutex>& lock) {
  cv_.wait(lock, [&] {
    return stage_ != Stage::kRequested && stage_ != Stage::kAssembling;
  });
  stage_ = Stage::kIdle;
  stage_batch_ = Batch{};
  stage_error_ = nullptr;
}

void DataLoader::start_epoch() {
  if (worker_.joinable()) {
    std::unique_lock<std::mutex> lock(mu_);
    drain_stage_locked(lock);
  }
  if (options_.shuffle) {
    // Fisher-Yates with the library RNG for reproducibility.
    for (std::size_t i = order_.size(); i > 1; --i) {
      const std::size_t j = rng_.uniform_int(static_cast<std::uint32_t>(i));
      std::swap(order_[i - 1], order_[j]);
    }
  }
  cursor_ = 0;
  ++epoch_;
}

Batch DataLoader::assemble(std::int64_t first, std::int64_t count,
                           std::int64_t epoch, bool parallel) const {
  DROPBACK_TRACE_SPAN("dataload_assemble");
  const tensor::Shape sshape = dataset_.sample_shape();
  tensor::Shape bshape;
  bshape.push_back(count);
  bshape.insert(bshape.end(), sshape.begin(), sshape.end());
  Batch batch;
  batch.images = tensor::Tensor(bshape);
  batch.labels.resize(static_cast<std::size_t>(count));
  const std::int64_t sample_numel = tensor::numel_of(sshape);
  float* out = batch.images.data();
  std::int64_t* labels = batch.labels.data();
  const std::int64_t* order = order_.data() + first;
  // Each sample is written by exactly one shard, and the transform RNG is
  // seeded purely from (seed, epoch, dataset index), so the assembled bytes
  // are identical for every thread count and for the serial prefetch path.
  const auto fill = [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      const std::int64_t idx = order[i];
      float* dst = out + i * sample_numel;
      dataset_.copy_sample(idx, dst);
      labels[i] = dataset_.label(idx);
      if (options_.transform) {
        rng::Xorshift128 rng(sample_stream_seed(options_.seed, epoch, idx));
        options_.transform(dst, sample_numel, rng);
      }
    }
  };
  if (parallel) {
    util::parallel_for(/*grain=*/1, count, fill);
  } else {
    fill(0, count);
  }
  return batch;
}

void DataLoader::schedule_locked() {
  stage_first_ = cursor_;
  stage_count_ = std::min(options_.batch_size, dataset_.size() - cursor_);
  stage_epoch_ = epoch_;
  stage_ = Stage::kRequested;
  cv_.notify_all();
}

void DataLoader::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || stage_ == Stage::kRequested; });
    if (stop_) return;
    const std::int64_t first = stage_first_;
    const std::int64_t count = stage_count_;
    const std::int64_t epoch = stage_epoch_;
    stage_ = Stage::kAssembling;
    lock.unlock();
    // Serial assembly: the kernel pool's dispatcher is the training thread,
    // so the prefetcher must not issue a concurrent parallel_for. Serial
    // assembly is bitwise identical to the parallel path anyway.
    Batch batch;
    std::exception_ptr error;
    try {
      batch = assemble(first, count, epoch, /*parallel=*/false);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    stage_batch_ = std::move(batch);
    stage_error_ = error;
    stage_ = Stage::kReady;
    cv_.notify_all();
  }
}

bool DataLoader::next(Batch& batch) {
  if (!worker_.joinable()) {
    if (cursor_ >= dataset_.size()) return false;
    const std::int64_t count =
        std::min(options_.batch_size, dataset_.size() - cursor_);
    batch = assemble(cursor_, count, epoch_, /*parallel=*/true);
    cursor_ += count;
    return true;
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (stage_ == Stage::kIdle) {
    if (cursor_ >= dataset_.size()) return false;
    schedule_locked();
  }
  cv_.wait(lock, [&] { return stage_ == Stage::kReady; });
  if (stage_error_) {
    const std::exception_ptr error = stage_error_;
    stage_ = Stage::kIdle;
    stage_batch_ = Batch{};
    stage_error_ = nullptr;
    std::rethrow_exception(error);
  }
  batch = std::move(stage_batch_);
  stage_batch_ = Batch{};
  cursor_ = stage_first_ + stage_count_;
  stage_ = Stage::kIdle;
  // Kick off background assembly of the following batch before returning,
  // overlapping it with the caller's forward/backward/step on this one.
  if (cursor_ < dataset_.size()) schedule_locked();
  return true;
}

namespace {
// Versioned state layout: "DBD2" magic + version.
constexpr std::string_view kMagicV2 = "DBD2";
constexpr std::uint32_t kStateVersion = 2;
}  // namespace

void DataLoader::save_state(std::ostream& out) const {
  util::ByteWriter w(out, "DataLoader state");
  w.raw(kMagicV2);
  w.pod(kStateVersion);
  w.pod(dataset_.size());
  w.pod(options_.batch_size);
  w.pod<std::uint8_t>(options_.shuffle ? 1 : 0);
  const rng::Xorshift128::State rs = rng_.state();
  w.pod(rs.x);
  w.pod(rs.y);
  w.pod(rs.z);
  w.pod(rs.w);
  w.pod<std::uint8_t>(rs.has_cached_normal ? 1 : 0);
  w.pod(rs.cached_normal);
  w.pod(epoch_);
  w.pod(cursor_);
  w.raw(order_.data(), order_.size() * sizeof(std::int64_t));
  w.finish();
}

void DataLoader::load_state(std::istream& in) {
  if (worker_.joinable()) {
    std::unique_lock<std::mutex> lock(mu_);
    drain_stage_locked(lock);
  }
  util::ByteReader r(in, "DataLoader state");
  r.expect_magic(kMagicV2);
  const auto version = r.pod<std::uint32_t>();
  if (version != kStateVersion) {
    r.fail("unsupported version " + std::to_string(version));
  }
  const auto size = r.pod<std::int64_t>();
  const auto batch_size = r.pod<std::int64_t>();
  if (size != dataset_.size() || batch_size != options_.batch_size) {
    r.fail("dataset of " + std::to_string(size) + " samples / batch " +
           std::to_string(batch_size) + ", loader has " +
           std::to_string(dataset_.size()) + " / batch " +
           std::to_string(options_.batch_size));
  }
  if (r.boolean() != options_.shuffle) r.fail("shuffle flag mismatch");
  rng::Xorshift128::State rs{};
  rs.x = r.pod<std::uint32_t>();
  rs.y = r.pod<std::uint32_t>();
  rs.z = r.pod<std::uint32_t>();
  rs.w = r.pod<std::uint32_t>();
  rs.has_cached_normal = r.boolean();
  rs.cached_normal = r.pod<float>();
  const auto epoch = r.pod<std::int64_t>();
  if (epoch < 0) r.fail("negative epoch " + std::to_string(epoch));
  const auto cursor = r.pod<std::int64_t>();
  if (cursor < 0 || cursor > dataset_.size()) {
    r.fail("cursor " + std::to_string(cursor) + " outside dataset of " +
           std::to_string(dataset_.size()));
  }
  // The order is sized by the dataset, never by the input, and must be a
  // permutation: a repeated index would serve one sample twice and drop
  // another for the rest of the epoch.
  std::vector<std::int64_t> order(order_.size());
  r.raw(order.data(), order.size() * sizeof(std::int64_t));
  std::vector<bool> seen(order.size(), false);
  for (const std::int64_t idx : order) {
    if (idx < 0 || idx >= dataset_.size()) {
      r.fail("sample index " + std::to_string(idx) + " outside dataset of " +
             std::to_string(dataset_.size()));
    }
    if (seen[static_cast<std::size_t>(idx)]) {
      r.fail("sample index " + std::to_string(idx) + " appears twice");
    }
    seen[static_cast<std::size_t>(idx)] = true;
  }
  r.expect_end();
  rng_.set_state(rs);
  cursor_ = cursor;
  epoch_ = epoch;
  order_ = std::move(order);
}

}  // namespace dropback::data
