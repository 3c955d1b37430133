#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "data/dataloader.hpp"
#include "data/synthetic_cifar.hpp"
#include "data/synthetic_mnist.hpp"
#include "rng/xorshift.hpp"
#include "util/io_error.hpp"

namespace dropback::data {
namespace {

namespace T = dropback::tensor;

TEST(InMemoryDatasetTest, BasicAccessors) {
  T::Tensor images({4, 2, 2});
  for (std::int64_t i = 0; i < 16; ++i) images[i] = static_cast<float>(i);
  InMemoryDataset ds(images, {0, 1, 0, 1}, 2);
  EXPECT_EQ(ds.size(), 4);
  EXPECT_EQ(ds.sample_shape(), (T::Shape{2, 2}));
  EXPECT_EQ(ds.num_classes(), 2);
  EXPECT_EQ(ds.label(3), 1);
  float buf[4];
  ds.copy_sample(2, buf);
  EXPECT_FLOAT_EQ(buf[0], 8.0F);
  EXPECT_FLOAT_EQ(buf[3], 11.0F);
}

TEST(InMemoryDatasetTest, RejectsMismatchedLabels) {
  EXPECT_THROW(InMemoryDataset(T::Tensor({4, 2}), {0, 1}, 2),
               std::invalid_argument);
}

TEST(InMemoryDatasetTest, GatherBuildsBatch) {
  T::Tensor images({4, 3});
  for (std::int64_t i = 0; i < 12; ++i) images[i] = static_cast<float>(i);
  InMemoryDataset ds(images, {0, 1, 2, 3}, 4);
  Batch batch = ds.gather({3, 0});
  EXPECT_EQ(batch.size(), 2);
  EXPECT_EQ(batch.images.shape(), (T::Shape{2, 3}));
  EXPECT_FLOAT_EQ(batch.images[0], 9.0F);  // sample 3 first
  EXPECT_EQ(batch.labels[0], 3);
  EXPECT_EQ(batch.labels[1], 0);
  EXPECT_THROW(ds.gather({4}), std::invalid_argument);
}

TEST(SyntheticMnistTest, ShapesLabelsAndRange) {
  SyntheticMnistOptions opt;
  opt.num_samples = 50;
  auto ds = make_synthetic_mnist(opt);
  EXPECT_EQ(ds->size(), 50);
  EXPECT_EQ(ds->sample_shape(), (T::Shape{1, 28, 28}));
  EXPECT_EQ(ds->num_classes(), 10);
  for (std::int64_t i = 0; i < ds->size(); ++i) {
    EXPECT_GE(ds->label(i), 0);
    EXPECT_LT(ds->label(i), 10);
  }
  EXPECT_GE(ds->images().min(), 0.0F);
  EXPECT_LE(ds->images().max(), 1.0F);
}

TEST(SyntheticMnistTest, ClassesAreBalanced) {
  SyntheticMnistOptions opt;
  opt.num_samples = 100;
  auto ds = make_synthetic_mnist(opt);
  std::vector<int> counts(10, 0);
  for (std::int64_t i = 0; i < 100; ++i) ++counts[ds->label(i)];
  for (int c : counts) EXPECT_EQ(c, 10);
}

TEST(SyntheticMnistTest, DeterministicPerSeed) {
  SyntheticMnistOptions opt;
  opt.num_samples = 10;
  auto a = make_synthetic_mnist(opt);
  auto b = make_synthetic_mnist(opt);
  for (std::int64_t i = 0; i < a->images().numel(); ++i) {
    ASSERT_EQ(a->images()[i], b->images()[i]);
  }
  opt.seed = 999;
  auto c = make_synthetic_mnist(opt);
  bool differs = false;
  for (std::int64_t i = 0; i < a->images().numel() && !differs; ++i) {
    if (a->images()[i] != c->images()[i]) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(SyntheticMnistTest, DigitGlyphsAreDistinct) {
  // Noise-free renders of different digits must differ substantially; the
  // classes would otherwise be unlearnable.
  float d0[784], d1[784], d8[784];
  render_digit(0, 14, 14, 1.0F, 0.0F, 1.6F, d0);
  render_digit(1, 14, 14, 1.0F, 0.0F, 1.6F, d1);
  render_digit(8, 14, 14, 1.0F, 0.0F, 1.6F, d8);
  auto l2 = [](const float* a, const float* b) {
    double acc = 0.0;
    for (int i = 0; i < 784; ++i) acc += (a[i] - b[i]) * (a[i] - b[i]);
    return std::sqrt(acc);
  };
  EXPECT_GT(l2(d0, d1), 3.0);
  EXPECT_GT(l2(d1, d8), 3.0);
  // 8 contains 0's segments: closer to 0 than 1 is.
  EXPECT_LT(l2(d0, d8), l2(d1, d8));
}

TEST(SyntheticMnistTest, RenderRejectsBadDigit) {
  float buf[784];
  EXPECT_THROW(render_digit(10, 14, 14, 1, 0, 1.5F, buf),
               std::invalid_argument);
  EXPECT_THROW(render_digit(-1, 14, 14, 1, 0, 1.5F, buf),
               std::invalid_argument);
}

TEST(SyntheticMnistTest, NearestCentroidBeatsChance) {
  // Sanity: the task carries class signal. Fit per-class mean images on a
  // train split and classify a held-out split by nearest centroid.
  SyntheticMnistOptions opt;
  opt.num_samples = 600;
  auto ds = make_synthetic_mnist(opt);
  std::vector<std::vector<double>> centroid(10,
                                            std::vector<double>(784, 0.0));
  std::vector<int> counts(10, 0);
  for (std::int64_t i = 0; i < 500; ++i) {
    float buf[784];
    ds->copy_sample(i, buf);
    auto& c = centroid[ds->label(i)];
    for (int p = 0; p < 784; ++p) c[p] += buf[p];
    ++counts[ds->label(i)];
  }
  for (int k = 0; k < 10; ++k) {
    for (int p = 0; p < 784; ++p) centroid[k][p] /= counts[k];
  }
  int hits = 0;
  for (std::int64_t i = 500; i < 600; ++i) {
    float buf[784];
    ds->copy_sample(i, buf);
    int best = -1;
    double best_d = 1e18;
    for (int k = 0; k < 10; ++k) {
      double d = 0.0;
      for (int p = 0; p < 784; ++p) {
        d += (buf[p] - centroid[k][p]) * (buf[p] - centroid[k][p]);
      }
      if (d < best_d) {
        best_d = d;
        best = k;
      }
    }
    if (best == ds->label(i)) ++hits;
  }
  EXPECT_GT(hits, 45);  // chance would be ~10
}

TEST(SyntheticCifarTest, ShapesLabelsAndRange) {
  SyntheticCifarOptions opt;
  opt.num_samples = 40;
  auto ds = make_synthetic_cifar(opt);
  EXPECT_EQ(ds->size(), 40);
  EXPECT_EQ(ds->sample_shape(), (T::Shape{3, 32, 32}));
  EXPECT_EQ(ds->num_classes(), 10);
  EXPECT_GE(ds->images().min(), 0.0F);
  EXPECT_LE(ds->images().max(), 1.0F);
}

TEST(SyntheticCifarTest, ClassesCarrySignal) {
  SyntheticCifarOptions opt;
  opt.num_samples = 400;
  auto ds = make_synthetic_cifar(opt);
  // Mean color per class differs strongly across at least some pairs.
  const std::int64_t spp = 3 * 32 * 32;
  std::vector<std::vector<double>> mean_rgb(10, std::vector<double>(3, 0.0));
  std::vector<int> counts(10, 0);
  std::vector<float> buf(static_cast<std::size_t>(spp));
  for (std::int64_t i = 0; i < ds->size(); ++i) {
    ds->copy_sample(i, buf.data());
    const int cls = static_cast<int>(ds->label(i));
    for (int ch = 0; ch < 3; ++ch) {
      double acc = 0.0;
      for (int p = 0; p < 1024; ++p) acc += buf[ch * 1024 + p];
      mean_rgb[cls][ch] += acc / 1024.0;
    }
    ++counts[cls];
  }
  for (int k = 0; k < 10; ++k) {
    for (int ch = 0; ch < 3; ++ch) mean_rgb[k][ch] /= counts[k];
  }
  // Class 0 (red palette) vs class 2 (blue palette).
  EXPECT_GT(mean_rgb[0][0], mean_rgb[2][0]);
  EXPECT_GT(mean_rgb[2][2], mean_rgb[0][2]);
}

TEST(SyntheticCifarTest, DeterministicPerSeed) {
  SyntheticCifarOptions opt;
  opt.num_samples = 10;
  auto a = make_synthetic_cifar(opt);
  auto b = make_synthetic_cifar(opt);
  for (std::int64_t i = 0; i < a->images().numel(); ++i) {
    ASSERT_EQ(a->images()[i], b->images()[i]);
  }
}

TEST(DataLoaderTest, CoversEveryIndexOncePerEpoch) {
  SyntheticMnistOptions opt;
  opt.num_samples = 23;  // deliberately not divisible by batch size
  auto ds = make_synthetic_mnist(opt);
  DataLoader loader(*ds, 5, /*shuffle=*/true, 7);
  EXPECT_EQ(loader.num_batches(), 5);
  Batch batch;
  std::multiset<std::int64_t> seen_labels;
  std::int64_t total = 0;
  while (loader.next(batch)) total += batch.size();
  EXPECT_EQ(total, 23);
}

TEST(DataLoaderTest, ShuffleChangesOrderDeterministically) {
  SyntheticMnistOptions opt;
  opt.num_samples = 30;
  auto ds = make_synthetic_mnist(opt);
  DataLoader a(*ds, 30, true, 7);
  DataLoader b(*ds, 30, true, 7);
  DataLoader c(*ds, 30, false, 7);
  Batch ba, bb, bc;
  a.next(ba);
  b.next(bb);
  c.next(bc);
  EXPECT_EQ(ba.labels, bb.labels);  // same seed, same order
  EXPECT_NE(ba.labels, bc.labels);  // shuffled differs from sequential
  // Sequential order is 0,1,2,...: labels cycle mod 10.
  for (std::int64_t i = 0; i < 30; ++i) {
    EXPECT_EQ(bc.labels[static_cast<std::size_t>(i)], i % 10);
  }
}

TEST(DataLoaderTest, StartEpochReshuffles) {
  SyntheticMnistOptions opt;
  opt.num_samples = 50;
  auto ds = make_synthetic_mnist(opt);
  DataLoader loader(*ds, 50, true, 3);
  Batch first, second;
  loader.next(first);
  loader.start_epoch();
  loader.next(second);
  EXPECT_NE(first.labels, second.labels);
}

TEST(DataLoaderTest, RejectsBadBatchSize) {
  SyntheticMnistOptions opt;
  opt.num_samples = 5;
  auto ds = make_synthetic_mnist(opt);
  EXPECT_THROW(DataLoader(*ds, 0, false), std::invalid_argument);
}

/// Batch size sweep: total samples delivered is invariant.
class LoaderSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(LoaderSweep, DeliversWholeDataset) {
  SyntheticCifarOptions opt;
  opt.num_samples = 37;
  auto ds = make_synthetic_cifar(opt);
  DataLoader loader(*ds, GetParam(), true, 5);
  Batch batch;
  std::int64_t total = 0;
  while (loader.next(batch)) {
    EXPECT_LE(batch.size(), GetParam());
    total += batch.size();
  }
  EXPECT_EQ(total, 37);
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, LoaderSweep,
                         ::testing::Values(1, 2, 7, 16, 37, 64));

// ---------------------------------------------------------------------------
// Prefetch pipeline and deterministic per-sample transforms.
// ---------------------------------------------------------------------------

/// Collects all remaining (images-bytes, labels) pairs the loader delivers.
std::vector<std::pair<std::vector<float>, std::vector<std::int64_t>>>
collect_batches(DataLoader& loader) {
  std::vector<std::pair<std::vector<float>, std::vector<std::int64_t>>> out;
  Batch batch;
  while (loader.next(batch)) {
    out.emplace_back(std::vector<float>(batch.images.data(),
                                        batch.images.data() +
                                            batch.images.numel()),
                     batch.labels);
  }
  return out;
}

TEST(DataLoaderTest, PrefetchDeliversBitwiseIdenticalBatches) {
  SyntheticMnistOptions opt;
  opt.num_samples = 45;  // ragged final batch
  auto ds = make_synthetic_mnist(opt);
  DataLoaderOptions base;
  base.batch_size = 8;
  base.shuffle = true;
  base.seed = 77;
  base.transform = uniform_noise_transform(0.25F);

  DataLoaderOptions sync = base;
  DataLoaderOptions pre = base;
  pre.prefetch_batches = 1;
  DataLoader a(*ds, sync);
  DataLoader b(*ds, pre);
  for (int epoch = 0; epoch < 2; ++epoch) {
    if (epoch > 0) {
      a.start_epoch();
      b.start_epoch();
    }
    const auto ba = collect_batches(a);
    const auto bb = collect_batches(b);
    ASSERT_EQ(ba.size(), bb.size());
    for (std::size_t i = 0; i < ba.size(); ++i) {
      ASSERT_EQ(ba[i].second, bb[i].second) << "labels, batch " << i;
      ASSERT_EQ(ba[i].first.size(), bb[i].first.size());
      ASSERT_EQ(std::memcmp(ba[i].first.data(), bb[i].first.data(),
                            ba[i].first.size() * sizeof(float)),
                0)
          << "image bytes, epoch " << epoch << " batch " << i;
    }
  }
}

TEST(DataLoaderTest, TransformStreamFollowsSampleNotOrderOrPrefetch) {
  // A sample's augmentation bytes depend only on (seed, epoch, dataset
  // index) — shuffling the epoch order or moving assembly to the prefetch
  // thread must not change them. Identify samples by label (unique here).
  const std::int64_t n = 12;
  T::Tensor images({n, 4});
  std::vector<std::int64_t> labels;
  for (std::int64_t i = 0; i < n; ++i) {
    labels.push_back(i);
    for (std::int64_t p = 0; p < 4; ++p) {
      images[i * 4 + p] = static_cast<float>(i * 4 + p);
    }
  }
  InMemoryDataset ds(images, labels, n);

  const auto by_sample = [](DataLoader& loader) {
    std::map<std::int64_t, std::vector<float>> out;
    Batch b;
    while (loader.next(b)) {
      for (std::int64_t i = 0; i < b.size(); ++i) {
        const float* p = b.images.data() + i * 4;
        out[b.labels[static_cast<std::size_t>(i)]] =
            std::vector<float>(p, p + 4);
      }
    }
    return out;
  };

  DataLoaderOptions sequential;
  sequential.batch_size = 5;
  sequential.seed = 123;
  sequential.transform = uniform_noise_transform(0.5F);
  DataLoaderOptions shuffled = sequential;
  shuffled.shuffle = true;
  shuffled.prefetch_batches = 1;

  DataLoader a(ds, sequential);
  DataLoader b(ds, shuffled);
  const auto ma = by_sample(a);
  const auto mb = by_sample(b);
  ASSERT_EQ(ma.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(mb.size(), static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::memcmp(ma.at(i).data(), mb.at(i).data(),
                          4 * sizeof(float)),
              0)
        << "sample " << i;
  }

  // A later epoch draws a different stream for the same sample.
  a.start_epoch();
  const auto ma1 = by_sample(a);
  bool any_differs = false;
  for (std::int64_t i = 0; i < n && !any_differs; ++i) {
    any_differs = std::memcmp(ma.at(i).data(), ma1.at(i).data(),
                              4 * sizeof(float)) != 0;
  }
  EXPECT_TRUE(any_differs);
}

TEST(DataLoaderTest, SampleStreamSeedsAreDistinct) {
  std::set<std::uint64_t> seen;
  for (std::int64_t epoch = 0; epoch < 8; ++epoch) {
    for (std::int64_t idx = 0; idx < 64; ++idx) {
      seen.insert(sample_stream_seed(42, epoch, idx));
    }
  }
  EXPECT_EQ(seen.size(), 8U * 64U);
}

// ---------------------------------------------------------------------------
// State serialization: v2 round trips; unversioned v1 and corruption throw.
// ---------------------------------------------------------------------------

TEST(DataLoaderStateTest, V2RoundTripResumesMidEpochWithPrefetch) {
  SyntheticMnistOptions opt;
  opt.num_samples = 40;
  auto ds = make_synthetic_mnist(opt);
  DataLoaderOptions options;
  options.batch_size = 8;
  options.shuffle = true;
  options.seed = 31;
  options.prefetch_batches = 1;
  options.transform = uniform_noise_transform(0.1F);

  DataLoader a(*ds, options);
  a.start_epoch();  // epoch 1, fresh shuffle
  Batch scratch;
  ASSERT_TRUE(a.next(scratch));
  ASSERT_TRUE(a.next(scratch));  // mid-epoch: 2 of 5 batches consumed

  std::ostringstream out(std::ios::binary);
  a.save_state(out);
  const std::string bytes = out.str();
  // "DBD2" + u32 version leads the stream.
  ASSERT_GE(bytes.size(), 8U);
  EXPECT_EQ(bytes.substr(0, 4), "DBD2");

  DataLoader b(*ds, options);
  std::istringstream in(bytes, std::ios::binary);
  b.load_state(in);
  EXPECT_EQ(b.epoch(), a.epoch());

  // Both finish this epoch and run the next identically.
  for (int epoch = 0; epoch < 2; ++epoch) {
    if (epoch > 0) {
      a.start_epoch();
      b.start_epoch();
    }
    const auto ba = collect_batches(a);
    const auto bb = collect_batches(b);
    ASSERT_EQ(ba.size(), bb.size());
    for (std::size_t i = 0; i < ba.size(); ++i) {
      ASSERT_EQ(ba[i].second, bb[i].second);
      ASSERT_EQ(std::memcmp(ba[i].first.data(), bb[i].first.data(),
                            ba[i].first.size() * sizeof(float)),
                0);
    }
  }
}

TEST(DataLoaderStateTest, SnapshotIdenticalWithPrefetchOnAndOff) {
  // The cursor counts consumed batches, never staged ones, so the staged
  // batch inside the prefetcher must not leak into the snapshot.
  SyntheticMnistOptions opt;
  opt.num_samples = 32;
  auto ds = make_synthetic_mnist(opt);
  DataLoaderOptions sync;
  sync.batch_size = 8;
  sync.shuffle = true;
  sync.seed = 5;
  DataLoaderOptions pre = sync;
  pre.prefetch_batches = 1;

  DataLoader a(*ds, sync);
  DataLoader b(*ds, pre);
  Batch scratch;
  ASSERT_TRUE(a.next(scratch));
  ASSERT_TRUE(b.next(scratch));
  std::ostringstream sa(std::ios::binary), sb(std::ios::binary);
  a.save_state(sa);
  b.save_state(sb);
  EXPECT_EQ(sa.str(), sb.str());
}

/// Hand-writes the never-shipped unversioned "DBDL" layout: magic, size,
/// batch, shuffle flag, RNG state, cursor, order (no version, no epoch).
std::string legacy_v1_state_bytes(std::int64_t size, std::int64_t batch,
                                  bool shuffle, std::int64_t cursor,
                                  const std::vector<std::int64_t>& order) {
  std::ostringstream out(std::ios::binary);
  const auto put = [&out](const auto& v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  out.write("DBDL", 4);
  put(size);
  put(batch);
  put(static_cast<std::uint8_t>(shuffle ? 1 : 0));
  rng::Xorshift128 rng(99);
  const rng::Xorshift128::State rs = rng.state();
  put(rs.x);
  put(rs.y);
  put(rs.z);
  put(rs.w);
  put(static_cast<std::uint8_t>(0));
  put(0.0F);
  put(cursor);
  for (const std::int64_t idx : order) put(idx);
  return out.str();
}

TEST(DataLoaderStateTest, UnversionedV1StateIsRejected) {
  SyntheticMnistOptions opt;
  opt.num_samples = 20;
  auto ds = make_synthetic_mnist(opt);
  // Reversed order, cursor after the first of four 5-sample batches.
  std::vector<std::int64_t> order(20);
  for (std::int64_t i = 0; i < 20; ++i) order[static_cast<std::size_t>(i)] =
      19 - i;
  DataLoader loader(*ds, 5, true);
  std::istringstream in(legacy_v1_state_bytes(20, 5, true, 5, order),
                        std::ios::binary);
  EXPECT_THROW(loader.load_state(in), util::IoError);
}

TEST(DataLoaderStateTest, CorruptStateIsRejected) {
  SyntheticMnistOptions opt;
  opt.num_samples = 16;
  auto ds = make_synthetic_mnist(opt);
  DataLoaderOptions options;
  options.batch_size = 4;
  options.shuffle = true;
  DataLoader loader(*ds, options);
  std::ostringstream out(std::ios::binary);
  loader.save_state(out);
  const std::string good = out.str();

  const auto load = [&](std::string bytes) {
    DataLoader fresh(*ds, options);
    std::istringstream in(bytes, std::ios::binary);
    fresh.load_state(in);
  };
  load(good);  // sanity: unmodified bytes are accepted

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_THROW(load(bad_magic), util::IoError);

  std::string future_version = good;
  future_version[4] = 9;  // u32 version field little-endian low byte
  EXPECT_THROW(load(future_version), util::IoError);

  EXPECT_THROW(load(good.substr(0, good.size() / 2)), util::IoError);

  // Layout after the 8-byte header: size(8) batch(8) shuffle(1) rng(21)
  // epoch(8) cursor(8) order(...).
  const std::size_t cursor_off = 8 + 8 + 8 + 1 + 21 + 8;
  std::string bad_cursor = good;
  const std::int64_t huge = 1000;
  std::memcpy(&bad_cursor[cursor_off], &huge, sizeof(huge));
  EXPECT_THROW(load(bad_cursor), util::IoError);

  std::string bad_index = good;
  std::memcpy(&bad_index[cursor_off + 8], &huge, sizeof(huge));
  EXPECT_THROW(load(bad_index), util::IoError);

  // Mismatched loader geometry is rejected even for well-formed bytes.
  DataLoaderOptions other = options;
  other.batch_size = 8;
  DataLoader mismatched(*ds, other);
  std::istringstream in(good, std::ios::binary);
  EXPECT_THROW(mismatched.load_state(in), util::IoError);
}

TEST(DataLoaderStateTest, PrefetchWorkerErrorSurfacesInNext) {
  // A throwing transform runs on the prefetch thread; the exception must be
  // relayed to the consumer instead of terminating the process.
  SyntheticMnistOptions opt;
  opt.num_samples = 8;
  auto ds = make_synthetic_mnist(opt);
  DataLoaderOptions options;
  options.batch_size = 4;
  options.prefetch_batches = 1;
  options.transform = [](float*, std::int64_t, rng::Xorshift128&) {
    throw std::runtime_error("augmentation failed");
  };
  DataLoader loader(*ds, options);
  Batch batch;
  EXPECT_THROW(loader.next(batch), std::runtime_error);
}

}  // namespace
}  // namespace dropback::data
