#include "core/sparse_weight_store.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>

#include "autograd/ops.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "rng/xorshift.hpp"
#include "util/container.hpp"
#include "util/fault_injection.hpp"
#include "util/io_error.hpp"

namespace dropback::core {
namespace {

namespace T = dropback::tensor;
namespace ag = dropback::autograd;

std::unique_ptr<nn::Sequential> tiny_net(std::uint64_t seed = 1) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Linear>(4, 6, seed);
  net->emplace<nn::Linear>(6, 3, seed + 1);
  return net;
}

void make_gradients(nn::Module& net, std::uint64_t seed = 9) {
  rng::Xorshift128 rng(seed);
  T::Tensor x({2, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
  ag::Variable input(x);
  ag::backward(ag::sum(ag::mul(net.forward(input), net.forward(input))));
}

/// DropBackOptimizer is non-movable (self-referential); hold it by pointer.
std::unique_ptr<DropBackOptimizer> trained_optimizer(nn::Sequential& net,
                                                     std::int64_t budget = 12) {
  DropBackConfig config;
  config.schedule = optim::constant_budget(budget);
  auto opt = std::make_unique<DropBackOptimizer>(net.collect_parameters(),
                                                 0.1F, config);
  for (int iter = 0; iter < 4; ++iter) {
    net.zero_grad();
    make_gradients(net, 40 + iter);
    opt->step();
  }
  return opt;
}

TEST(SparseWeightStore, CapturesExactlyTrackedWeights) {
  auto net = tiny_net();
  auto opt = trained_optimizer(*net, 12);
  auto store = SparseWeightStore::from_optimizer(*opt);
  EXPECT_EQ(store.num_params(), 4U);
  EXPECT_EQ(store.live_weights(), 12);
  EXPECT_EQ(store.dense_weights(), 51);
  EXPECT_NEAR(store.compression_ratio(), 51.0 / 12.0, 1e-9);
}

TEST(SparseWeightStore, MaterializeReconstructsModelExactly) {
  auto net = tiny_net();
  auto opt = trained_optimizer(*net, 12);
  auto store = SparseWeightStore::from_optimizer(*opt);
  const ParamIndex& index = opt->param_index();
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    T::Tensor dense = store.materialize(p);
    nn::Parameter& param = index.param(p);
    ASSERT_EQ(dense.shape(), param.var.value().shape());
    for (std::int64_t i = 0; i < dense.numel(); ++i) {
      EXPECT_EQ(dense[i], param.var.value()[i])
          << param.name << "[" << i << "]";
    }
  }
}

TEST(SparseWeightStore, ApplyToRestoresIntoFreshModel) {
  auto net = tiny_net(3);
  auto opt = trained_optimizer(*net, 10);
  auto store = SparseWeightStore::from_optimizer(*opt);
  // Fresh model with the same topology but different weights.
  auto fresh = tiny_net(99);
  auto fresh_params = fresh->collect_parameters();
  store.apply_to(fresh_params);
  auto trained_params = net->collect_parameters();
  for (std::size_t p = 0; p < fresh_params.size(); ++p) {
    for (std::int64_t i = 0; i < fresh_params[p]->numel(); ++i) {
      EXPECT_EQ(fresh_params[p]->var.value()[i],
                trained_params[p]->var.value()[i]);
    }
  }
}

TEST(SparseWeightStore, ApplyToChecksShapes) {
  auto net = tiny_net();
  auto opt = trained_optimizer(*net, 10);
  auto store = SparseWeightStore::from_optimizer(*opt);
  nn::Sequential other;
  other.emplace<nn::Linear>(5, 5, 1);
  EXPECT_THROW(store.apply_to(other.collect_parameters()),
               std::invalid_argument);
}

TEST(SparseWeightStore, SaveLoadRoundTrip) {
  auto net = tiny_net();
  auto opt = trained_optimizer(*net, 15);
  auto store = SparseWeightStore::from_optimizer(*opt);
  std::stringstream ss;
  store.save(ss);
  auto loaded = SparseWeightStore::load(ss);
  EXPECT_TRUE(store == loaded);
  EXPECT_EQ(loaded.live_weights(), store.live_weights());
}

TEST(SparseWeightStore, BytesMatchesSerializedSize) {
  auto net = tiny_net();
  auto opt = trained_optimizer(*net, 15);
  auto store = SparseWeightStore::from_optimizer(*opt);
  std::stringstream ss;
  store.save(ss);
  EXPECT_EQ(static_cast<std::int64_t>(ss.str().size()), store.bytes());
}

TEST(SparseWeightStore, CompressedSmallerThanDenseAtLowBudget) {
  // Use a model big enough that per-parameter header overhead (name, shape,
  // InitSpec) is amortized; on a 51-weight toy net the headers dominate.
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Linear>(40, 40, 1);
  DropBackConfig config;
  config.schedule = optim::constant_budget(80);
  DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  rng::Xorshift128 rng(5);
  T::Tensor x({2, 40});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
  ag::Variable input(x);
  ag::backward(ag::sum(ag::mul(net->forward(input), net->forward(input))));
  opt.step();
  auto store = SparseWeightStore::from_optimizer(opt);
  EXPECT_LT(store.bytes(), store.dense_bytes() / 4);
}

TEST(SparseWeightStore, LoadRejectsGarbage) {
  std::stringstream ss;
  ss << "not a store";
  EXPECT_THROW(SparseWeightStore::load(ss), std::runtime_error);
}

TEST(SparseWeightStore, LoadRejectsTruncated) {
  auto net = tiny_net();
  auto opt = trained_optimizer(*net, 15);
  auto store = SparseWeightStore::from_optimizer(*opt);
  std::stringstream ss;
  store.save(ss);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() - 7));
  EXPECT_THROW(SparseWeightStore::load(cut), std::runtime_error);
}

TEST(SparseWeightStore, FileRoundTrip) {
  auto net = tiny_net();
  auto opt = trained_optimizer(*net, 8);
  auto store = SparseWeightStore::from_optimizer(*opt);
  const std::string path = ::testing::TempDir() + "/store_roundtrip.dbsw";
  store.save_file(path);
  auto loaded = SparseWeightStore::load_file(path);
  EXPECT_TRUE(store == loaded);
}

TEST(SparseWeightStore, TrafficCounterCountsRegens) {
  auto net = tiny_net();
  auto opt = trained_optimizer(*net, 12);
  auto store = SparseWeightStore::from_optimizer(*opt);
  energy::TrafficCounter traffic;
  for (std::size_t p = 0; p < store.num_params(); ++p) {
    store.materialize(p, &traffic);
  }
  EXPECT_EQ(traffic.dram_reads, 12U);
  EXPECT_EQ(traffic.regens, 39U);
}

TEST(SparseWeightStore, FromParamsWithToleranceSkipsUnchanged) {
  auto net = tiny_net();
  auto params = net->collect_parameters();
  // Untouched network: every weight equals its init, so nothing is stored.
  auto store = SparseWeightStore::from_params(params, 0.0F);
  EXPECT_EQ(store.live_weights(), 0);
  // Perturb exactly three weights.
  params[0]->var.value()[0] += 1.0F;
  params[0]->var.value()[5] += 1.0F;
  params[2]->var.value()[1] -= 1.0F;
  store = SparseWeightStore::from_params(params, 0.0F);
  EXPECT_EQ(store.live_weights(), 3);
}

TEST(SparseWeightStore, UntrainedOptimizerStoresEverything) {
  // Before the first step the tracked set is "all tracked": the store is a
  // dense snapshot.
  auto net = tiny_net();
  DropBackConfig config;
  config.schedule = optim::constant_budget(10);
  DropBackOptimizer opt(net->collect_parameters(), 0.1F, config);
  auto store = SparseWeightStore::from_optimizer(opt);
  EXPECT_EQ(store.live_weights(), 51);
}

std::string serialized_store() {
  auto net = tiny_net();
  auto opt = trained_optimizer(*net, 15);
  auto store = SparseWeightStore::from_optimizer(*opt);
  std::stringstream ss;
  store.save(ss);
  return ss.str();
}

TEST(SparseWeightStore, FlippingAnyHeaderByteRaisesIoError) {
  const std::string good = serialized_store();
  // The container header is magic(4) + kind(4) + version(4) + section
  // count(4) + header CRC(4): a flip in any of those 20 bytes must surface
  // as a clean util::IoError, never a crash or a silently misloaded store.
  for (std::size_t off = 0;
       off < static_cast<std::size_t>(util::ContainerWriter::header_bytes());
       ++off) {
    std::string bad = good;
    bad[off] = static_cast<char>(bad[off] ^ 0xFF);
    std::stringstream in(bad);
    EXPECT_THROW(SparseWeightStore::load(in), util::IoError)
        << "header byte " << off;
  }
}

TEST(SparseWeightStore, FlippingSectionPreludeBytesRaisesIoError) {
  const std::string good = serialized_store();
  // The first section's prelude follows the 20-byte header: name length,
  // name, payload size, payload CRC. None of it is covered by the header
  // CRC, so each field needs its own detection path (name/record mismatch,
  // implausible size, checksum mismatch).
  const std::size_t begin =
      static_cast<std::size_t>(util::ContainerWriter::header_bytes());
  std::uint16_t name_len = 0;
  std::memcpy(&name_len, good.data() + begin, sizeof(name_len));
  const std::size_t prelude = 2 + name_len + 8 + 4;
  for (std::size_t off = begin; off < begin + prelude; ++off) {
    std::string bad = good;
    bad[off] = static_cast<char>(bad[off] ^ 0xFF);
    std::stringstream in(bad);
    EXPECT_THROW(SparseWeightStore::load(in), util::IoError)
        << "section prelude byte " << off;
  }
}

TEST(SparseWeightStore, FlippingABodyByteRaisesIoError) {
  const std::string good = serialized_store();
  for (const std::size_t off : {good.size() / 2, good.size() - 1}) {
    std::string bad = good;
    bad[off] = static_cast<char>(bad[off] ^ 0xFF);
    std::stringstream in(bad);
    EXPECT_THROW(SparseWeightStore::load(in), util::IoError)
        << "body byte " << off;
  }
}

TEST(SparseWeightStore, LegacyFlatFormatIsRejected) {
  auto net = tiny_net();
  auto opt = trained_optimizer(*net, 15);
  auto store = SparseWeightStore::from_optimizer(*opt);
  // The pre-checksum layout, by hand: magic, count, then the same record
  // encoding the container sections carry. It was never shipped, so load
  // refuses it.
  std::stringstream container;
  store.save(container);
  const util::ContainerReader reader =
      util::ContainerReader::read_from(container, "DBSW");
  std::stringstream legacy;
  legacy.write("DBSW", 4);
  const auto count = static_cast<std::uint32_t>(reader.num_sections());
  legacy.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (std::size_t p = 0; p < reader.num_sections(); ++p) {
    legacy << reader.section_bytes(p);
  }
  EXPECT_THROW(SparseWeightStore::load(legacy), util::IoError);
}

/// The persisted kind byte of a scaled-normal InitSpec.
constexpr auto kScaledNormalByte =
    static_cast<std::uint8_t>(rng::InitSpec::Kind::kScaledNormal);

/// A one-record DBSW of shape {2, 3}, built byte by byte, whose InitSpec
/// is (kind, scale, seed), holding `entries` as its tracked weights.
std::string one_record_store(std::uint8_t kind, float scale,
                             std::uint64_t seed,
                             const SparseEntries<float>& entries = {}) {
  util::ContainerWriter writer("DBSW");
  std::ostream& out = writer.add_section("w");
  const auto put = [&out](const auto& v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(std::uint16_t{1});
  out.write("w", 1);
  put(std::uint8_t{2});  // ndim
  put(std::int64_t{2});
  put(std::int64_t{3});
  put(kind);
  put(scale);
  put(seed);
  put(static_cast<std::uint64_t>(entries.size()));
  for (const auto& [index, value] : entries) {
    put(index);
    put(value);
  }
  std::stringstream crafted;
  writer.write_to(crafted);
  return crafted.str();
}

SparseWeightStore load_bytes(const std::string& bytes) {
  std::stringstream in(bytes);
  return SparseWeightStore::load(in);
}

TEST(SparseWeightStore, StoreOfTheRetiredRegenHashIsRejected) {
  // Kind byte 0 was the scaled normal of the splitmix64 + xorshift hash.
  // Its untracked weights cannot be regenerated by this build, so loading
  // fails with the typed error and says why.
  try {
    load_bytes(one_record_store(0, 0.5F, 7));
    FAIL() << "a store of the retired regen hash loaded";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("regen hash"), std::string::npos)
        << e.what();
  }
  // The current scaled-normal byte loads and regenerates its spec.
  EXPECT_EQ(load_bytes(one_record_store(kScaledNormalByte, 0.5F, 7))
                .record(0)
                .init,
            rng::InitSpec::scaled_normal(0.5F, 7));
  // Constant specs kept their byte: they regenerate no hash.
  const auto constant =
      static_cast<std::uint8_t>(rng::InitSpec::Kind::kConstant);
  EXPECT_EQ(load_bytes(one_record_store(constant, 1.0F, 0)).record(0).init,
            rng::InitSpec::constant(1.0F));
}

TEST(SparseWeightStore, EqualityComparesEntryBits) {
  // Equal stores are the ones whose saved bytes are equal: a NaN weight (a
  // diverged run) equals itself after a round trip, and -0 is not +0.
  const auto store = [](float value) {
    return load_bytes(one_record_store(kScaledNormalByte, 0.5F, 7,
                                       {{4U, value}}));
  };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(store(nan) == store(nan));
  EXPECT_FALSE(store(0.0F) == store(-0.0F));
  EXPECT_FALSE(store(1.0F) == store(nan));
  EXPECT_TRUE(store(1.0F) == store(1.0F));
}

TEST(SparseWeightStore, ShapeWhoseElementCountOverflowsIsRejected) {
  // Regression: a container with valid CRCs holding one record of shape
  // {2^32, 2^32} and no entries used to load, its element count wrapped by
  // signed overflow (dense_numel() read 0).
  util::ContainerWriter writer("DBSW");
  std::ostream& out = writer.add_section("w");
  const auto put = [&out](const auto& v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(std::uint16_t{1});
  out.write("w", 1);
  put(std::uint8_t{2});                // ndim
  put(std::int64_t{1} << 32);
  put(std::int64_t{1} << 32);
  put(kScaledNormalByte);              // init kind
  put(0.5F);                           // init scale
  put(std::uint64_t{7});               // init seed
  put(std::uint64_t{0});               // entry count
  std::stringstream crafted;
  writer.write_to(crafted);
  EXPECT_THROW(SparseWeightStore::load(crafted), util::IoError);
}

TEST(SparseWeightStore, LyingEntryCountFailsAsTruncationNotAllocation) {
  // A record of shape {2^20, 2^14} (2^34 elements, a valid element count)
  // whose header claims 2^34 entries, with valid CRCs and no entry bytes.
  // Loading must fail with the typed error after allocating about what the
  // section holds, not bad_alloc or OOM.
  util::ContainerWriter writer("DBSW");
  std::ostream& out = writer.add_section("w");
  const auto put = [&out](const auto& v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(std::uint16_t{1});
  out.write("w", 1);
  put(std::uint8_t{2});                // ndim
  put(std::int64_t{1} << 20);
  put(std::int64_t{1} << 14);
  put(kScaledNormalByte);              // init kind
  put(0.5F);                           // init scale
  put(std::uint64_t{7});               // init seed
  put(std::uint64_t{1} << 34);         // entry count
  put(std::uint32_t{0});               // one entry (index 0) ...
  put(1.0F);                           // ... then the section ends
  std::stringstream crafted;
  writer.write_to(crafted);
  EXPECT_THROW(SparseWeightStore::load(crafted), util::IoError);
}

TEST(SparseWeightStore, SaveFileIsAtomicOnDiskFailure) {
  auto net = tiny_net();
  auto opt = trained_optimizer(*net, 8);
  auto store = SparseWeightStore::from_optimizer(*opt);
  const std::string path = ::testing::TempDir() + "/store_atomic.dbsw";
  store.save_file(path);
  // Shrink the budget and try to overwrite while an ENOSPC fault is armed:
  // the original file must survive intact.
  auto opt2 = trained_optimizer(*net, 3);
  auto smaller = SparseWeightStore::from_optimizer(*opt2);
  util::arm_fault({util::FaultKind::kEnospc, 10});
  EXPECT_THROW(smaller.save_file(path), util::IoError);
  util::disarm_fault();
  EXPECT_TRUE(SparseWeightStore::load_file(path) == store);
}

/// Budget sweep for the store round trip.
class StoreBudgetSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(StoreBudgetSweep, RoundTripAtEveryBudget) {
  auto net = tiny_net();
  auto opt = trained_optimizer(*net, GetParam());
  auto store = SparseWeightStore::from_optimizer(*opt);
  std::stringstream ss;
  store.save(ss);
  EXPECT_TRUE(SparseWeightStore::load(ss) == store);
}

INSTANTIATE_TEST_SUITE_P(Budgets, StoreBudgetSweep,
                         ::testing::Values(1, 5, 20, 50));

}  // namespace
}  // namespace dropback::core
