// Seeded mutation fuzzer over every persisted format's loader.
//
// Each format starts from the bytes the format_pin_test fixture saves. A
// case mutates them and hands them to the real loader:
//   * bit flips, byte overwrites, truncation, extension and duplicated
//     ranges at random (seeded) positions;
//   * every u32 and u64 field position set to 0, 1, 2^31 and the maximum,
//     swept exhaustively.
// Mutations hit the raw file and, for container formats, each section
// payload, after which the container is re-sealed with fresh CRCs so the
// mutation reaches the section parser instead of tripping a checksum.
// Container formats also have every section dropped, duplicated and
// swapped with every other, re-sealed the same way.
//
// A case passes when the load throws util::IoError, or when it succeeds and
// saving the loaded state reproduces the input exactly. Exact reproduction
// implies save->load is idempotent, and it is what exposes a decoder that
// quietly maps a byte it does not understand onto some other value (an
// unknown InitSpec kind loading as a constant, a flag byte of 2 loading as
// true). Any other exception, a crash, or a sanitizer report fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "format_fixture.hpp"
#include "nn/checkpoint.hpp"
#include "optim/momentum.hpp"
#include "quant/quantized_store.hpp"
#include "rng/xorshift.hpp"
#include "tensor/serialize.hpp"
#include "train/training_checkpoint.hpp"
#include "util/container.hpp"
#include "util/io_error.hpp"

namespace dropback {
namespace {

using format_fixture::Fixture;
using format_fixture::fixture_dataset;

constexpr std::uint64_t kSeed = 0xF022C0DEC;
/// Random cases per format, on top of the exhaustive field sweep.
constexpr int kRandomCases = 10000;
constexpr std::uint64_t kFieldValues[] = {0, 1, std::uint64_t{1} << 31,
                                          ~std::uint64_t{0}};

/// Restores a format's state from its bytes (throwing util::IoError on
/// rejection), and saves that state back.
using Load = std::function<void(std::istream&)>;
using Save = std::function<void(std::ostream&)>;

template <typename SaveFn>
std::string saved(SaveFn&& save) {
  std::ostringstream out(std::ios::binary);
  save(out);
  return out.str();
}

/// A container's (name, payload) sections.
using Sections = std::vector<std::pair<std::string, std::string>>;

Sections sections_of(const std::string& bytes, const std::string& kind) {
  std::istringstream in(bytes, std::ios::binary);
  const auto reader = util::ContainerReader::read_from(in, kind);
  Sections sections;
  for (std::size_t i = 0; i < reader.num_sections(); ++i) {
    sections.emplace_back(reader.section_name(i), reader.section_bytes(i));
  }
  return sections;
}

/// A `kind` container of `sections`, sealed with fresh CRCs.
std::string seal(const std::string& kind, const Sections& sections) {
  util::ContainerWriter writer(kind);
  for (const auto& [name, payload] : sections) {
    writer.add_section(name) << payload;
  }
  return saved([&](std::ostream& out) { writer.write_to(out); });
}

/// One place a mutation can land: the raw file, or one section payload of
/// a container.
struct Target {
  static constexpr std::size_t kFile = ~std::size_t{0};
  std::string label;
  std::string bytes;
  std::size_t section = kFile;
};

void set_field(std::string& b, std::size_t at, std::size_t width,
               std::uint64_t value) {
  std::memcpy(b.data() + at, &value, width);  // little-endian low bytes
}

/// One random structural mutation; returns its description.
std::string mutate(std::string& b, rng::Xorshift128& rng) {
  const auto size = static_cast<std::uint32_t>(b.size());
  const auto pick = [&](std::uint32_t n) {
    return n == 0 ? 0 : rng.uniform_int(n);
  };
  switch (rng.uniform_int(6)) {
    case 0: {
      if (size == 0) break;
      const std::uint32_t at = pick(size);
      const std::uint32_t bit = pick(8);
      b[at] = static_cast<char>(b[at] ^ (1 << bit));
      return "flip bit " + std::to_string(bit) + " @" + std::to_string(at);
    }
    case 1: {
      if (size == 0) break;
      const std::uint32_t at = pick(size);
      b[at] = static_cast<char>(rng.next_u32());
      return "overwrite @" + std::to_string(at);
    }
    case 2: {
      const std::uint32_t keep = pick(size);
      b.resize(keep);
      return "truncate to " + std::to_string(keep);
    }
    case 3: {
      const std::uint32_t extra = 1 + pick(16);
      for (std::uint32_t i = 0; i < extra; ++i) {
        b.push_back(static_cast<char>(rng.next_u32()));
      }
      return "extend by " + std::to_string(extra);
    }
    case 4: {
      if (size == 0) break;
      const std::uint32_t from = pick(size);
      const std::uint32_t len =
          1 + pick(std::min<std::uint32_t>(32, size - from));
      const std::uint32_t to = pick(size + 1);
      b.insert(to, b.substr(from, len));
      return "duplicate [" + std::to_string(from) + ", +" +
             std::to_string(len) + ") at " + std::to_string(to);
    }
    default: {
      const std::size_t width = rng.uniform_int(2) == 0 ? 4 : 8;
      if (size < width) break;
      const std::uint32_t at =
          pick(size - static_cast<std::uint32_t>(width) + 1);
      const std::uint64_t value = kFieldValues[pick(4)];
      set_field(b, at, width, value);
      return "u" + std::to_string(width * 8) + " @" + std::to_string(at) +
             " = " + std::to_string(value);
    }
  }
  b.push_back('\0');
  return "extend by 1";
}

/// Fuzzes one format. The seed bytes are what `save` writes before any
/// case runs; `kind` is the container kind, "" for a flat format.
class Fuzzer {
 public:
  Fuzzer(std::string name, std::string kind, Load load, Save save)
      : name_(std::move(name)),
        kind_(std::move(kind)),
        load_(std::move(load)),
        save_(std::move(save)) {}

  void run() {
    const std::string seed = saved(save_);
    const Sections sections =
        kind_.empty() ? Sections{} : sections_of(seed, kind_);
    std::vector<Target> targets = {{"file", seed}};
    for (std::size_t s = 0; s < sections.size(); ++s) {
      targets.push_back(
          {"section " + sections[s].first, sections[s].second, s});
    }
    const auto input = [&](const Target& t, const std::string& b) {
      if (t.section == Target::kFile) return b;
      Sections mutated = sections;
      mutated[t.section].second = b;
      return seal(kind_, mutated);
    };
    // The container layout: every section dropped and duplicated, every
    // pair of sections swapped.
    for (std::size_t i = 0; i < sections.size(); ++i) {
      const auto offset = static_cast<std::ptrdiff_t>(i);
      Sections dropped = sections;
      dropped.erase(dropped.begin() + offset);
      check(seal(kind_, dropped), [&] { return "drop " + sections[i].first; });
      Sections duplicated = sections;
      duplicated.insert(duplicated.begin() + offset, sections[i]);
      check(seal(kind_, duplicated),
            [&] { return "duplicate " + sections[i].first; });
      for (std::size_t j = i + 1; j < sections.size(); ++j) {
        Sections swapped = sections;
        std::swap(swapped[i], swapped[j]);
        check(seal(kind_, swapped), [&] {
          return "swap " + sections[i].first + ", " + sections[j].first;
        });
      }
    }
    // The exhaustive sweep: every u32/u64 field position, every value.
    for (const Target& t : targets) {
      for (std::size_t width : {4U, 8U}) {
        for (std::size_t at = 0; at + width <= t.bytes.size(); ++at) {
          for (std::uint64_t value : kFieldValues) {
            std::string b = t.bytes;
            set_field(b, at, width, value);
            check(input(t, b), [&] {
              return t.label + ": u" + std::to_string(width * 8) + " @" +
                     std::to_string(at) + " = " + std::to_string(value);
            });
          }
        }
      }
    }
    // Seeded random cases: one to three stacked mutations on one target.
    rng::Xorshift128 rng(kSeed);
    for (int c = 0; c < kRandomCases; ++c) {
      const Target& t =
          targets[rng.uniform_int(static_cast<std::uint32_t>(targets.size()))];
      std::string b = t.bytes;
      std::string what = t.label + ":";
      const std::uint32_t n = 1 + rng.uniform_int(3);
      for (std::uint32_t m = 0; m < n; ++m) what += " " + mutate(b, rng);
      check(input(t, b), [&] { return what; });
    }
    std::printf("%s: %d cases, %d rejected, %d accepted\n", name_.c_str(),
                cases_, rejected_, accepted_);
    EXPECT_GE(cases_, 10000) << name_;
    EXPECT_GT(rejected_, 0) << name_;
    EXPECT_GT(accepted_, 0) << name_;
    EXPECT_EQ(failures_, 0) << name_ << ": " << failures_ << " of " << cases_
                            << " cases failed";
  }

 private:
  void check(const std::string& input,
             const std::function<std::string()>& what) {
    ++cases_;
    try {
      std::istringstream in(input, std::ios::binary);
      load_(in);
    } catch (const util::IoError&) {
      ++rejected_;
      return;
    } catch (const std::exception& e) {
      report(what() + ": threw a non-IoError: " + e.what());
      return;
    }
    ++accepted_;
    const std::string resaved = saved(save_);
    if (resaved != input) {
      report(what() + ": accepted, but the loaded state re-saves to " +
             std::to_string(resaved.size()) + " bytes that differ from the " +
             std::to_string(input.size()) + " input bytes");
    }
  }

  void report(const std::string& failure) {
    if (++failures_ <= 10) ADD_FAILURE() << name_ << " " << failure;
  }

  const std::string name_;
  const std::string kind_;
  const Load load_;
  const Save save_;
  int cases_ = 0;
  int rejected_ = 0;
  int accepted_ = 0;
  int failures_ = 0;
};

TEST(CodecFuzz, Dbt1Tensor) {
  Fixture fix(optim::constant_budget(20, 3));
  tensor::Tensor t = fix.params[0]->var.value();
  Fuzzer("DBT1", "", [&](std::istream& in) { t = tensor::load_tensor(in); },
         [&](std::ostream& out) { tensor::save_tensor(out, t); })
      .run();
}

TEST(CodecFuzz, DbcpCheckpoint) {
  Fixture fix(optim::constant_budget(20, 3));
  Fuzzer("DBCP", "DBCP",
         [&](std::istream& in) { nn::load_checkpoint(in, fix.params); },
         [&](std::ostream& out) { nn::save_checkpoint(out, fix.params); })
      .run();
}

TEST(CodecFuzz, DbswSparseStore) {
  Fixture fix(optim::constant_budget(20, 3));
  core::SparseWeightStore store = fix.store();
  Fuzzer("DBSW", "DBSW",
         [&](std::istream& in) { store = core::SparseWeightStore::load(in); },
         [&](std::ostream& out) { store.save(out); })
      .run();
}

TEST(CodecFuzz, DbqsQuantizedStore) {
  Fixture fix(optim::constant_budget(20, 3));
  auto q = quant::QuantizedSparseStore::quantize(fix.store(), 8);
  Fuzzer("DBQS", "",
         [&](std::istream& in) { q = quant::QuantizedSparseStore::load(in); },
         [&](std::ostream& out) { q.save(out); })
      .run();
}

void fuzz_optimizer_state(const char* name,
                          std::shared_ptr<const optim::BudgetSchedule> s) {
  Fixture fix(std::move(s));
  Fuzzer(name, "", [&](std::istream& in) { fix.opt->load_state(in); },
         [&](std::ostream& out) { fix.opt->save_state(out); })
      .run();
}

TEST(CodecFuzz, DbosConstantSchedule) {
  fuzz_optimizer_state("DBOS (constant)", optim::constant_budget(20, 3));
}

TEST(CodecFuzz, DbosDsdSchedule) {
  fuzz_optimizer_state(
      "DBOS (dsd)", std::make_shared<optim::DenseSparseDense>(20, 1, 2, 1));
}

TEST(CodecFuzz, Dbd2LoaderState) {
  const auto dataset = fixture_dataset();
  data::DataLoader loader(*dataset, 4, true, 42);
  data::Batch batch;
  ASSERT_TRUE(loader.next(batch));
  Fuzzer("DBD2", "", [&](std::istream& in) { loader.load_state(in); },
         [&](std::ostream& out) { loader.save_state(out); })
      .run();
}

void fuzz_dense_optimizer(const char* name, optim::Optimizer& opt) {
  opt.step();  // the fixture's last backward left gradients in place
  Fuzzer(name, "", [&](std::istream& in) { opt.load_state(in); },
         [&](std::ostream& out) { opt.save_state(out); })
      .run();
}

TEST(CodecFuzz, MsgdState) {
  Fixture fix(optim::constant_budget(20, 3));
  optim::MomentumSGD msgd(fix.params, 0.1F, 0.9F);
  fuzz_dense_optimizer("MSGD", msgd);
}

TEST(CodecFuzz, AdamState) {
  Fixture fix(optim::constant_budget(20, 3));
  optim::Adam adam(fix.params, 0.01F);
  fuzz_dense_optimizer("ADAM", adam);
}

train::TrainerSnapshot fixture_snapshot() {
  train::TrainerSnapshot snap;
  snap.global_step = 6;
  snap.epoch = 3;
  snap.in_epoch = true;
  snap.loss_sum = 1.5;
  snap.acc_sum = 0.25;
  snap.batches = 1;
  snap.lr = 0.1F;
  snap.history.push_back({0, 2.0, 0.5, 0.375, 0.1F});
  snap.best_val_acc = 0.375;
  snap.best_epoch = 0;
  return snap;
}

/// The training-run pieces a DBTS snapshot restores.
struct TrainingRun {
  Fixture fix{optim::constant_budget(20, 3)};
  std::unique_ptr<data::InMemoryDataset> dataset = fixture_dataset();
  data::DataLoader loader{*dataset, 4, true, 42};
  train::TrainerSnapshot snap = fixture_snapshot();

  TrainingRun() {
    data::Batch batch;
    EXPECT_TRUE(loader.next(batch));
  }
  void load(std::istream& in) {
    snap = train::load_training_snapshot(in, fix.params, *fix.opt, loader);
  }
  void save(std::ostream& out) const {
    train::save_training_snapshot(out, snap, fix.params, *fix.opt, loader);
  }
};

TEST(CodecFuzz, DbtsTrainingSnapshot) {
  TrainingRun run;
  Fuzzer("DBTS", "DBTS", [&](std::istream& in) { run.load(in); },
         [&](std::ostream& out) { run.save(out); })
      .run();
}

// ---------------------------------------------------------------------------
// Regression cases for the decoder bugs the fuzzer found
// ---------------------------------------------------------------------------

TEST(CodecRegression, DbtsHistoryCountBeyondInputIsIoError) {
  // A snapshot with valid CRCs whose history count is 0xFFFFFFFF: the count
  // must fail against the bytes the section holds, not size an allocation.
  TrainingRun run;
  const std::string good = saved([&](std::ostream& out) { run.save(out); });
  Sections sections = sections_of(good, "DBTS");
  const std::uint32_t forged = 0xFFFFFFFFU;
  std::memcpy(sections[0].second.data() + 85, &forged,  // after 12 fields
              sizeof(forged));
  std::istringstream bad(seal("DBTS", sections), std::ios::binary);
  EXPECT_THROW(run.load(bad), util::IoError);
}

TEST(CodecRegression, UnknownInitSpecKindIsIoError) {
  // Kind byte 7 once decoded as "constant" and regenerated wrong weights.
  Fixture fix(optim::constant_budget(20, 3));
  const core::SparseWeightStore store = fix.store();
  const std::string good = saved([&](std::ostream& o) { store.save(o); });
  Sections sections = sections_of(good, "DBSW");
  // name (u16 length + bytes), shape (u8 rank + i64 dims), then the kind.
  const std::size_t kind_at = 2 + store.record(0).name.size() + 1 +
                              8 * store.record(0).shape.size();
  sections[0].second[kind_at] = 7;
  std::istringstream bad(seal("DBSW", sections), std::ios::binary);
  EXPECT_THROW(core::SparseWeightStore::load(bad), util::IoError);
}

TEST(CodecRegression, DbqsRejectsUnsortedAndDuplicateEntries) {
  Fixture fix(optim::constant_budget(20, 3));
  const auto q = quant::QuantizedSparseStore::quantize(fix.store(), 8);
  ASSERT_GE(q.record(0).entries.size(), 2U);
  const std::string good = saved([&](std::ostream& o) { q.save(o); });
  // The first record's entries start after magic, bits, count, name, shape,
  // InitSpec, scale and the entry count; each is a u32 index + i8 value.
  const auto& rec = q.record(0);
  const std::size_t first = 4 + 1 + 4 + 2 + rec.name.size() + 1 +
                            8 * rec.shape.size() +
                            rng::InitSpec::persisted_bytes() + 4 + 8;
  const auto with_indices = [&](std::uint32_t a, std::uint32_t b) {
    std::string bad = good;
    std::memcpy(bad.data() + first, &a, sizeof(a));
    std::memcpy(bad.data() + first + 5, &b, sizeof(b));
    return bad;
  };
  const std::uint32_t i0 = rec.entries[0].first;
  const std::uint32_t i1 = rec.entries[1].first;
  for (const std::string& bad : {with_indices(i0, i0), with_indices(i1, i0)}) {
    std::istringstream in(bad, std::ios::binary);
    EXPECT_THROW(quant::QuantizedSparseStore::load(in), util::IoError);
  }
}

TEST(CodecRegression, Dbd2DuplicateSampleIndexIsIoError) {
  // Every index in range, but one appears twice: the resumed loader would
  // serve that sample twice and drop another for the rest of the epoch.
  // The bytes load and re-save exactly, so only the decoder can catch it.
  const auto dataset = fixture_dataset();
  data::DataLoader loader(*dataset, 4, true, 42);
  data::Batch batch;
  ASSERT_TRUE(loader.next(batch));
  const std::string good =
      saved([&](std::ostream& out) { loader.save_state(out); });
  ASSERT_GE(dataset->size(), 2);
  // magic, version, size, batch, shuffle, rng (4 x u32 + flag + float),
  // epoch and cursor come before the order.
  const std::size_t order_at = 4 + 4 + 8 + 8 + 1 + 16 + 1 + 4 + 8 + 8;
  ASSERT_EQ(good.size(), order_at + static_cast<std::size_t>(
                                        dataset->size()) * sizeof(std::int64_t));
  std::string bad = good;
  std::memcpy(bad.data() + order_at + sizeof(std::int64_t),
              good.data() + order_at, sizeof(std::int64_t));
  std::istringstream in(bad, std::ios::binary);
  try {
    loader.load_state(in);
    FAIL() << "duplicate sample index loaded";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("appears twice"), std::string::npos)
        << e.what();
  }
  // The loader kept its state: the good bytes still round-trip.
  EXPECT_EQ(saved([&](std::ostream& out) { loader.save_state(out); }), good);
}

}  // namespace
}  // namespace dropback
