// Band select vs the heap oracle.
//
// TrackedSet::select finds lambda from a band around last step's lambda and
// writes the mask in one fused pass (core/tracked_set.hpp). Every step of
// the score sequences below is checked against two independent answers:
//
//   * core::reference_topk_heap, the paper's priority-queue top-k, plus the
//     churn, eviction count and eviction list worked out from its masks;
//   * a fresh TrackedSet given the same scores, which has no lambda_prev
//     and so always runs the full nth_element.
//
// The sequences aim at the band's edges: a lambda jump beyond every
// widening (the fallback), a wall of ties exactly at lambda (scores exactly
// 0, as zero gradients give), +inf non-prunable entries, k shrinking and
// growing between calls as DenseSparseDense does, and score counts that
// are no multiple of any vector width. Each sequence runs under every SIMD
// target compiled in and available.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/reference_algorithm.hpp"
#include "core/tracked_set.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "rng/xorshift.hpp"
#include "simd/dispatch.hpp"
#include "util/thread_pool.hpp"

namespace dropback::core {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// One selection step: the scores and the budget k.
struct Step {
  std::vector<float> scores;
  std::int64_t k;
};

/// The expected outcome of select(), worked out from the heap oracle.
struct Expected {
  std::vector<std::uint8_t> mask;
  float lambda = 0.0F;
  std::int64_t churn = 0;
  std::int64_t evictions = 0;
  std::vector<std::int64_t> evicted;
};

/// Tracks the previous oracle mask so churn and evictions follow
/// TrackedSet's definitions.
class Oracle {
 public:
  explicit Oracle(std::int64_t n) : mask_(static_cast<std::size_t>(n), 1) {}

  Expected select(const std::vector<float>& scores, std::int64_t k) {
    const auto n = static_cast<std::int64_t>(scores.size());
    Expected e;
    if (k >= n) {
      e.mask.assign(scores.size(), 1);
      e.lambda = -kInf;
      e.churn = all_tracked_ ? 0
                             : static_cast<std::int64_t>(std::count(
                                   mask_.begin(), mask_.end(), 0));
      all_tracked_ = true;
      mask_ = e.mask;
      return e;
    }
    e.mask.assign(scores.size(), 0);
    e.lambda = kInf;
    for (std::int64_t g : reference_topk_heap(scores, k)) {
      e.mask[static_cast<std::size_t>(g)] = 1;
      e.lambda = std::min(e.lambda, scores[static_cast<std::size_t>(g)]);
    }
    if (all_tracked_) {
      e.churn = k;
      e.evictions = n - k;
    } else {
      for (std::int64_t g = 0; g < n; ++g) {
        const bool was = mask_[static_cast<std::size_t>(g)] != 0;
        const bool now = e.mask[static_cast<std::size_t>(g)] != 0;
        if (now && !was) ++e.churn;
        if (was && !now) e.evicted.push_back(g);
      }
      e.evictions = static_cast<std::int64_t>(e.evicted.size());
    }
    all_tracked_ = false;
    mask_ = e.mask;
    return e;
  }

 private:
  std::vector<std::uint8_t> mask_;
  bool all_tracked_ = true;
};

std::vector<std::uint8_t> mask_of(const TrackedSet& set) {
  const ParamIndex& index = set.index();
  std::vector<std::uint8_t> out;
  for (std::size_t p = 0; p < index.num_params(); ++p) {
    const std::uint8_t* m = set.mask_of(p);
    out.insert(out.end(), m, m + index.param(p).numel());
  }
  return out;
}

/// Runs `steps` through one TrackedSet and checks every step against the
/// oracle and a fresh set, under every available SIMD target.
void check_sequence(const ParamIndex& index, const std::vector<Step>& steps,
                    const std::string& name) {
  for (simd::Target target : simd::available_targets()) {
    simd::set_target(target);
    const std::string where =
        name + " target=" + simd::target_name(target) + " step ";
    TrackedSet set(index);
    Oracle oracle(index.total());
    for (std::size_t t = 0; t < steps.size(); ++t) {
      const Step& step = steps[t];
      const Expected want = oracle.select(step.scores, step.k);
      set.select(step.scores, step.k);
      const std::string at = where + std::to_string(t);
      ASSERT_EQ(mask_of(set), want.mask) << at;
      ASSERT_EQ(set.last_lambda(), want.lambda) << at;
      ASSERT_EQ(set.last_churn(), want.churn) << at;
      ASSERT_EQ(set.last_evictions(), want.evictions) << at;
      const auto evicted = set.evicted();
      ASSERT_EQ(std::vector<std::int64_t>(evicted.begin(), evicted.end()),
                want.evicted)
          << at;

      TrackedSet fresh(index);
      fresh.select(step.scores, step.k);
      ASSERT_EQ(mask_of(fresh), want.mask) << at << " (fresh set)";
      ASSERT_EQ(fresh.last_lambda(), want.lambda) << at << " (fresh set)";
    }
  }
  simd::set_target(simd::best_target());
}

/// Two layers whose weight count, 64*64 + 64 + 64 + 1 = 4225, is odd: no
/// vector width divides it, so every pass ends in a scalar tail.
std::unique_ptr<nn::Sequential> odd_net() {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Linear>(64, 64, 1);
  net->emplace<nn::Linear>(64, 1, 2);
  return net;
}

/// Uniform scores in [0, 1).
std::vector<float> uniform_scores(std::int64_t n, rng::Xorshift128& rng) {
  std::vector<float> s(static_cast<std::size_t>(n));
  for (auto& v : s) v = rng.uniform();
  return s;
}

/// Redraws a `share` of the entries: the few dozen weights a step whose
/// scores move past lambda in a trained network.
void churn(std::vector<float>& s, double share, rng::Xorshift128& rng) {
  const auto moves = static_cast<std::int64_t>(
      share * static_cast<double>(s.size()));
  for (std::int64_t m = 0; m < moves; ++m) {
    s[rng.next_u32() % s.size()] = rng.uniform();
  }
}

class BandSelectTest : public ::testing::Test {
 protected:
  void SetUp() override { util::set_num_threads(3); }
  void TearDown() override { util::set_num_threads(1); }
};

TEST_F(BandSelectTest, DriftingScoresMatchTheOracle) {
  const auto net = odd_net();
  ParamIndex index(net->collect_parameters());
  ASSERT_EQ(index.total() % 2, 1);
  rng::Xorshift128 rng(11);
  std::vector<float> s = uniform_scores(index.total(), rng);
  std::vector<Step> steps;
  for (int t = 0; t < 40; ++t) {
    steps.push_back({s, 900});
    churn(s, 0.01, rng);
  }
  check_sequence(index, steps, "drift");
}

TEST_F(BandSelectTest, LambdaJumpBeyondEveryWideningFallsBack) {
  const auto net = odd_net();
  ParamIndex index(net->collect_parameters());
  rng::Xorshift128 rng(12);
  std::vector<float> s = uniform_scores(index.total(), rng);
  std::vector<Step> steps;
  for (int t = 0; t < 4; ++t) {
    steps.push_back({s, 700});
    churn(s, 0.01, rng);
  }
  // lambda jumps a millionfold up, then back down, then to a far lower
  // value: no doubling of the band reaches it.
  for (float scale : {1.0e6F, 1.0e-6F, 1.0e-3F}) {
    for (auto& v : s) v *= scale;
    steps.push_back({s, 700});
    churn(s, 0.002, rng);
    steps.push_back({s, 700});
  }
  check_sequence(index, steps, "jump");
}

TEST_F(BandSelectTest, WallOfTiesAtLambdaFillsByIndex) {
  const auto net = odd_net();
  ParamIndex index(net->collect_parameters());
  rng::Xorshift128 rng(13);
  // Most scores exactly 0 (zero gradients), the rest on a three-value
  // alphabet, so lambda sits on a wall of ties at 0 or at a nonzero value.
  std::vector<float> s(static_cast<std::size_t>(index.total()));
  for (auto& v : s) {
    const std::uint32_t r = rng.next_u32() % 10;
    v = r < 7 ? 0.0F : 0.25F * static_cast<float>(r - 6);
  }
  std::vector<Step> steps;
  for (int t = 0; t < 12; ++t) {
    // k above the nonzero count puts lambda at 0; k below it on a tie.
    steps.push_back({s, t % 3 == 0 ? 2000 : 600 + 37 * t});
    for (int m = 0; m < 25; ++m) {
      const std::size_t i = rng.next_u32() % s.size();
      s[i] = s[i] == 0.0F ? 0.5F : 0.0F;
    }
  }
  check_sequence(index, steps, "ties");
}

TEST_F(BandSelectTest, InfiniteNonPrunableEntriesStayTracked) {
  const auto net = odd_net();
  ParamIndex index(net->collect_parameters());
  rng::Xorshift128 rng(14);
  std::vector<float> s = uniform_scores(index.total(), rng);
  // The first layer's bias (64 entries) is non-prunable: score +inf.
  const std::int64_t bias = index.offset(1);
  for (std::int64_t i = bias; i < bias + 64; ++i) {
    s[static_cast<std::size_t>(i)] = kInf;
  }
  std::vector<Step> steps;
  // k below the +inf count gives lambda = +inf (no finite lambda_prev for
  // the next call); k above it a finite lambda.
  for (std::int64_t k : {500, 500, 40, 40, 64, 65, 900, 900, 30, 1000}) {
    steps.push_back({s, k});
    churn(s, 0.01, rng);
    for (std::int64_t i = bias; i < bias + 64; ++i) {
      s[static_cast<std::size_t>(i)] = kInf;
    }
  }
  check_sequence(index, steps, "inf");
}

TEST_F(BandSelectTest, BudgetShrinksAndGrowsBetweenCalls) {
  const auto net = odd_net();
  ParamIndex index(net->collect_parameters());
  rng::Xorshift128 rng(15);
  std::vector<float> s = uniform_scores(index.total(), rng);
  std::vector<Step> steps;
  // Dense -> shrink -> shrink further -> re-dense (k >= n) -> shrink ->
  // grow without going dense -> shrink hard.
  const std::int64_t n = index.total();
  for (std::int64_t k : std::vector<std::int64_t>{
           n, 3000, 3000, 1000, 1000, 5000, 800, 800, 2000, 2000, 300, 1, 1,
           n - 1}) {
    steps.push_back({s, k});
    churn(s, 0.01, rng);
  }
  check_sequence(index, steps, "dsd");
}

TEST_F(BandSelectTest, SmallOddCountsHitOnlyTails) {
  // 7*9 + 9 + 9*2 + 2 = 92 weights in four parameters of odd sizes.
  nn::Sequential net;
  net.emplace<nn::Linear>(7, 9, 3);
  net.emplace<nn::Linear>(9, 2, 4);
  ParamIndex index(net.collect_parameters());
  rng::Xorshift128 rng(16);
  std::vector<float> s = uniform_scores(index.total(), rng);
  std::vector<Step> steps;
  for (int t = 0; t < 20; ++t) {
    steps.push_back({s, 1 + t % 13});
    churn(s, 0.05, rng);
  }
  check_sequence(index, steps, "small");
}

TEST_F(BandSelectTest, RestoreResetsLambdaToNoSelection) {
  const auto net = odd_net();
  ParamIndex index(net->collect_parameters());
  TrackedSet fresh(index);
  EXPECT_TRUE(std::isnan(fresh.last_lambda()));

  rng::Xorshift128 rng(17);
  std::vector<float> s = uniform_scores(index.total(), rng);
  TrackedSet set(index);
  set.select(s, 900);
  churn(s, 0.01, rng);
  set.select(s, 900);
  ASSERT_TRUE(std::isfinite(set.last_lambda()));

  // A restored set reports no lambda, and its next selection (which must
  // not seed a band from a stale lambda) still matches the oracle, with
  // churn counted against the restored mask.
  const std::vector<std::uint8_t> saved = mask_of(set);
  TrackedSet restored(index);
  restored.restore(saved, false);
  EXPECT_TRUE(std::isnan(restored.last_lambda()));
  EXPECT_EQ(restored.last_churn(), 0);
  EXPECT_TRUE(restored.evicted().empty());

  churn(s, 0.01, rng);
  set.select(s, 900);
  restored.select(s, 900);
  EXPECT_EQ(mask_of(restored), mask_of(set));
  EXPECT_EQ(restored.last_lambda(), set.last_lambda());
  EXPECT_EQ(restored.last_churn(), set.last_churn());
  EXPECT_EQ(restored.last_evictions(), set.last_evictions());
  const auto a = restored.evicted();
  const auto b = set.evicted();
  EXPECT_EQ(std::vector<std::int64_t>(a.begin(), a.end()),
            std::vector<std::int64_t>(b.begin(), b.end()));
}

TEST_F(BandSelectTest, NanScoreIsRejectedOrRanksLast) {
  // One NaN score, at each position in turn, reaching a full nth_element
  // search (the set was restored, so it has no lambda to band around). A
  // NaN that trips the search must raise NanScoreError and leave the set
  // exactly as it was; one the search never compares must rank below every
  // number, so the mask equals the oracle's with the NaN read as -inf.
  const auto net = odd_net();
  ParamIndex index(net->collect_parameters());
  rng::Xorshift128 rng(23);
  const std::vector<float> base = uniform_scores(index.total(), rng);
  TrackedSet set(index);
  set.select(base, 900);
  const std::vector<std::uint8_t> saved = mask_of(set);

  int rejected = 0;
  for (std::int64_t at = 0; at < index.total(); at += 7) {
    std::vector<float> s = base;
    s[static_cast<std::size_t>(at)] = std::nanf("");
    std::vector<float> as_lowest = base;
    as_lowest[static_cast<std::size_t>(at)] = -kInf;
    set.restore(saved, false);
    try {
      set.select(s, 900);
    } catch (const NanScoreError&) {
      ++rejected;
      ASSERT_EQ(mask_of(set), saved) << "NaN at " << at;
      ASSERT_FALSE(set.all_tracked());
      ASSERT_TRUE(std::isnan(set.last_lambda()));
      continue;
    }
    Oracle oracle(index.total());
    ASSERT_EQ(mask_of(set), oracle.select(as_lowest, 900).mask)
        << "NaN at " << at;
  }
  EXPECT_GT(rejected, 0);
}

TEST_F(BandSelectTest, TooFewNumbersAreRejectedWithTheMaskUnchanged) {
  // More NaN scores than n - k: there is no k-th largest number, on the
  // band path and the full search alike, and select_per_param checks every
  // parameter before it writes any.
  const auto net = odd_net();
  ParamIndex index(net->collect_parameters());
  rng::Xorshift128 rng(29);
  std::vector<float> s = uniform_scores(index.total(), rng);
  TrackedSet set(index);
  set.select(s, 900);
  churn(s, 0.01, rng);
  set.select(s, 900);  // a finite lambda: the next select bands around it
  const std::vector<std::uint8_t> saved = mask_of(set);
  const float lambda = set.last_lambda();
  const auto evicted = set.evicted();
  const std::vector<std::int64_t> saved_evicted(evicted.begin(),
                                                evicted.end());
  for (std::size_t i = 0; i < s.size(); i += 2) s[i] = std::nanf("");
  EXPECT_THROW(set.select(s, 3000), NanScoreError);
  EXPECT_EQ(mask_of(set), saved);
  EXPECT_EQ(set.last_lambda(), lambda);
  const auto after = set.evicted();
  EXPECT_EQ(std::vector<std::int64_t>(after.begin(), after.end()),
            saved_evicted);

  // Per parameter: the second layer's 64 weights hold 32 numbers, fewer
  // than its budget of 40, so the call throws, and no parameter changes.
  EXPECT_THROW(set.select_per_param(s, {1000, 10, 40, 1}), NanScoreError);
  EXPECT_EQ(mask_of(set), saved);
}

}  // namespace
}  // namespace dropback::core
