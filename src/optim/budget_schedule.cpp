#include "optim/budget_schedule.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <sstream>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace dropback::optim {

namespace {

/// Freeze threshold in steps. freeze_after_steps=0 historically still ran
/// the first selection (the pre-schedule optimizer selected, then noticed
/// steps+1 >= 0), so the effective threshold is never below 1.
bool frozen_by_step(std::int64_t step, std::int64_t freeze_after_steps) {
  return freeze_after_steps >= 0 &&
         step >= std::max<std::int64_t>(freeze_after_steps, 1);
}

/// Same one-window guarantee for the epoch phrasing: freeze_epoch=0 freezes
/// at the first epoch boundary (after epoch 0 selected).
bool frozen_by_epoch(std::int64_t epoch, std::int64_t freeze_epoch) {
  return freeze_epoch >= 0 && epoch >= std::max<std::int64_t>(freeze_epoch, 1);
}

}  // namespace

// --- ConstantSchedule ------------------------------------------------------

ConstantSchedule::ConstantSchedule(std::int64_t budget,
                                   std::int64_t freeze_after_steps,
                                   std::int64_t freeze_epoch)
    : budget_(budget),
      freeze_after_steps_(freeze_after_steps),
      freeze_epoch_(freeze_epoch) {
  DROPBACK_CHECK(budget > 0,
                 << "ConstantSchedule: budget must be positive, got "
                 << budget);
  DROPBACK_CHECK(freeze_after_steps < 0 || freeze_epoch < 0,
                 << "ConstantSchedule: set freeze_after_steps or "
                 << "freeze_epoch, not both");
}

BudgetDecision ConstantSchedule::at(const SchedulePoint& t) const {
  BudgetDecision d;
  d.budget = budget_;
  d.frozen = frozen_by_step(t.step, freeze_after_steps_) ||
             frozen_by_epoch(t.epoch, freeze_epoch_);
  return d;
}

std::string ConstantSchedule::spec() const {
  std::ostringstream out;
  out << "const:budget=" << budget_;
  if (freeze_after_steps_ >= 0) out << ",freeze_step=" << freeze_after_steps_;
  if (freeze_epoch_ >= 0) out << ",freeze_epoch=" << freeze_epoch_;
  return out.str();
}

// --- DenseSparseDense ------------------------------------------------------

DenseSparseDense::DenseSparseDense(std::int64_t budget,
                                   std::int64_t dense_epochs,
                                   std::int64_t sparse_epochs,
                                   std::int64_t freeze_after_epochs,
                                   std::int64_t final_budget)
    : budget_(budget),
      dense_epochs_(dense_epochs),
      sparse_epochs_(sparse_epochs),
      freeze_after_epochs_(freeze_after_epochs),
      final_budget_(final_budget) {
  DROPBACK_CHECK(budget > 0, << "DenseSparseDense: budget must be positive, "
                             << "got " << budget);
  DROPBACK_CHECK(dense_epochs >= 0, << "DenseSparseDense: dense_epochs "
                                    << dense_epochs);
  DROPBACK_CHECK(sparse_epochs >= -1,
                 << "DenseSparseDense: sparse_epochs " << sparse_epochs
                 << " (-1 = never re-densify)");
  DROPBACK_CHECK(final_budget > 0, << "DenseSparseDense: final_budget "
                                   << final_budget);
}

BudgetDecision DenseSparseDense::at(const SchedulePoint& t) const {
  BudgetDecision d;
  if (t.epoch < dense_epochs_) {
    d.budget = kDenseBudget;  // dense warmup: everything competes and wins
    return d;
  }
  if (sparse_epochs_ < 0 || t.epoch < dense_epochs_ + sparse_epochs_) {
    d.budget = budget_;
    if (freeze_after_epochs_ >= 0) {
      // The freeze counts epochs *into the sparse phase*, with the same
      // one-window floor as every other freeze phrasing.
      d.frozen = frozen_by_epoch(t.epoch - dense_epochs_, freeze_after_epochs_);
    }
    return d;
  }
  d.budget = final_budget_;  // re-dense: selection resumes at the new budget
  return d;
}

std::string DenseSparseDense::spec() const {
  std::ostringstream out;
  out << "dsd:budget=" << budget_ << ",dense=" << dense_epochs_;
  if (sparse_epochs_ >= 0) out << ",sparse=" << sparse_epochs_;
  if (freeze_after_epochs_ >= 0) out << ",freeze=" << freeze_after_epochs_;
  if (final_budget_ != kDenseBudget) out << ",final=" << final_budget_;
  return out.str();
}

// --- StochasticDropBack ----------------------------------------------------

StochasticDropBack::StochasticDropBack(std::int64_t budget, float readmit_prob,
                                       std::uint64_t seed,
                                       std::int64_t freeze_after_steps,
                                       std::int64_t freeze_epoch)
    : budget_(budget),
      readmit_prob_(readmit_prob),
      seed_(seed),
      freeze_after_steps_(freeze_after_steps),
      freeze_epoch_(freeze_epoch) {
  DROPBACK_CHECK(budget > 0,
                 << "StochasticDropBack: budget must be positive, got "
                 << budget);
  DROPBACK_CHECK(readmit_prob > 0.0F && readmit_prob <= 1.0F,
                 << "StochasticDropBack: readmit probability "
                 << readmit_prob << " outside (0, 1]");
  DROPBACK_CHECK(freeze_after_steps < 0 || freeze_epoch < 0,
                 << "StochasticDropBack: set freeze_after_steps or "
                 << "freeze_epoch, not both");
}

BudgetDecision StochasticDropBack::at(const SchedulePoint& t) const {
  BudgetDecision d;
  d.budget = budget_;
  d.frozen = frozen_by_step(t.step, freeze_after_steps_) ||
             frozen_by_epoch(t.epoch, freeze_epoch_);
  if (!d.frozen) {
    d.readmit_prob = readmit_prob_;
    d.readmit_seed = seed_;
  }
  return d;
}

std::string StochasticDropBack::spec() const {
  std::ostringstream out;
  out << "stochastic:budget=" << budget_ << ",p=";
  out.precision(9);
  out << readmit_prob_ << ",seed=" << seed_;
  if (freeze_after_steps_ >= 0) out << ",freeze_step=" << freeze_after_steps_;
  if (freeze_epoch_ >= 0) out << ",freeze_epoch=" << freeze_epoch_;
  return out.str();
}

// --- spec parser -----------------------------------------------------------

namespace {

/// A whole-string base-10 std::int64_t or std::uint64_t. Values strto*ll
/// would clamp are rejected, and an unsigned value must start with a digit
/// (strtoull negates a leading '-' instead of rejecting it).
template <typename Int>
Int parse_int_value(const std::string& key, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  Int v = 0;
  if constexpr (std::is_signed_v<Int>) {
    v = std::strtoll(value.c_str(), &end, 10);
  } else {
    v = std::strtoull(value.c_str(), &end, 10);
  }
  const bool clamped = errno == ERANGE;
  const bool sign_ok =
      std::is_signed_v<Int> || std::isdigit(static_cast<unsigned char>(
                                   value.front())) != 0;
  DROPBACK_CHECK(sign_ok && end != value.c_str() && *end == '\0',
                 << "budget schedule spec: bad integer '" << value
                 << "' for key '" << key << "'");
  DROPBACK_CHECK(!clamped, << "budget schedule spec: integer '" << value
                           << "' out of range for key '" << key << "'");
  return v;
}

double parse_float_value(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  DROPBACK_CHECK(end != value.c_str() && *end == '\0',
                 << "budget schedule spec: bad number '" << value
                 << "' for key '" << key << "'");
  return v;
}

}  // namespace

ParsedSchedule parse_budget_schedule(const std::string& spec) {
  DROPBACK_CHECK(!spec.empty(), << "budget schedule spec: empty spec");
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  DROPBACK_CHECK(kind == "const" || kind == "dsd" || kind == "stochastic",
                 << "budget schedule spec: unknown kind '" << kind
                 << "' (expected const|dsd|stochastic)");

  // key=value pairs, comma-separated; keys may not repeat.
  std::map<std::string, std::string> kv;
  if (colon != std::string::npos) {
    const std::string body = spec.substr(colon + 1);
    std::istringstream stream(body);
    std::string token;
    while (std::getline(stream, token, ',')) {
      DROPBACK_CHECK(!token.empty(),
                     << "budget schedule spec: empty token in '" << body
                     << "'");
      const std::size_t eq = token.find('=');
      DROPBACK_CHECK(eq != std::string::npos && eq > 0 &&
                         eq + 1 < token.size(),
                     << "budget schedule spec: token '" << token
                     << "' is not key=value");
      const auto [it, inserted] =
          kv.emplace(token.substr(0, eq), token.substr(eq + 1));
      DROPBACK_CHECK(inserted, << "budget schedule spec: repeated key '"
                               << it->first << "'");
    }
  }

  ParsedSchedule out;
  if (kv.count("scope") != 0) {
    const std::string& scope = kv.at("scope");
    DROPBACK_CHECK(scope == "global" || scope == "layer",
                   << "budget schedule spec: bad scope '" << scope
                   << "' (expected global|layer)");
    out.scope =
        scope == "layer" ? BudgetScope::kPerLayer : BudgetScope::kGlobal;
    kv.erase("scope");
  }

  const auto take_int = [&kv](const std::string& key, std::int64_t fallback) {
    const auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    const auto v = parse_int_value<std::int64_t>(key, it->second);
    kv.erase(it);
    return v;
  };
  DROPBACK_CHECK(kv.count("budget") != 0,
                 << "budget schedule spec: missing required key 'budget' for "
                 << kind);
  const std::int64_t budget = take_int("budget", 0);

  if (kind == "const") {
    const std::int64_t freeze_step = take_int("freeze_step", -1);
    const std::int64_t freeze_epoch = take_int("freeze_epoch", -1);
    DROPBACK_CHECK(kv.empty(), << "budget schedule spec: unknown key '"
                               << kv.begin()->first << "' for const");
    out.schedule = std::make_shared<ConstantSchedule>(budget, freeze_step,
                                                      freeze_epoch);
  } else if (kind == "dsd") {
    const std::int64_t dense = take_int("dense", 1);
    const std::int64_t sparse = take_int("sparse", -1);
    const std::int64_t freeze = take_int("freeze", -1);
    const std::int64_t final_budget = take_int("final", kDenseBudget);
    DROPBACK_CHECK(kv.empty(), << "budget schedule spec: unknown key '"
                               << kv.begin()->first << "' for dsd");
    out.schedule = std::make_shared<DenseSparseDense>(budget, dense, sparse,
                                                      freeze, final_budget);
  } else {  // stochastic
    DROPBACK_CHECK(kv.count("p") != 0,
                   << "budget schedule spec: missing required key 'p' for "
                   << "stochastic");
    const double p = parse_float_value("p", kv.at("p"));
    kv.erase("p");
    const auto seed_it = kv.find("seed");
    const std::uint64_t seed =
        seed_it == kv.end()
            ? 0x5DB5DB
            : parse_int_value<std::uint64_t>("seed", seed_it->second);
    kv.erase("seed");
    const std::int64_t freeze_step = take_int("freeze_step", -1);
    const std::int64_t freeze_epoch = take_int("freeze_epoch", -1);
    DROPBACK_CHECK(kv.empty(), << "budget schedule spec: unknown key '"
                               << kv.begin()->first << "' for stochastic");
    out.schedule = std::make_shared<StochasticDropBack>(
        budget, static_cast<float>(p), seed, freeze_step, freeze_epoch);
  }
  return out;
}

std::shared_ptr<const BudgetSchedule> constant_budget(
    std::int64_t budget, std::int64_t freeze_after_steps) {
  return std::make_shared<ConstantSchedule>(budget, freeze_after_steps);
}

std::shared_ptr<const BudgetSchedule> constant_budget_epochs(
    std::int64_t budget, std::int64_t freeze_epoch) {
  return std::make_shared<ConstantSchedule>(budget, /*freeze_after_steps=*/-1,
                                            freeze_epoch);
}

}  // namespace dropback::optim
