#include "core/dropback_optimizer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "util/bytes.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace dropback::core {

DropBackOptimizer::DropBackOptimizer(std::vector<nn::Parameter*> params,
                                     float lr, DropBackConfig config)
    : Optimizer(std::move(params), lr),
      config_(std::move(config)),
      index_(params_),
      tracked_(index_) {
  // BudgetSchedule is the only capacity authority (lint R10).
  DROPBACK_CHECK(config_.schedule != nullptr,
                 << "DropBackConfig.schedule is required: use "
                 << "optim::constant_budget(k[, freeze_after_steps]) for the "
                 << "paper's fixed-k run");
  current_budget_ = std::min(decision_at(0).budget, index_.total());
  refresh_frozen();
}

optim::BudgetDecision DropBackOptimizer::decision_at(std::int64_t step) const {
  optim::SchedulePoint t;
  t.step = step;
  t.steps_per_epoch = config_.steps_per_epoch;
  t.epoch = config_.steps_per_epoch > 0 ? step / config_.steps_per_epoch : 0;
  return config_.schedule->at(t);
}

void DropBackOptimizer::refresh_frozen() {
  frozen_ = manual_frozen_ || decision_at(steps_).frozen;
}

void DropBackOptimizer::step() {
  DROPBACK_CHECK(
      !config_.schedule->epoch_phrased() || config_.steps_per_epoch > 0,
      << "DropBackOptimizer: schedule '" << config_.schedule->spec()
      << "' is epoch-phrased but steps_per_epoch is unset "
      << "(Trainer provides it; set DropBackConfig.steps_per_epoch "
      << "or call set_steps_per_epoch for custom loops)");
  const bool selecting = !frozen_;
  if (selecting) {
    const optim::BudgetDecision d = decision_at(steps_);
    const std::int64_t k = std::min(d.budget, index_.total());
    // Leaving the all-tracked state evicts every unselected weight, and
    // those hold trained values: this step's apply sweeps everything.
    if (tracked_.all_tracked()) full_sweep_ = true;
    // Score all weights by post-update accumulated gradient and reselect.
    compute_scores(index_, lr_, scores_);
    if (config_.scope == optim::BudgetScope::kGlobal) {
      tracked_.select(scores_, k);
    } else {
      // Per-layer quota proportional to the layer's size.
      std::vector<std::int64_t> budgets(index_.num_params());
      for (std::size_t p = 0; p < index_.num_params(); ++p) {
        budgets[p] = std::max<std::int64_t>(
            1, k * index_.param(p).numel() / index_.total());
      }
      tracked_.select_per_param(scores_, budgets);
    }
    if (d.readmit_prob > 0.0F) {
      // Stochastic drop-back: untracked weights re-enter from the per-step
      // counter-based stream; the next select() re-enforces the budget.
      tracked_.readmit(d.readmit_seed, steps_, d.readmit_prob);
    }
    current_budget_ = k;
  }
  apply_update_and_mask(selecting);
  ++steps_;
  // The frozen state for the *next* step is a pure function of the step
  // counter (plus the sticky manual latch), so resume re-derives it exactly.
  refresh_frozen();
}

void DropBackOptimizer::freeze() {
  manual_frozen_ = true;
  frozen_ = true;
}

void DropBackOptimizer::set_steps_per_epoch(std::int64_t steps_per_epoch) {
  DROPBACK_CHECK(steps_per_epoch >= 0,
                 << "set_steps_per_epoch: " << steps_per_epoch);
  config_.steps_per_epoch = steps_per_epoch;
  current_budget_ = std::min(decision_at(steps_).budget, index_.total());
  refresh_frozen();
}

void DropBackOptimizer::apply_update_and_mask(bool selected) {
  DROPBACK_TRACE_SPAN("dropback_apply");
  const bool sweep = full_sweep_;
  full_sweep_ = false;
  // Without a sweep every untracked weight already holds its replacement
  // value, except this step's evictions: those are the only ones to write.
  const std::vector<std::int64_t> none;
  const std::vector<std::int64_t>& evicted =
      selected && !sweep ? tracked_.evicted() : none;
  std::size_t next_evicted = 0;
  const simd::Kernels& kernels = simd::kernels();
  for (std::size_t p = 0; p < index_.num_params(); ++p) {
    nn::Parameter& param = index_.param(p);
    float* w = param.var.value().data();
    const float* g = param.var.has_grad() ? param.var.grad().data() : nullptr;
    const std::uint8_t* mask = tracked_.mask_of(p);
    const rng::InitSpec& init = param.init;
    const std::int64_t n = param.numel();
    const bool regen = config_.regenerate_untracked && param.prunable;
    // Each weight is updated or regenerated independently, so the loop
    // shards cleanly onto the SIMD kernels; the tracked tally is an integer
    // sum, reduced per shard.
    std::atomic<std::int64_t> tracked_atomic{0};
    const float lr = lr_;
    const simd::RegenSpec spec = init.regen_spec();
    util::parallel_for(4096, n, [&, g, w, mask, regen, lr,
                                 spec](std::int64_t b, std::int64_t e) {
      const float* gb = g != nullptr ? g + b : nullptr;
      const std::int64_t tracked_shard =
          sweep ? kernels.apply_masked(w + b, gb, mask + b, lr, spec, regen,
                                       static_cast<std::uint64_t>(b), e - b)
                : kernels.update_tracked(w + b, gb, mask + b, lr, e - b);
      tracked_atomic.fetch_add(tracked_shard, std::memory_order_relaxed);
    });
    const std::int64_t offset = index_.offset(p);
    for (; next_evicted < evicted.size() &&
           evicted[next_evicted] < offset + n;
         ++next_evicted) {
      const std::int64_t i = evicted[next_evicted] - offset;
      // Evicted by select() but re-admitted by readmit() in the same step:
      // it stays tracked and keeps its trained value.
      if (mask[i] != 0) continue;
      w[i] = regen ? init.value_at(static_cast<std::uint64_t>(i)) : 0.0F;
    }
    if (traffic_) {
      // The paper's hardware model: tracked weights live in real storage
      // (read + write per update) and every untracked weight is
      // regenerated each step, however few of them this loop writes.
      const auto tracked_here =
          static_cast<std::uint64_t>(tracked_atomic.load());
      traffic_->dram_reads += tracked_here;
      traffic_->dram_writes += tracked_here;
      traffic_->regens += static_cast<std::uint64_t>(n) - tracked_here;
    }
  }
}

std::vector<double> DropBackOptimizer::score_quantiles(
    const std::vector<double>& qs) const {
  if (scores_.empty()) return {};
  // Telemetry only: work on a copy so selection scratch is untouched.
  std::vector<float> finite;
  finite.reserve(scores_.size());
  for (float s : scores_) {
    if (std::isfinite(s)) finite.push_back(s);
  }
  if (finite.empty()) return {};
  std::vector<double> out;
  out.reserve(qs.size());
  for (double q : qs) {
    const double clamped = std::min(1.0, std::max(0.0, q));
    const auto rank = static_cast<std::ptrdiff_t>(
        clamped * static_cast<double>(finite.size() - 1));
    std::nth_element(finite.begin(), finite.begin() + rank, finite.end());
    out.push_back(static_cast<double>(finite[static_cast<std::size_t>(rank)]));
  }
  return out;
}

std::int64_t DropBackOptimizer::live_weights() const {
  return tracked_.all_tracked() ? index_.total() : tracked_.tracked_count();
}

double DropBackOptimizer::compression_ratio() const {
  const std::int64_t live = live_weights();
  if (live <= 0) return 0.0;
  return static_cast<double>(index_.total()) / static_cast<double>(live);
}

namespace {
constexpr std::string_view kStateMagic = "DBOS";
// Schedule-state extension appended after the masks for non-constant
// schedules; absent for ConstantSchedule so those bytes stay identical to
// the pre-schedule DBOS format.
constexpr std::string_view kScheduleMagic = "SCHD";
}  // namespace

void DropBackOptimizer::save_state(std::ostream& out) const {
  util::ByteWriter w(out, "DropBackOptimizer state");
  w.raw(kStateMagic);
  w.pod<std::int64_t>(config_.schedule->base_budget());
  w.pod<std::int64_t>(index_.total());
  w.pod<std::int64_t>(steps_);
  w.pod<std::uint8_t>(frozen_ ? 1 : 0);
  w.pod<std::uint8_t>(tracked_.all_tracked() ? 1 : 0);
  std::vector<std::uint8_t> packed;
  for (std::size_t p = 0; p < index_.num_params(); ++p) {
    // Bit-pack each mask: 1 bit per weight instead of 1 byte, each
    // parameter starting on a fresh byte.
    const std::uint8_t* mask = tracked_.mask_of(p);
    const auto n = static_cast<std::size_t>(index_.param(p).numel());
    packed.assign((n + 7) / 8, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (mask[i]) packed[i / 8] |= static_cast<std::uint8_t>(1U << (i % 8));
    }
    w.raw(packed.data(), packed.size());
  }
  if (!config_.schedule->is_constant()) {
    // Dynamic schedules stamp their canonical spec so a kill/resume
    // mid-shrink or mid-re-dense can only continue under the same schedule.
    w.raw(kScheduleMagic);
    w.str<std::uint32_t>(config_.schedule->spec());
  }
  w.finish();
}

void DropBackOptimizer::load_state(std::istream& in) {
  util::ByteReader r(in, "DropBackOptimizer state");
  r.expect_magic(kStateMagic);
  const auto budget = r.pod<std::int64_t>();
  const auto total = r.pod<std::int64_t>();
  const std::int64_t base_budget = config_.schedule->base_budget();
  if (budget != base_budget || total != index_.total()) {
    r.fail("budget/model mismatch (file has budget " + std::to_string(budget) +
           " over " + std::to_string(total) + " weights, optimizer has " +
           std::to_string(base_budget) + " over " +
           std::to_string(index_.total()) + ")");
  }
  const auto steps = r.pod<std::int64_t>();
  if (steps < 0) r.fail("negative step count " + std::to_string(steps));
  const bool frozen = r.boolean();
  const bool all_tracked = r.boolean();
  // One flat mask, sized by the model; each parameter's bits start on a
  // fresh byte and the padding bits of its last byte are zero.
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(index_.total()), 0);
  std::vector<std::uint8_t> packed;
  for (std::size_t p = 0; p < index_.num_params(); ++p) {
    const auto n = static_cast<std::size_t>(index_.param(p).numel());
    std::uint8_t* mask_p = mask.data() + index_.offset(p);
    packed.resize((n + 7) / 8);
    r.raw(packed.data(), packed.size());
    for (std::size_t i = 0; i < n; ++i) {
      mask_p[i] = (packed[i / 8] >> (i % 8)) & 1U;
    }
    if (n % 8 != 0 && (packed.back() >> (n % 8)) != 0) {
      r.fail("mask padding bits set for parameter " + std::to_string(p));
    }
  }
  if (r.remaining() > 0) {
    r.expect_magic(kScheduleMagic);
    const std::string spec = r.str<std::uint32_t>();
    if (spec != config_.schedule->spec()) {
      r.fail("schedule mismatch (snapshot was written under '" + spec +
             "', optimizer runs '" + config_.schedule->spec() + "')");
    }
    if (config_.schedule->is_constant()) {
      r.fail("schedule extension on a constant-schedule snapshot");
    }
  } else if (!config_.schedule->is_constant()) {
    r.fail("snapshot carries no schedule state but the optimizer runs '" +
           config_.schedule->spec() +
           "' — it was written under a constant schedule and cannot resume "
           "a dynamic-schedule run");
  }
  r.expect_end();
  tracked_.restore(std::move(mask), all_tracked);
  // The weights come from a separate model checkpoint, so nothing vouches
  // that the untracked ones sit at their replacement value: sweep once.
  full_sweep_ = true;
  steps_ = steps;
  // The frozen byte is the pre-kill truth. When the schedule alone would not
  // freeze at this step, the flag must have come from a manual freeze(), so
  // re-latch it; epoch-phrased schedules defer the inference until
  // steps_per_epoch is known (Trainer sets it before resuming).
  const bool can_evaluate =
      !config_.schedule->epoch_phrased() || config_.steps_per_epoch > 0;
  manual_frozen_ = frozen && can_evaluate && !decision_at(steps_).frozen;
  frozen_ = frozen;
  current_budget_ = std::min(decision_at(steps_).budget, index_.total());
}

}  // namespace dropback::core
