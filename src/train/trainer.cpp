#include "train/trainer.hpp"

#include <cmath>
#include <memory>

#include "autograd/ops.hpp"
#include "core/dropback_optimizer.hpp"
#include "nn/loss.hpp"
#include "obs/event_stream.hpp"
#include "obs/trace.hpp"
#include "train/training_checkpoint.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace dropback::train {

namespace {

double to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

const char* policy_name(AnomalyPolicy policy) {
  switch (policy) {
    case AnomalyPolicy::kOff: return "off";
    case AnomalyPolicy::kThrow: return "throw";
    case AnomalyPolicy::kSkipStep: return "skip";
    case AnomalyPolicy::kRollback: return "rollback";
  }
  return "?";
}

}  // namespace

AnomalyPolicy parse_anomaly_policy(const std::string& text) {
  if (text == "off") return AnomalyPolicy::kOff;
  if (text == "throw") return AnomalyPolicy::kThrow;
  if (text == "skip") return AnomalyPolicy::kSkipStep;
  if (text == "rollback") return AnomalyPolicy::kRollback;
  DROPBACK_CHECK(false, << "anomaly policy '" << text
                        << "' (expected off|throw|skip|rollback)");
  return AnomalyPolicy::kOff;  // unreachable
}

void TrainConfig::validate() const {
  DROPBACK_CHECK(epochs > 0 && batch_size > 0, << "TrainConfig invalid");
  DROPBACK_CHECK(prefetch_batches >= 0,
                 << "TrainConfig: prefetch_batches " << prefetch_batches);
  DROPBACK_CHECK(threads >= 0, << "TrainConfig: threads " << threads);
  DROPBACK_CHECK(checkpoint_every == 0 || !checkpoint_path.empty(),
                 << "TrainConfig: checkpoint_every requires checkpoint_path");
  DROPBACK_CHECK(!resume || !checkpoint_path.empty(),
                 << "TrainConfig: resume requires checkpoint_path");
}

bool EarlyStopper::observe(std::int64_t epoch, double val_acc) {
  if (val_acc > best_val_acc_) {
    best_val_acc_ = val_acc;
    best_epoch_ = epoch;
    stale_epochs_ = 0;
    return true;
  }
  ++stale_epochs_;
  return false;
}

void EarlyStopper::restore(double best_val_acc, std::int64_t best_epoch,
                           std::int64_t stale_epochs) {
  best_val_acc_ = best_val_acc;
  best_epoch_ = best_epoch;
  stale_epochs_ = stale_epochs;
}

Trainer::Trainer(nn::Module& model, optim::Optimizer& optimizer,
                 const data::Dataset& train_set, const data::Dataset& val_set,
                 TrainConfig config)
    : model_(model),
      optimizer_(optimizer),
      train_set_(train_set),
      val_set_(val_set),
      options_(std::move(config)) {
  options_.validate();
  params_ = model.collect_parameters();
}

std::string Trainer::detect_anomaly(double loss_value) const {
  if (!std::isfinite(loss_value)) {
    return "loss is " + std::to_string(loss_value);
  }
  for (const nn::Parameter* p : optimizer_.params()) {
    if (!p->var.has_grad()) continue;
    const float* g = p->var.grad().data();
    const std::int64_t n = p->numel();
    for (std::int64_t i = 0; i < n; ++i) {
      if (!std::isfinite(g[i])) {
        return "gradient of '" + p->name + "' at index " + std::to_string(i) +
               " is " + std::to_string(g[i]);
      }
    }
  }
  return {};
}

void Trainer::save_snapshot(const data::DataLoader& loader, std::int64_t epoch,
                            bool in_epoch, double loss_sum, double acc_sum,
                            std::int64_t batches, const TrainResult& result,
                            const EarlyStopper& stopper,
                            obs::EventStream* events) const {
  TrainerSnapshot snap;
  snap.global_step = global_step_;
  snap.epoch = epoch;
  snap.in_epoch = in_epoch;
  snap.loss_sum = in_epoch ? loss_sum : 0.0;
  snap.acc_sum = in_epoch ? acc_sum : 0.0;
  snap.batches = in_epoch ? batches : 0;
  snap.anomalies = result.anomalies;
  snap.skipped_steps = result.skipped_steps;
  snap.lr = optimizer_.lr();
  snap.history = result.history;
  snap.best_val_acc = stopper.best_val_acc();
  snap.best_epoch = stopper.best_epoch();
  snap.stale_epochs = stopper.stale_epochs();
  std::int64_t save_ns = 0;
  {
    DROPBACK_TRACE_SPAN("checkpoint_save", &save_ns);
    save_training_snapshot(options_.checkpoint_path, snap, params_,
                           optimizer_, loader);
  }
  if (events != nullptr) {
    obs::CheckpointEvent ev;
    ev.step = global_step_;
    ev.path = options_.checkpoint_path;
    ev.ms = to_ms(save_ns);
    events->emit(ev.to_json());
  }
}

TrainResult Trainer::run() {
  if (options_.threads > 0) {
    util::set_num_threads(static_cast<int>(options_.threads));
  }
  data::DataLoader loader(train_set_, options_.loader_options());
  TrainResult result;
  EarlyStopper stopper(options_.patience);
  // Telemetry: one EventStream per run, timed by the spans. Everything below
  // is read-only with respect to training state — the trajectory stays
  // bitwise identical with or without metrics_out.
  std::unique_ptr<obs::EventStream> events;
  if (!options_.metrics_out.empty()) {
    events = std::make_unique<obs::EventStream>(options_.metrics_out);
  }
  auto* dropback = dynamic_cast<core::DropBackOptimizer*>(&optimizer_);
  // Must precede the resume load below: epoch-phrased budget schedules need
  // steps_per_epoch to infer the restored freeze state.
  if (dropback != nullptr) {
    dropback->set_steps_per_epoch(
        (train_set_.size() + options_.batch_size - 1) / options_.batch_size);
  }
  std::int64_t checkpoints_written = 0;
  double total_step_ms = 0.0;
  std::int64_t start_epoch = 0;
  bool resumed_mid_epoch = false;
  double loss_sum = 0.0;
  double acc_sum = 0.0;
  std::int64_t batches = 0;
  if (options_.resume && util::file_exists(options_.checkpoint_path)) {
    const TrainerSnapshot snap = load_training_snapshot(
        options_.checkpoint_path, params_, optimizer_, loader);
    global_step_ = snap.global_step;
    start_epoch = snap.epoch;
    resumed_mid_epoch = snap.in_epoch;
    loss_sum = snap.loss_sum;
    acc_sum = snap.acc_sum;
    batches = snap.batches;
    result.history = snap.history;
    result.anomalies = snap.anomalies;
    result.skipped_steps = snap.skipped_steps;
    stopper.restore(snap.best_val_acc, snap.best_epoch, snap.stale_epochs);
    // With a schedule the per-epoch lr_at call below recomputes the lr; a
    // schedule-free run takes it from the snapshot.
    if (!options_.schedule) optimizer_.set_lr(snap.lr);
  }
  for (std::int64_t epoch = start_epoch; epoch < options_.epochs; ++epoch) {
    if (stopper.should_stop()) break;  // resumed from an already-stale run
    const std::int64_t epoch_begin = obs::trace_clock().now_ns();
    if (options_.schedule) {
      optimizer_.set_lr(options_.schedule->lr_at(epoch));
    }
    model_.set_training(true);
    if (resumed_mid_epoch) {
      // Loader cursor, order, and RNG came from the snapshot; the stat
      // accumulators already hold this epoch's partial sums.
      resumed_mid_epoch = false;
    } else {
      loader.start_epoch();
      loss_sum = 0.0;
      acc_sum = 0.0;
      batches = 0;
    }
    data::Batch batch;
    // "dataload" measures what the training thread *waits* on: with prefetch
    // enabled it shrinks toward the handoff cost while "dataload_assemble"
    // moves to the background thread.
    const auto fetch = [&] {
      DROPBACK_TRACE_SPAN("dataload");
      return loader.next(batch);
    };
    while (fetch()) {
      std::int64_t step_ns = 0;
      std::int64_t forward_ns = 0;
      std::int64_t backward_ns = 0;
      std::int64_t optimizer_ns = 0;
      double batch_loss = 0.0;
      double batch_acc = 0.0;
      {
        // One trace per optimization step: phase spans below and any kernel
        // pool shards dispatched from them nest under this id, so a slow
        // step decomposes the same way a slow request does (obs/trace.hpp).
        obs::ScopedTraceContext step_trace(obs::begin_trace());
        DROPBACK_TRACE_SPAN("step", &step_ns);
        autograd::Variable input(batch.images);
        autograd::Variable logits;
        autograd::Variable loss;
        {
          DROPBACK_TRACE_SPAN("forward", &forward_ns);
          logits = model_.forward(input);
          loss = nn::cross_entropy(logits, batch.labels);
          if (loss_transform) loss = loss_transform(loss);
        }
        optimizer_.zero_grad();
        {
          DROPBACK_TRACE_SPAN("backward", &backward_ns);
          autograd::backward(loss);
          if (after_backward) after_backward();
        }
        if (options_.anomaly_policy != AnomalyPolicy::kOff) {
          const std::string anomaly = detect_anomaly(loss.value()[0]);
          if (!anomaly.empty()) {
            ++result.anomalies;
            if (events) {
              obs::AnomalyEvent ev;
              ev.step = global_step_;
              ev.what = anomaly;
              ev.policy = policy_name(options_.anomaly_policy);
              events->emit(ev.to_json());
            }
            const std::string what = "numeric anomaly at step " +
                                     std::to_string(global_step_) + ": " +
                                     anomaly;
            if (options_.anomaly_policy == AnomalyPolicy::kThrow) {
              throw AnomalyError(what);  // ~EventStream flushes the record
            }
            if (options_.anomaly_policy == AnomalyPolicy::kSkipStep) {
              ++result.skipped_steps;
              optimizer_.zero_grad();
              if (options_.verbose) util::log_info() << what << " (skipped)";
              continue;
            }
            // kRollback: restore the last snapshot and hand control back.
            if (options_.checkpoint_path.empty() ||
                !util::file_exists(options_.checkpoint_path)) {
              throw AnomalyError(what + " (no snapshot to roll back to)");
            }
            const TrainerSnapshot snap = load_training_snapshot(
                options_.checkpoint_path, params_, optimizer_, loader);
            global_step_ = snap.global_step;
            optimizer_.set_lr(snap.lr);
            TrainResult rolled;
            rolled.history = snap.history;
            rolled.best_val_acc = snap.best_val_acc;
            rolled.best_epoch = snap.best_epoch;
            rolled.anomalies = result.anomalies;
            rolled.skipped_steps = snap.skipped_steps;
            rolled.rolled_back = true;
            if (options_.verbose) util::log_info() << what << " (rolled back)";
            return rolled;  // ~EventStream flushes the anomaly record
          }
        }
        {
          DROPBACK_TRACE_SPAN("optimizer_step", &optimizer_ns);
          optimizer_.step();
        }
        ++global_step_;
        if (after_step) after_step(global_step_);
        {
          DROPBACK_TRACE_SPAN("step_stats");
          batch_loss = loss.value()[0];
          batch_acc = nn::accuracy(logits.value(), batch.labels);
        }
        loss_sum += batch_loss;
        acc_sum += batch_acc;
        ++batches;
        if (options_.checkpoint_every > 0 &&
            global_step_ % options_.checkpoint_every == 0) {
          save_snapshot(loader, epoch, /*in_epoch=*/true, loss_sum, acc_sum,
                        batches, result, stopper, events.get());
          ++checkpoints_written;
        }
      }
      if (events) {
        // After the step span has closed, so step_ms leaves out the cost of
        // this record (score quantiles, JSON rendering); the span below
        // keeps that cost visible in the profile.
        DROPBACK_TRACE_SPAN("telemetry");
        obs::StepEvent ev;
        ev.step = global_step_;
        ev.epoch = epoch;
        ev.loss = batch_loss;
        ev.acc = batch_acc;
        if (dropback) {
          ev.has_dropback = true;
          ev.churn_in = dropback->last_churn();
          ev.churn_out = dropback->last_evictions();
          ev.tracked = dropback->live_weights();
          ev.budget = dropback->current_budget();
          ev.occupancy = ev.budget > 0 ? static_cast<double>(ev.tracked) /
                                             static_cast<double>(ev.budget)
                                       : 0.0;
          const std::vector<double> qs =
              dropback->score_quantiles({0.5, 0.9, 0.99});
          if (qs.size() == 3) {
            ev.has_quantiles = true;
            ev.grad_q50 = qs[0];
            ev.grad_q90 = qs[1];
            ev.grad_q99 = qs[2];
          }
        }
        ev.step_ms = to_ms(step_ns);
        ev.forward_ms = to_ms(forward_ns);
        ev.backward_ms = to_ms(backward_ns);
        ev.optimizer_ms = to_ms(optimizer_ns);
        total_step_ms += ev.step_ms;
        events->emit(ev.to_json());
      }
    }
    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = batches ? loss_sum / batches : 0.0;
    stats.train_acc = batches ? acc_sum / batches : 0.0;
    stats.val_acc = evaluate(model_, val_set_, options_.batch_size);
    stats.lr = optimizer_.lr();
    result.history.push_back(stats);
    stopper.observe(epoch, stats.val_acc);
    if (options_.verbose) {
      util::log_info() << "epoch " << epoch << " loss " << stats.train_loss
                       << " train_acc " << stats.train_acc << " val_acc "
                       << stats.val_acc << " lr " << stats.lr;
    }
    if (on_epoch_end) on_epoch_end(stats);
    if (!options_.checkpoint_path.empty()) {
      save_snapshot(loader, epoch + 1, /*in_epoch=*/false, 0.0, 0.0, 0,
                    result, stopper, events.get());
      ++checkpoints_written;
    }
    if (events) {
      obs::EpochEvent ev;
      ev.epoch = epoch;
      ev.train_loss = stats.train_loss;
      ev.train_acc = stats.train_acc;
      ev.val_acc = stats.val_acc;
      ev.lr = stats.lr;
      ev.frozen = dropback != nullptr && dropback->frozen();
      ev.epoch_ms = to_ms(obs::trace_clock().now_ns() - epoch_begin);
      events->emit(ev.to_json());
      // Epoch boundary: persist the stream so a crash mid-run loses at most
      // the current epoch's records (same cadence as the checkpoints).
      events->flush();
    }
    if (stopper.should_stop()) break;
  }
  result.best_val_acc = stopper.best_val_acc();
  result.best_epoch = stopper.best_epoch();
  if (events) {
    obs::SummaryEvent ev;
    ev.steps = global_step_;
    ev.epochs = static_cast<std::int64_t>(result.history.size());
    ev.anomalies = result.anomalies;
    ev.checkpoints = checkpoints_written;
    ev.best_val_acc = result.best_val_acc;
    ev.total_step_ms = total_step_ms;
    events->emit(ev.to_json());
    events->flush();
  }
  return result;
}

double Trainer::evaluate(nn::Module& model, const data::Dataset& dataset,
                         std::int64_t batch_size) {
  DROPBACK_TRACE_SPAN("evaluate");
  autograd::NoGradGuard no_grad;
  const bool was_training = model.training();
  model.set_training(false);
  double correct_weighted = 0.0;
  std::int64_t seen = 0;
  for (std::int64_t first = 0; first < dataset.size(); first += batch_size) {
    const std::int64_t count =
        std::min(batch_size, dataset.size() - first);
    data::Batch batch = dataset.slice(first, count);
    autograd::Variable input(batch.images);
    autograd::Variable logits = model.forward(input);
    correct_weighted +=
        nn::accuracy(logits.value(), batch.labels) * static_cast<double>(count);
    seen += count;
  }
  model.set_training(was_training);
  return seen ? correct_weighted / static_cast<double>(seen) : 0.0;
}

}  // namespace dropback::train
