#include "obs/event_stream.hpp"

#include <ostream>
#include <utility>

#include "util/atomic_file.hpp"
#include "util/json.hpp"

namespace dropback::obs {

AtomicFileSink::AtomicFileSink(std::string path) : path_(std::move(path)) {}

void AtomicFileSink::append(const std::string& line) {
  buffer_ += line;
  buffer_ += '\n';
  dirty_ = true;
}

void AtomicFileSink::flush() {
  if (!dirty_) return;
  util::atomic_write_file(path_,
                          [this](std::ostream& out) { out << buffer_; });
  dirty_ = false;
}

void MemorySink::append(const std::string& line) { lines_.push_back(line); }

std::string StepEvent::to_json() const {
  util::JsonObject o;
  o.add("type", "step")
      .add("step", step)
      .add("epoch", epoch)
      .add("loss", loss)
      .add("acc", acc);
  if (has_dropback) {
    o.add("churn_in", churn_in)
        .add("churn_out", churn_out)
        .add("tracked", tracked)
        .add("budget", budget)
        .add("occupancy", occupancy);
  } else {
    o.add_null("churn_in")
        .add_null("churn_out")
        .add_null("tracked")
        .add_null("budget")
        .add_null("occupancy");
  }
  if (has_quantiles) {
    o.add("grad_q50", grad_q50)
        .add("grad_q90", grad_q90)
        .add("grad_q99", grad_q99);
  } else {
    o.add_null("grad_q50").add_null("grad_q90").add_null("grad_q99");
  }
  o.add("step_ms", step_ms)
      .add("forward_ms", forward_ms)
      .add("backward_ms", backward_ms)
      .add("optimizer_ms", optimizer_ms);
  return o.str();
}

std::string EpochEvent::to_json() const {
  return util::JsonObject()
      .add("type", "epoch")
      .add("epoch", epoch)
      .add("train_loss", train_loss)
      .add("train_acc", train_acc)
      .add("val_acc", val_acc)
      .add("lr", lr)
      .add("frozen", frozen)
      .add("epoch_ms", epoch_ms)
      .str();
}

std::string CheckpointEvent::to_json() const {
  return util::JsonObject()
      .add("type", "checkpoint")
      .add("step", step)
      .add("path", path)
      .add("ms", ms)
      .str();
}

std::string AnomalyEvent::to_json() const {
  return util::JsonObject()
      .add("type", "anomaly")
      .add("step", step)
      .add("what", what)
      .add("policy", policy)
      .str();
}

std::string SummaryEvent::to_json() const {
  return util::JsonObject()
      .add("type", "summary")
      .add("steps", steps)
      .add("epochs", epochs)
      .add("anomalies", anomalies)
      .add("checkpoints", checkpoints)
      .add("best_val_acc", best_val_acc)
      .add("total_step_ms", total_step_ms)
      .str();
}

std::string ServeIncidentEvent::to_json() const {
  return util::JsonObject()
      .add("type", "serve_incident")
      .add("id", id)
      .add("model", model)
      .add("outcome", outcome)
      .add("degraded", degraded)
      .add("detail", detail)
      .add("latency_ms", latency_ms)
      .str();
}

std::string ServeSummaryEvent::to_json() const {
  return util::JsonObject()
      .add("type", "serve_summary")
      .add("submitted", submitted)
      .add("ok", ok)
      .add("degraded", degraded)
      .add("rejected", rejected)
      .add("shed", shed)
      .add("unavailable", unavailable)
      .add("quarantined", quarantined)
      .add("p50_ms", p50_ms)
      .add("p99_ms", p99_ms)
      .str();
}

EventStream::EventStream(const std::string& path)
    : sink_(std::make_unique<AtomicFileSink>(path)) {}

EventStream::EventStream(std::unique_ptr<JsonlSink> sink)
    : sink_(std::move(sink)) {}

EventStream::~EventStream() {
  try {
    flush();
  } catch (...) {
    // Destructor must not throw; a failed final flush loses telemetry, not
    // training state.
  }
}

void EventStream::emit(const std::string& json_line) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_->append(json_line);
  ++records_;
}

void EventStream::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  sink_->flush();
}

std::int64_t EventStream::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

}  // namespace dropback::obs
