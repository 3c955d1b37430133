// metrics_tool — validator / summarizer for the JSONL telemetry streams
// written by --metrics-out (obs/event_stream.hpp schemas), and critical-path
// analyzer for Chrome-trace files exported by the span tracer (obs/trace.hpp).
//
//   ./metrics_tool run.jsonl               # validate + summary table
//   ./metrics_tool --strict run.jsonl      # exit 1 on any schema violation
//   ./metrics_tool trace serve.trace.json  # per-segment p50/p99 + slowest
//   ./metrics_tool trace --top=5 t.json    # traces with their span trees
//
// JSONL mode: every line must parse as one flat JSON object with a known
// "type" ("step" | "epoch" | "checkpoint" | "anomaly" | "summary") carrying
// that type's required fields. Corrupt telemetry fails loudly: a malformed
// line prints its line number and the parser's byte-position diagnostic,
// and the tool exits non-zero. The summary reports record counts per type,
// the min/max step loss, total step time, and tracked-set churn totals.
//
// Trace mode: groups spans by trace id, reports count/p50/p99/max duration
// per span name (the serve segments queue_wait/batch_form/resolve/exec/
// deliver tile each request, so their quantiles decompose e2e latency), and
// prints the top-k slowest traces as indented span trees.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using dropback::util::JsonValue;

/// Requires `key` to exist with number type (or null when nullable).
/// Returns false (and prints) on violation.
bool check_field(const std::map<std::string, JsonValue>& rec,
                 const std::string& key, bool nullable, std::size_t lineno,
                 std::vector<std::string>& errors) {
  const auto it = rec.find(key);
  if (it == rec.end()) {
    errors.push_back("line " + std::to_string(lineno) + ": missing field '" +
                     key + "'");
    return false;
  }
  if (it->second.type == JsonValue::Type::kNull) {
    if (!nullable) {
      errors.push_back("line " + std::to_string(lineno) + ": field '" + key +
                       "' must not be null");
      return false;
    }
    return true;
  }
  if (it->second.type != JsonValue::Type::kNumber) {
    errors.push_back("line " + std::to_string(lineno) + ": field '" + key +
                     "' must be a number");
    return false;
  }
  return true;
}

double number_or(const std::map<std::string, JsonValue>& rec,
                 const std::string& key, double fallback) {
  const auto it = rec.find(key);
  if (it == rec.end() || it->second.type != JsonValue::Type::kNumber) {
    return fallback;
  }
  return it->second.number;
}

// ---------------------------------------------------------------------------
// trace subcommand
// ---------------------------------------------------------------------------

/// Nearest-rank quantile over microsecond durations (sorted ascending).
std::int64_t dur_quantile(const std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size()) + 0.5);
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

std::string format_ms(std::int64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(us) / 1000.0);
  return buf;
}

/// One request's (or step's) reassembled trace.
struct TraceGroup {
  std::uint64_t trace_id = 0;
  std::vector<dropback::obs::SpanRecord> spans;
  std::int64_t start_us = std::numeric_limits<std::int64_t>::max();
  std::int64_t end_us = std::numeric_limits<std::int64_t>::min();
  std::int64_t duration_us() const { return end_us - start_us; }
};

void print_span_tree(const TraceGroup& group,
                     const std::map<std::uint64_t, std::vector<std::size_t>>&
                         children,
                     std::size_t index, int depth) {
  const dropback::obs::SpanRecord& span = group.spans[index];
  std::printf("    %*s%-14s +%s ms  %s ms  (tid %d)\n", depth * 2, "",
              span.name.c_str(),
              format_ms(span.start_us - group.start_us).c_str(),
              format_ms(span.dur_us).c_str(), span.tid);
  const auto it = children.find(span.span_id);
  if (it == children.end()) return;
  for (const std::size_t child : it->second) {
    print_span_tree(group, children, child, depth + 1);
  }
}

int run_trace_mode(const std::string& path, int top_k) {
  using namespace dropback;
  std::vector<obs::SpanRecord> spans;
  try {
    spans = obs::parse_chrome_trace(util::read_file(path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metrics_tool: %s\n", e.what());
    return 1;
  }
  if (spans.empty()) {
    std::fprintf(stderr, "metrics_tool: %s contains no spans\n",
                 path.c_str());
    return 1;
  }

  std::map<std::uint64_t, TraceGroup> groups;
  std::map<std::string, std::vector<std::int64_t>> durs_by_name;
  for (const obs::SpanRecord& span : spans) {
    durs_by_name[span.name].push_back(span.dur_us);
    // Trace id 0: a span opened outside any request or step (data loading,
    // evaluation, an untraced pool dispatch). It has no trace to join.
    if (span.trace_id == 0) continue;
    TraceGroup& g = groups[span.trace_id];
    g.trace_id = span.trace_id;
    g.start_us = std::min(g.start_us, span.start_us);
    g.end_us = std::max(g.end_us, span.start_us + span.dur_us);
    g.spans.push_back(span);
  }

  // Per-segment latency decomposition: the serve segments tile each
  // request, so e.g. p99(queue_wait) answers "where do slow requests wait".
  util::Table table({"span", "count", "p50 ms", "p99 ms", "max ms"});
  for (auto& [name, durs] : durs_by_name) {
    std::sort(durs.begin(), durs.end());
    table.add_row({name, std::to_string(durs.size()),
                   format_ms(dur_quantile(durs, 0.5)),
                   format_ms(dur_quantile(durs, 0.99)),
                   format_ms(durs.back())});
  }
  std::printf("%zu span(s) across %zu trace(s)\n%s", spans.size(),
              groups.size(), table.render().c_str());

  // Top-k slowest traces with their span trees (critical paths).
  std::vector<const TraceGroup*> ordered;
  ordered.reserve(groups.size());
  for (const auto& [id, g] : groups) ordered.push_back(&g);
  std::sort(ordered.begin(), ordered.end(),
            [](const TraceGroup* a, const TraceGroup* b) {
              if (a->duration_us() != b->duration_us()) {
                return a->duration_us() > b->duration_us();
              }
              return a->trace_id < b->trace_id;
            });
  const std::size_t shown =
      std::min<std::size_t>(static_cast<std::size_t>(top_k), ordered.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const TraceGroup& g = *ordered[i];
    std::printf("\n#%zu trace %llu: %s ms, %zu span(s)\n", i + 1,
                static_cast<unsigned long long>(g.trace_id),
                format_ms(g.duration_us()).c_str(), g.spans.size());
    std::map<std::uint64_t, std::vector<std::size_t>> children;
    std::vector<std::size_t> roots;
    for (std::size_t s = 0; s < g.spans.size(); ++s) {
      if (g.spans[s].parent_id == 0) {
        roots.push_back(s);
      } else {
        children[g.spans[s].parent_id].push_back(s);
      }
    }
    for (const std::size_t root : roots) {
      print_span_tree(g, children, root, 0);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dropback;
  util::Flags flags(argc, argv);
  const bool strict = flags.get_bool("strict", false);
  bool trace_mode = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "trace" && !trace_mode && path.empty()) {
      trace_mode = true;
    } else if (arg.rfind("--", 0) != 0) {
      path = arg;
    }
  }
  if (path.empty()) {
    std::printf(
        "usage: metrics_tool [--strict] <stream.jsonl>\n"
        "       metrics_tool trace [--top=N] <trace.json>\n");
    return 2;
  }
  if (trace_mode) {
    return run_trace_mode(path,
                          static_cast<int>(flags.get_int("top", 3)));
  }

  std::string bytes;
  try {
    bytes = util::read_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metrics_tool: %s\n", e.what());
    return 1;
  }

  std::map<std::string, std::int64_t> type_counts;
  std::vector<std::string> errors;
  double min_loss = std::numeric_limits<double>::infinity();
  double max_loss = -std::numeric_limits<double>::infinity();
  double total_step_ms = 0.0;
  std::int64_t churn_in_total = 0;
  std::int64_t churn_out_total = 0;
  std::size_t lineno = 0;

  std::size_t pos = 0;
  while (pos < bytes.size()) {
    std::size_t end = bytes.find('\n', pos);
    if (end == std::string::npos) end = bytes.size();
    const std::string line = bytes.substr(pos, end - pos);
    pos = end + 1;
    ++lineno;
    if (line.empty()) continue;

    std::map<std::string, JsonValue> rec;
    try {
      rec = util::parse_flat_object(line);
    } catch (const std::exception& e) {
      errors.push_back("line " + std::to_string(lineno) + ": " + e.what());
      continue;
    }
    const auto type_it = rec.find("type");
    if (type_it == rec.end() ||
        type_it->second.type != JsonValue::Type::kString) {
      errors.push_back("line " + std::to_string(lineno) +
                       ": missing string field 'type'");
      continue;
    }
    const std::string& type = type_it->second.string;
    ++type_counts[type];

    if (type == "step") {
      for (const char* key : {"step", "epoch", "loss", "acc", "step_ms",
                              "forward_ms", "backward_ms", "optimizer_ms"}) {
        check_field(rec, key, /*nullable=*/false, lineno, errors);
      }
      for (const char* key : {"churn_in", "churn_out", "tracked", "budget",
                              "occupancy", "grad_q50", "grad_q90",
                              "grad_q99"}) {
        check_field(rec, key, /*nullable=*/true, lineno, errors);
      }
      const double loss = number_or(rec, "loss", 0.0);
      min_loss = std::min(min_loss, loss);
      max_loss = std::max(max_loss, loss);
      total_step_ms += number_or(rec, "step_ms", 0.0);
      churn_in_total += static_cast<std::int64_t>(
          number_or(rec, "churn_in", 0.0));
      churn_out_total += static_cast<std::int64_t>(
          number_or(rec, "churn_out", 0.0));
    } else if (type == "epoch") {
      for (const char* key : {"epoch", "train_loss", "train_acc", "val_acc",
                              "lr", "epoch_ms"}) {
        check_field(rec, key, /*nullable=*/false, lineno, errors);
      }
    } else if (type == "checkpoint") {
      check_field(rec, "step", false, lineno, errors);
      check_field(rec, "ms", false, lineno, errors);
      if (rec.find("path") == rec.end()) {
        errors.push_back("line " + std::to_string(lineno) +
                         ": checkpoint record missing 'path'");
      }
    } else if (type == "anomaly") {
      check_field(rec, "step", false, lineno, errors);
      if (rec.find("what") == rec.end() || rec.find("policy") == rec.end()) {
        errors.push_back("line " + std::to_string(lineno) +
                         ": anomaly record missing 'what'/'policy'");
      }
    } else if (type == "summary") {
      for (const char* key : {"steps", "epochs", "anomalies", "checkpoints",
                              "best_val_acc", "total_step_ms"}) {
        check_field(rec, key, /*nullable=*/false, lineno, errors);
      }
    } else {
      errors.push_back("line " + std::to_string(lineno) +
                       ": unknown record type '" + type + "'");
    }
  }

  for (const std::string& e : errors) {
    std::fprintf(stderr, "metrics_tool: %s\n", e.c_str());
  }

  util::Table table({"metric", "value"});
  std::int64_t total_records = 0;
  for (const auto& [type, count] : type_counts) {
    table.add_row({"records[" + type + "]", std::to_string(count)});
    total_records += count;
  }
  table.add_row({"records[total]", std::to_string(total_records)});
  const std::int64_t steps = type_counts.count("step") ? type_counts["step"]
                                                       : 0;
  if (steps > 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", min_loss);
    table.add_row({"min loss", buf});
    std::snprintf(buf, sizeof(buf), "%.6g", max_loss);
    table.add_row({"max loss", buf});
    std::snprintf(buf, sizeof(buf), "%.3f ms", total_step_ms);
    table.add_row({"total step time", buf});
    table.add_row({"churn in (sum)", std::to_string(churn_in_total)});
    table.add_row({"churn out (sum)", std::to_string(churn_out_total)});
  }
  table.add_row({"schema errors", std::to_string(errors.size())});
  std::printf("%s", table.render().c_str());

  if (!errors.empty()) {
    std::fprintf(stderr, "metrics_tool: %zu schema error(s) in %s\n",
                 errors.size(), path.c_str());
    return 1;
  }
  if (strict && total_records == 0) {
    std::fprintf(stderr, "metrics_tool: %s contains no records\n",
                 path.c_str());
    return 1;
  }
  return 0;
}
