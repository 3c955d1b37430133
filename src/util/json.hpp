// Minimal JSON support shared by logging, telemetry, and tooling.
//
// The repo deliberately emits *flat* JSON objects — one per line (JSONL) —
// so records stay grep-able, diffable, and parseable without a JSON
// library. JsonObject builds such a record preserving key order;
// parse_flat_object is the matching reader used by the schema tests and
// examples/metrics_tool. Numbers are formatted with shortest-round-trip
// precision so a value survives a write/parse cycle bit-exactly.
//
// This lives in util/ (not obs/) because util::log's flat-JSON format needs
// it: the include-graph layering contract (dbk_lint R11, see
// docs/STATIC_ANALYSIS.md) forbids util from reaching up into obs.
//
// kernel_timing_json is THE shared schema for kernel timings:
//   {"name":...,"calls":...,"total_us":...,"threads":...}
// Both the profiler dump (obs::ProfileReport::to_jsonl) and
// `bench_micro --speedup` emit it, so bench trajectories and profile dumps
// can be diffed against each other.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace dropback::util {

/// Escapes `s` for use inside a JSON string literal (quotes not included).
std::string json_escape(const std::string& s);

/// Shortest-round-trip decimal rendering of a double ("1.5", "0.1", "3").
/// Non-finite values render as null (JSON has no inf/nan).
std::string json_number(double v);

/// Order-preserving flat JSON object builder.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& value);
  JsonObject& add(const std::string& key, const char* value);
  JsonObject& add(const std::string& key, double value);
  JsonObject& add(const std::string& key, std::int64_t value);
  JsonObject& add(const std::string& key, std::uint64_t value);
  JsonObject& add(const std::string& key, int value);
  JsonObject& add(const std::string& key, bool value);
  JsonObject& add_null(const std::string& key);
  /// Inserts `raw` verbatim as the value (for nested pre-rendered JSON).
  JsonObject& add_raw(const std::string& key, const std::string& raw);

  /// Renders "{...}" (no trailing newline).
  std::string str() const;

 private:
  JsonObject& add_rendered(const std::string& key, const std::string& value);
  std::string body_;
};

/// One kernel-timing record in the unified schema shared by the profiler
/// and bench_micro --speedup.
std::string kernel_timing_json(const std::string& name, std::uint64_t calls,
                               std::uint64_t total_us, int threads);

/// A parsed flat JSON value.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
};

/// Parses one flat JSON object (string / number / bool / null values; no
/// nesting, no arrays). Throws std::runtime_error with a position hint on
/// malformed input — corrupt telemetry must fail loudly.
std::map<std::string, JsonValue> parse_flat_object(const std::string& text);

}  // namespace dropback::util
