#include "dbk_lint/sarif.hpp"

#include <cctype>
#include <memory>
#include <stdexcept>

#include "util/json.hpp"

namespace dbk_lint {

namespace {

using dropback::util::json_escape;

struct RuleMeta {
  const char* id;
  const char* text;
};

// Fixed, ordered rule table — every id the linter can emit. Kept in sync
// with lint.hpp's rule comments; the golden-bytes test pins the rendering.
const RuleMeta kRules[] = {
    {"R1", "raw threading primitives outside util::ThreadPool"},
    {"R2", "raw file writes bypassing util::atomic_write_file"},
    {"R3", "ambient nondeterminism (wall clock / random_device / rand)"},
    {"R4", "unordered-container iteration in serialization functions"},
    {"R5", "floating-point ==/!= against literals outside tests"},
    {"R6", "duplicate profile-scope labels / unregistered src .cpp"},
    {"R7", "vendor SIMD intrinsics outside src/simd/"},
    {"R8", "serving-layer thread discipline (detach / unbounded wait)"},
    {"R9", "raw monotonic-clock reads outside util::ClockSource"},
    {"R10", "tracked-set capacity mutation outside src/core/"},
    {"R11", "include-graph layering contract violation"},
    {"R12", "determinism taint reachable from serialization/kernel root"},
    {"R13", "raw stream I/O bypassing util::ByteReader/ByteWriter"},
    {"S1", "stale suppression (matched no finding)"},
};

// ---------------------------------------------------------------------------
// Minimal nested-JSON reader for the round-trip check. The util flat-object
// parser only handles one level; SARIF is deeply nested, so the verifier
// carries its own ~100-line recursive-descent parser rather than trusting
// the emitter to check itself.
// ---------------------------------------------------------------------------

struct JsonNode {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonNode> array;
  std::vector<std::pair<std::string, JsonNode>> object;

  const JsonNode* get(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  JsonNode parse() {
    JsonNode root = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after document");
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("SARIF parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonNode value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_node();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }

  JsonNode object() {
    JsonNode n;
    n.kind = JsonNode::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return n;
    }
    while (true) {
      skip_ws();
      JsonNode key = string_node();
      skip_ws();
      expect(':');
      n.object.emplace_back(key.string, value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return n;
    }
  }

  JsonNode array() {
    JsonNode n;
    n.kind = JsonNode::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return n;
    }
    while (true) {
      n.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return n;
    }
  }

  JsonNode string_node() {
    JsonNode n;
    n.kind = JsonNode::Kind::kString;
    expect('"');
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return n;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': n.string += '"'; break;
          case '\\': n.string += '\\'; break;
          case '/': n.string += '/'; break;
          case 'n': n.string += '\n'; break;
          case 't': n.string += '\t'; break;
          case 'r': n.string += '\r'; break;
          case 'b': n.string += '\b'; break;
          case 'f': n.string += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            // The emitter only \u-escapes control characters; decode the
            // low byte and ignore the (always-zero) high byte.
            const std::string hex = text_.substr(pos_, 4);
            pos_ += 4;
            n.string +=
                static_cast<char>(std::stoi(hex, nullptr, 16) & 0xff);
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        n.string += c;
      }
    }
  }

  JsonNode boolean() {
    JsonNode n;
    n.kind = JsonNode::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      n.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      n.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return n;
  }

  JsonNode null() {
    if (text_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return JsonNode{};
  }

  JsonNode number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonNode n;
    n.kind = JsonNode::Kind::kNumber;
    n.number = std::stod(text_.substr(start, pos_ - start));
    return n;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string sarif_report(const std::vector<Finding>& findings) {
  std::string out;
  out +=
      "{\n"
      "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
      "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"dbk_lint\",\n"
      "          \"informationUri\": \"docs/STATIC_ANALYSIS.md\",\n"
      "          \"rules\": [\n";
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    out += "            {\"id\": \"";
    out += kRules[i].id;
    out += "\", \"shortDescription\": {\"text\": \"";
    out += json_escape(kRules[i].text);
    out += "\"}}";
    out += (i + 1 < std::size(kRules)) ? ",\n" : "\n";
  }
  out +=
      "          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += (i == 0) ? "\n" : ",\n";
    out += "        {\n";
    out += "          \"ruleId\": \"" + json_escape(f.rule) + "\",\n";
    out += std::string("          \"level\": \"") +
           (f.warning ? "warning" : "error") + "\",\n";
    out += "          \"message\": {\"text\": \"" + json_escape(f.message) +
           "\"},\n";
    out += "          \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"" +
           json_escape(f.file) +
           "\"}, \"region\": {\"startLine\": " + std::to_string(f.line) +
           "}}}]";
    if (f.suppressed) {
      const bool in_source = f.suppress_reason.rfind("inline:", 0) == 0;
      out += ",\n          \"suppressions\": [{\"kind\": \"";
      out += in_source ? "inSource" : "external";
      out += "\", \"justification\": \"" + json_escape(f.suppress_reason) +
             "\"}]";
    }
    out += "\n        }";
  }
  out += findings.empty() ? "]\n" : "\n      ]\n";
  out +=
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

SarifVerification verify_sarif(const std::string& sarif_text,
                               const std::vector<Finding>& findings) {
  SarifVerification v;
  for (const auto& f : findings) ++v.expected[f.rule];

  JsonNode root;
  try {
    root = JsonReader(sarif_text).parse();
  } catch (const std::exception& e) {
    v.error = e.what();
    return v;
  }
  auto bail = [&v](const std::string& why) {
    v.error = why;
    return v;
  };
  if (root.kind != JsonNode::Kind::kObject) return bail("root is not an object");
  const JsonNode* version = root.get("version");
  if (!version || version->string != "2.1.0") {
    return bail("version is not \"2.1.0\"");
  }
  const JsonNode* schema = root.get("$schema");
  if (!schema || schema->string.find("sarif-schema-2.1.0") == std::string::npos) {
    return bail("$schema does not reference sarif-schema-2.1.0");
  }
  const JsonNode* runs = root.get("runs");
  if (!runs || runs->kind != JsonNode::Kind::kArray || runs->array.empty()) {
    return bail("runs is not a non-empty array");
  }
  const JsonNode& run = runs->array[0];
  const JsonNode* tool = run.get("tool");
  const JsonNode* driver = tool ? tool->get("driver") : nullptr;
  if (!driver) return bail("runs[0].tool.driver missing");
  const JsonNode* name = driver->get("name");
  if (!name || name->string != "dbk_lint") {
    return bail("tool.driver.name is not \"dbk_lint\"");
  }
  const JsonNode* rules = driver->get("rules");
  if (!rules || rules->kind != JsonNode::Kind::kArray) {
    return bail("tool.driver.rules missing");
  }
  std::map<std::string, bool> declared;
  for (const auto& r : rules->array) {
    const JsonNode* id = r.get("id");
    if (!id || id->string.empty()) return bail("rule without an id");
    declared[id->string] = true;
  }
  const JsonNode* results = run.get("results");
  if (!results || results->kind != JsonNode::Kind::kArray) {
    return bail("runs[0].results missing");
  }
  for (std::size_t i = 0; i < results->array.size(); ++i) {
    const JsonNode& r = results->array[i];
    const std::string at = "results[" + std::to_string(i) + "]";
    const JsonNode* rule_id = r.get("ruleId");
    if (!rule_id || rule_id->string.empty()) return bail(at + ".ruleId missing");
    if (!declared.count(rule_id->string)) {
      return bail(at + ".ruleId '" + rule_id->string +
                  "' not declared in tool.driver.rules");
    }
    const JsonNode* message = r.get("message");
    const JsonNode* text = message ? message->get("text") : nullptr;
    if (!text || text->string.empty()) return bail(at + ".message.text missing");
    const JsonNode* locations = r.get("locations");
    if (!locations || locations->kind != JsonNode::Kind::kArray ||
        locations->array.empty()) {
      return bail(at + ".locations missing");
    }
    const JsonNode* phys = locations->array[0].get("physicalLocation");
    const JsonNode* artifact = phys ? phys->get("artifactLocation") : nullptr;
    const JsonNode* uri = artifact ? artifact->get("uri") : nullptr;
    if (!uri || uri->string.empty()) {
      return bail(at + ".physicalLocation.artifactLocation.uri missing");
    }
    const JsonNode* region = phys->get("region");
    const JsonNode* start = region ? region->get("startLine") : nullptr;
    if (!start || start->kind != JsonNode::Kind::kNumber ||
        start->number < 1) {
      return bail(at + ".region.startLine missing or < 1");
    }
    ++v.emitted[rule_id->string];
  }

  if (v.emitted != v.expected) {
    v.error = "per-rule result counts do not match the findings serialized";
    return v;
  }
  v.ok = true;
  return v;
}

}  // namespace dbk_lint
