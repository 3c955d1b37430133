#include "dbk_lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "dbk_lint/callgraph.hpp"
#include "dbk_lint/graph.hpp"
#include "util/json.hpp"

namespace dbk_lint {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

// ---------------------------------------------------------------------------
// Scrubbing: blank out comments, string literals, and char literals so rule
// regexes only ever see code tokens. Same length as the input (newlines are
// preserved), so line/column positions survive. Comment text is captured
// per line for the inline-suppression directives. This is THE one pass over
// raw bytes — everything downstream (line rules, include graph, call graph)
// works off the scrubbed lines it produces.
// ---------------------------------------------------------------------------

struct Scrubbed {
  std::string text;                   // literals/comments replaced by spaces
  std::vector<std::string> comments;  // concatenated comment text per line
};

Scrubbed scrub(const std::string& src) {
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  Scrubbed out;
  out.text.reserve(src.size());
  out.comments.emplace_back();
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  auto keep = [&](char c) { out.text += c; };
  auto blank = [&](char c) { out.text += (c == '\n') ? '\n' : ' '; };
  auto note = [&](char c) {
    if (c != '\n') out.comments.back() += c;
  };

  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = (i + 1 < src.size()) ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          blank(c);
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          blank(c);
          blank(next);
          ++i;
        } else if (c == '"') {
          // Raw string? Preceded by R (itself not part of an identifier).
          if (i >= 1 && src[i - 1] == 'R' &&
              (i < 2 || (!std::isalnum(static_cast<unsigned char>(src[i - 2])) &&
                         src[i - 2] != '_'))) {
            raw_delim.clear();
            std::size_t j = i + 1;
            while (j < src.size() && src[j] != '(' &&
                   raw_delim.size() < 16) {
              raw_delim += src[j++];
            }
            state = State::kRaw;
          } else {
            state = State::kString;
          }
          blank(c);
        } else if (c == '\'') {
          // Only a char literal when not a digit separator / suffix
          // position (1'000'000, operator'' — previous char alnum or _).
          const char prev = (i >= 1) ? src[i - 1] : '\0';
          if (std::isalnum(static_cast<unsigned char>(prev)) || prev == '_') {
            keep(c);
          } else {
            state = State::kChar;
            blank(c);
          }
        } else {
          keep(c);
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
          blank(c);
        } else {
          note(c);
          blank(c);
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          state = State::kCode;
          blank(c);
          blank(next);
          ++i;
        } else {
          note(c);
          blank(c);
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          blank(c);
          blank(next);
          ++i;
        } else {
          if (c == '"') state = State::kCode;
          blank(c);
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          blank(c);
          blank(next);
          ++i;
        } else {
          if (c == '\'') state = State::kCode;
          blank(c);
        }
        break;
      case State::kRaw: {
        // Look for )delim" at this position.
        const std::string closer = ")" + raw_delim + "\"";
        if (src.compare(i, closer.size(), closer) == 0) {
          for (std::size_t k = 0; k < closer.size(); ++k) {
            blank(src[i + k]);
          }
          i += closer.size() - 1;
          state = State::kCode;
        } else {
          blank(c);
        }
        break;
      }
    }
    if (c == '\n') out.comments.emplace_back();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Inline suppression directives: `dbk-lint: allow(R1,R5): reason` inside a
// comment. A directive on a line with code suppresses that line; a directive
// on a comment-only line suppresses the next line as well. Directives in
// raw strings never register (raw-string content is scrubbed, not noted as
// comment text).
// ---------------------------------------------------------------------------

void parse_inline_allows(const Scrubbed& s,
                         const std::vector<std::string>& code_lines,
                         FileModel* model) {
  static const std::regex kDirective(
      R"(dbk-lint:\s*allow\(\s*([A-Za-z0-9*,\s]+?)\s*\)\s*:?\s*(.*))");
  for (std::size_t i = 0; i < s.comments.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(s.comments[i], m, kDirective)) continue;
    InlineDirective d;
    d.line = static_cast<int>(i) + 1;
    d.reason = trim(m[2].str()).empty() ? "inline allow" : trim(m[2].str());
    std::string token;
    for (char c : m[1].str() + ",") {
      if (c == ',' || std::isspace(static_cast<unsigned char>(c))) {
        if (!token.empty()) d.rules.push_back(token);
        token.clear();
      } else {
        token += c;
      }
    }
    const bool comment_only =
        i < code_lines.size() && trim(code_lines[i]).empty();
    const int index = static_cast<int>(model->directives.size());
    model->allow_by_line[d.line].push_back(index);
    if (comment_only) model->allow_by_line[d.line + 1].push_back(index);
    model->directives.push_back(std::move(d));
  }
}

// ---------------------------------------------------------------------------
// Function tracking: a brace-depth scope stack fed by scrubbed text. A `{`
// opens a function body when we are not already inside a function and the
// statement leading up to it ends in a parameter list (heuristic adequate
// for clang-formatted code; lambdas and blocks inside functions keep the
// enclosing function's identity).
// ---------------------------------------------------------------------------

const std::set<std::string>& type_ish_keywords() {
  static const std::set<std::string> kw = {
      "if",     "for",      "while",    "switch",  "catch",   "return",
      "sizeof", "alignof",  "decltype", "noexcept", "void",   "int",
      "float",  "double",   "bool",     "char",    "auto",    "long",
      "short",  "unsigned", "signed",   "const",   "static",  "inline",
      "typename", "template", "operator", "throw", "new",     "delete",
      "static_assert", "defined", "assert"};
  return kw;
}

std::string function_name_from_stmt(const std::string& stmt) {
  static const std::regex kIdentCall(R"(([A-Za-z_]\w*)\s*\()");
  for (auto it = std::sregex_iterator(stmt.begin(), stmt.end(), kIdentCall);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1].str();
    if (type_ish_keywords().count(name) == 0) return name;
  }
  return "<lambda>";
}

bool stmt_opens_function(const std::string& stmt) {
  const std::size_t close = stmt.rfind(')');
  if (close == std::string::npos) return false;
  static const std::regex kScopeKeyword(
      R"(^\s*(namespace|using|typedef|class|struct|enum|union|extern)\b)");
  if (std::regex_search(stmt, kScopeKeyword)) return false;
  // Whatever trails the parameter list must look like cv-qualifiers /
  // noexcept / override / a trailing return type — never an initializer.
  const std::string tail = stmt.substr(close + 1);
  if (tail.find('=') != std::string::npos) return false;
  if (tail.find(',') != std::string::npos) return false;
  return true;
}

struct Scope {
  bool is_function = false;
  int func_id = -1;  // unique per function body
};

struct FunctionInfo {
  std::string name;
  int line = 0;                                 // definition anchor
  std::map<std::string, int> span_labels;       // label -> first line (R6)
  std::vector<std::string> unordered_vars;      // declared names (R4/R12)
  std::vector<CallSite> calls;                  // for the call graph
  int nondet_line = 0;                          // R12 taints
  std::string nondet_token;
  int unordered_line = 0;
  std::string unordered_via;
};

class FunctionTracker {
 public:
  // Feeds one scrubbed line; returns the id of the innermost function this
  // line belongs to (-1 at namespace/class scope). A function opening on
  // this line claims the line.
  int feed_line(const std::string& scrubbed_line, int line_no) {
    int line_func = current_function_id();
    for (char c : scrubbed_line) {
      if (c == '{') {
        Scope s;
        if (current_function_id() < 0 && stmt_opens_function(stmt_)) {
          s.is_function = true;
          s.func_id = next_id_++;
          order_.push_back(s.func_id);
          functions_[s.func_id].name = function_name_from_stmt(stmt_);
          functions_[s.func_id].line = line_no;
        } else {
          s.func_id = current_function_id();
        }
        stack_.push_back(s);
        stmt_.clear();
        if (s.func_id > line_func) line_func = s.func_id;
      } else if (c == '}') {
        if (!stack_.empty()) stack_.pop_back();
        stmt_.clear();
      } else if (c == ';') {
        stmt_.clear();
      } else {
        stmt_ += c;
      }
    }
    return line_func;
  }

  int current_function_id() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->func_id >= 0) return it->func_id;
    }
    return -1;
  }

  FunctionInfo& info(int id) { return functions_[id]; }

  // Definition order, for the deterministic FileModel function list.
  const std::vector<int>& order() const { return order_; }

 private:
  std::vector<Scope> stack_;
  std::string stmt_;
  std::map<int, FunctionInfo> functions_;
  std::vector<int> order_;
  int next_id_ = 0;
};

// ---------------------------------------------------------------------------
// Rule scoping
// ---------------------------------------------------------------------------

bool is_source_under(const std::string& relpath, const char* top) {
  return starts_with(relpath, std::string(top) + "/");
}

bool r1_applies(const std::string& p) {
  // util::ThreadPool owns raw threading; the DataLoader prefetch worker is
  // the one sanctioned raw thread outside it (docs/PARALLELISM.md).
  return !starts_with(p, "src/util/thread_pool.") &&
         !starts_with(p, "src/data/dataloader.");
}

bool r2_applies(const std::string& p) {
  return !starts_with(p, "src/util/atomic_file.");
}

bool r3_applies(const std::string& p) {
  // Logging timestamps are the sanctioned wall-clock consumer; elapsed time
  // goes through util::ClockSource, and everything else must be
  // input-deterministic.
  return !starts_with(p, "src/util/log.");
}

bool r5_applies(const std::string& p) {
  // Bitwise-equivalence assertions (EXPECT_EQ on floats) are the point of
  // the test suites; R5 polices library, example, and bench code.
  return !is_source_under(p, "tests");
}

bool r7_applies(const std::string& p) {
  // src/simd/ is the one sanctioned home for vendor intrinsics; everywhere
  // else must call through the dispatch layer (docs/SIMD.md).
  return !starts_with(p, "src/simd/");
}

bool r8_applies(const std::string& p) {
  // The serving layer is granted raw threads/mutexes (R1 allowlist); R8 is
  // the price: joined threads and bounded waits only (docs/SERVING.md).
  return starts_with(p, "src/serve/");
}

bool r9_applies(const std::string& p) {
  // util::ClockSource is the one sanctioned home for monotonic-clock reads;
  // everything else must take an injectable clock so tests and the tracer
  // can substitute a deterministic one (docs/OBSERVABILITY.md).
  return (is_source_under(p, "src") && !starts_with(p, "src/util/")) ||
         is_source_under(p, "examples");
}

bool r10_applies(const std::string& p) {
  // src/core/ (DropBackOptimizer driving its TrackedSet under the installed
  // BudgetSchedule) is the one sanctioned capacity authority; tests may
  // exercise TrackedSet directly.
  return (is_source_under(p, "src") && !starts_with(p, "src/core/")) ||
         is_source_under(p, "examples") || is_source_under(p, "bench");
}

bool r13_applies(const std::string& p) {
  // util::ByteWriter/ByteReader (src/util/bytes) is the one byte codec;
  // the container and atomic-file plumbing beside it share its layer.
  return is_source_under(p, "src") && !starts_with(p, "src/util/");
}

bool serialization_function(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return starts_with(lower, "save") || starts_with(lower, "load") ||
         lower.find("checkpoint") != std::string::npos ||
         lower.find("serialize") != std::string::npos;
}

// ---------------------------------------------------------------------------
// Per-line token rules
// ---------------------------------------------------------------------------

const std::regex& r1_regex() {
  static const std::regex re(
      R"(std::\s*(jthread|thread|async|recursive_mutex|timed_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|mutex|condition_variable_any|condition_variable)\b)");
  return re;
}

const std::regex& r2_regex() {
  static const std::regex re(
      R"((^|[^\w:])(fopen|freopen)\s*\(|std::\s*(ofstream|fstream)\b)");
  return re;
}

const std::regex& r3_regex() {
  static const std::regex re(
      R"(std::\s*rand\b|(^|[^\w:])(srand|gettimeofday|localtime|gmtime|gmtime_r|localtime_r)\s*\(|random_device|system_clock|(^|[^\w:.])(std::\s*)?time\s*\()");
  return re;
}

// Vendor SIMD intrinsics: ISA-specific headers (angle-bracket includes
// survive scrubbing) and the x86 _mm*/__m* and NEON vld1/vst1/float32x4_t
// identifier families. Anything matching here is untestable on other
// targets and belongs under src/simd/ behind the dispatch tables.
const std::regex& r7_regex() {
  static const std::regex re(
      R"((immintrin\.h|x86intrin\.h|emmintrin\.h|xmmintrin\.h|smmintrin\.h|nmmintrin\.h|tmmintrin\.h|avxintrin\.h|arm_neon\.h)|(^|[^\w])(_mm_|_mm256_|_mm512_|__m128|__m256|__m512|__mmask(8|16|32|64)\b|vld1q?_|vst1q?_|(float|u?int)(8|16|32|64)x(2|4|8|16)(x[234])?_t\b)\w*)");
  return re;
}

// Float literal on either side of ==/!= (fractional part, exponent, or a
// trailing f/F make it unmistakably floating-point at the token level).
const std::regex& r5_regex() {
  static const std::regex re(
      R"(([=!]=\s*[-+]?(\d+\.\d*|\.\d+|\d+[eE][-+]?\d+)([eE][-+]?\d+)?[fFlL]?)|((\d+\.\d*|\.\d+|\d+[eE][-+]?\d+)([eE][-+]?\d+)?[fFlL]?\s*[=!]=))");
  return re;
}

// Bare `.wait(` / `->wait(` — wait_for/wait_until have a '_' after "wait"
// and do not match. The member-access prefix keeps free functions (e.g.
// a local helper named wait()) out of scope.
const std::regex& r8_wait_regex() {
  static const std::regex re(R"((\.|->)\s*wait\s*\()");
  return re;
}

const std::regex& r8_detach_regex() {
  static const std::regex re(R"((\.|->)\s*detach\s*\()");
  return re;
}

// Direct monotonic-clock reads. system_clock is already R3's business; this
// catches the "deterministic-looking" clocks that still defeat injection.
const std::regex& r9_regex() {
  static const std::regex re(
      R"((steady_clock|high_resolution_clock)\s*::\s*now\s*\()");
  return re;
}

// Tracked-set capacity mutators. The member-access prefix keeps free
// functions named select() out of scope; select_per_param is listed before
// select so the longer token wins the alternation.
const std::regex& r10_regex() {
  static const std::regex re(
      R"((\.|->)\s*(select_per_param|select|readmit)\s*\()");
  return re;
}

// A stream read/write whose buffer argument is reinterpret_cast to a char
// pointer: the signature of a private pod codec.
const std::regex& r13_regex() {
  static const std::regex re(
      R"((\.|->)\s*(read|write)\s*\(\s*reinterpret_cast\s*<\s*(const\s+)?(unsigned\s+|signed\s+)?char\s*\*\s*>)");
  return re;
}

// Quoted #include on a scrubbed line. The directive shape must survive
// scrubbing (so `#include` spelled inside a raw string never counts); the
// target itself is blanked with the string literal, so it is re-read from
// the raw line's quotes.
const std::regex& include_regex() {
  static const std::regex re(R"(^\s*#\s*include\s)");
  return re;
}

// Call sites for the approximate call graph: `ident(` with keywords
// filtered. ALL_CAPS identifiers are macro conventions (DROPBACK_CHECK,
// EXPECT_EQ) — they are not functions the tree defines, so they are
// filtered here instead of polluting every node's edge list.
bool looks_like_macro(const std::string& name) {
  bool has_alpha = false;
  for (char c : name) {
    if (std::islower(static_cast<unsigned char>(c))) return false;
    if (std::isupper(static_cast<unsigned char>(c))) has_alpha = true;
  }
  return has_alpha;
}

void emit_line(std::vector<Finding>* findings, const std::string& relpath,
               const std::string& rule, int line, const std::string& message) {
  Finding f;
  f.rule = rule;
  f.file = relpath;
  f.line = line;
  f.message = message;
  findings->push_back(std::move(f));
}

}  // namespace

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

bool Allowlist::parse(const std::string& text, std::string* error) {
  static const std::set<std::string> known = {
      "R1", "R2",  "R3",  "R4",  "R5",  "R6",  "R7",
      "R8", "R9", "R10", "R11", "R12", "R13", "*"};
  int line_no = 0;
  for (const auto& raw : split_lines(text)) {
    ++line_no;
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    AllowEntry e;
    is >> e.rule >> e.path;
    if (known.count(e.rule) == 0 || e.path.empty()) {
      if (error) {
        *error = "allowlist line " + std::to_string(line_no) +
                 ": expected '<rule> <path> [reason]', got: " + line;
      }
      return false;
    }
    std::getline(is, e.reason);
    e.reason = trim(e.reason);
    e.line = line_no;
    entries_.push_back(std::move(e));
  }
  return true;
}

const AllowEntry* Allowlist::match(const std::string& rule,
                                   const std::string& relpath) const {
  for (const auto& e : entries_) {
    if (e.rule != rule && e.rule != "*") continue;
    const bool dir = !e.path.empty() && e.path.back() == '/';
    if (dir ? starts_with(relpath, e.path) : relpath == e.path) return &e;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// FileModel
// ---------------------------------------------------------------------------

int FileModel::find_inline(int line, const std::string& rule) const {
  auto it = allow_by_line.find(line);
  if (it == allow_by_line.end()) return -1;
  for (int idx : it->second) {
    for (const auto& r : directives[static_cast<std::size_t>(idx)].rules) {
      if (r == rule || r == "*") return idx;
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// analyze_source — the single pass
// ---------------------------------------------------------------------------

FileModel analyze_source(const std::string& relpath,
                         const std::string& content) {
  FileModel model;
  model.relpath = relpath;
  const Scrubbed scrubbed = scrub(content);
  const std::vector<std::string> code_lines = split_lines(scrubbed.text);
  const std::vector<std::string> raw_lines = split_lines(content);
  parse_inline_allows(scrubbed, code_lines, &model);
  std::vector<Finding>& findings = model.line_findings;
  FunctionTracker tracker;

  static const std::regex kUnorderedDecl(
      R"(unordered_(map|set)\s*<.*>\s*&?\s*([A-Za-z_]\w*))");
  static const std::regex kRangeForUnordered(
      R"(for\s*\([^)]*:[^)]*unordered_(map|set))");
  static const std::regex kTraceSpan(
      R"rx(DROPBACK_TRACE_SPAN\s*\(\s*"([^"]*)"\s*[,)])rx");
  static const std::regex kQuotedTarget(R"rx(#\s*include\s*"([^"]+)")rx");
  static const std::regex kIdentCall(R"(([A-Za-z_]\w*)\s*\()");

  for (std::size_t i = 0; i < code_lines.size(); ++i) {
    const std::string& line = code_lines[i];
    const int line_no = static_cast<int>(i) + 1;
    const int func_id = tracker.feed_line(line, line_no);
    std::smatch m;

    // Include extraction: directive shape from the scrubbed line, target
    // from the raw line (the literal was blanked by the scrubber).
    if (std::regex_search(line, include_regex())) {
      const std::string& raw = raw_lines[i];
      std::smatch im;
      if (std::regex_search(raw, im, kQuotedTarget)) {
        model.includes.push_back(IncludeRef{line_no, im[1].str()});
      }
    }

    if (r1_applies(relpath) && std::regex_search(line, m, r1_regex())) {
      emit_line(&findings, relpath, "R1", line_no,
                "raw threading primitive std::" + m[1].str() +
                    " — all parallelism must go through util::ThreadPool "
                    "(docs/PARALLELISM.md)");
    }

    if (r2_applies(relpath) && std::regex_search(line, m, r2_regex())) {
      emit_line(&findings, relpath, "R2", line_no,
                "raw file write (" + trim(m[0].str()) +
                    ") — artifacts must go through util::atomic_write_file "
                    "so crashes cannot leave partial files");
    }

    const bool r3_hit =
        r3_applies(relpath) && std::regex_search(line, m, r3_regex());
    if (r3_hit) {
      emit_line(&findings, relpath, "R3", line_no,
                "nondeterminism source (" + trim(m[0].str()) +
                    ") — kernels, optimizers, and serialization must be "
                    "bitwise-reproducible; use rng::Xorshift / util::ClockSource");
    }

    if (func_id >= 0) {
      FunctionInfo& fn = tracker.info(func_id);

      // R12 nondet taint: first R3-class token in the body (whitelisted
      // files never match above, so they cannot become sources).
      if (r3_hit && fn.nondet_line == 0) {
        fn.nondet_line = line_no;
        fn.nondet_token = trim(m[0].str());
      }

      // Call sites for the call graph (skip the line's own definition
      // opener — `void foo(int) {` is not a call of foo).
      for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                          kIdentCall);
           it != std::sregex_iterator(); ++it) {
        const std::string name = (*it)[1].str();
        if (type_ish_keywords().count(name) != 0) continue;
        if (looks_like_macro(name)) continue;
        if (fn.line == line_no && name == fn.name) continue;
        fn.calls.push_back(CallSite{line_no, name});
      }

      // R4 (+ the generalized R12 unordered taint): record unordered
      // container names; detect iteration in any function, but the
      // line-level finding stays scoped to serialization functions.
      if (std::regex_search(line, m, kUnorderedDecl)) {
        fn.unordered_vars.push_back(m[2].str());
      }
      bool iterates = std::regex_search(line, kRangeForUnordered);
      std::string via = "unordered container";
      if (!iterates) {
        for (const auto& var : fn.unordered_vars) {
          const std::regex use(R"(for\s*\([^)]*:[^)]*\b)" + var +
                               R"(\b|\b)" + var + R"(\s*\.\s*c?r?begin\s*\()");
          if (std::regex_search(line, use)) {
            iterates = true;
            via = "'" + var + "'";
            break;
          }
        }
      }
      if (iterates) {
        if (fn.unordered_line == 0) {
          fn.unordered_line = line_no;
          fn.unordered_via = via;
        }
        if (serialization_function(fn.name)) {
          emit_line(&findings, relpath, "R4", line_no,
                    "iteration over " + via + " inside serialization "
                    "function '" + fn.name +
                    "' — unordered iteration order makes artifact bytes "
                    "nondeterministic; sort keys or use std::map");
        }
      }

      // R6: duplicate span labels within one function.
      if (line.find("DROPBACK_TRACE_SPAN") != std::string::npos) {
        const std::string& raw = raw_lines[i];
        std::smatch pm;
        if (std::regex_search(raw, pm, kTraceSpan)) {
          const std::string label = pm[1].str();
          auto [it, inserted] = fn.span_labels.emplace(label, line_no);
          if (!inserted) {
            emit_line(&findings, relpath, "R6", line_no,
                      "duplicate DROPBACK_TRACE_SPAN label \"" + label +
                          "\" in function '" + fn.name + "' (first at line " +
                          std::to_string(it->second) +
                          ") — labels must be unique per function so "
                          "profile paths merge unambiguously");
          }
        }
      }
    }

    if (r5_applies(relpath) && std::regex_search(line, m, r5_regex())) {
      emit_line(&findings, relpath, "R5", line_no,
                "floating-point ==/!= against literal (" + trim(m[0].str()) +
                    ") — exact FP compares belong in tests' bitwise "
                    "assertions; use an epsilon or suppress with a reason");
    }

    if (r7_applies(relpath) && std::regex_search(line, m, r7_regex())) {
      emit_line(&findings, relpath, "R7", line_no,
                "vendor SIMD intrinsic (" + trim(m[0].str()) +
                    ") outside src/simd/ — ISA-specific code must live "
                    "behind the runtime dispatch tables (docs/SIMD.md)");
    }

    if (r8_applies(relpath)) {
      if (std::regex_search(line, m, r8_wait_regex())) {
        emit_line(&findings, relpath, "R8", line_no,
                  "unbounded condition-variable wait — every blocking wait "
                  "in src/serve/ must be wait_for/wait_until so a lost "
                  "notify or a stalled producer cannot hang a worker "
                  "(docs/SERVING.md)");
      }
      if (std::regex_search(line, m, r8_detach_regex())) {
        emit_line(&findings, relpath, "R8", line_no,
                  "detached thread in the serving layer — server threads "
                  "must be joined in stop() so shutdown resolves every "
                  "in-flight request (docs/SERVING.md)");
      }
    }

    if (r10_applies(relpath) && std::regex_search(line, m, r10_regex())) {
      emit_line(&findings, relpath, "R10", line_no,
                "tracked-set capacity mutation (" + m[2].str() +
                    ") outside src/core/ — the live budget k_t may only "
                    "change through the optim::BudgetSchedule installed on "
                    "the DropBackOptimizer (docs/SCHEDULES.md)");
    }

    if (r13_applies(relpath) && std::regex_search(line, m, r13_regex())) {
      emit_line(&findings, relpath, "R13", line_no,
                "raw stream " + m[2].str() +
                    " through reinterpret_cast<char*> outside src/util/ — "
                    "persisted bytes must go through util::ByteWriter / "
                    "util::ByteReader (util/bytes.hpp), the one bounds-checked "
                    "codec");
    }

    if (r9_applies(relpath) && std::regex_search(line, m, r9_regex())) {
      emit_line(&findings, relpath, "R9", line_no,
                "raw " + m[1].str() +
                    "::now() outside src/util/ — wall-time reads must go "
                    "through util::ClockSource (util/steady_clock.hpp) so "
                    "tests and the tracer can inject a deterministic clock "
                    "(docs/OBSERVABILITY.md)");
    }
  }

  // Lift the tracker's function records into the model.
  for (int id : tracker.order()) {
    FunctionInfo& fn = tracker.info(id);
    FunctionDef def;
    def.name = fn.name;
    def.line = fn.line;
    def.calls = std::move(fn.calls);
    def.nondet_line = fn.nondet_line;
    def.nondet_token = fn.nondet_token;
    def.unordered_line = fn.unordered_line;
    def.unordered_via = fn.unordered_via;
    model.functions.push_back(std::move(def));
  }
  return model;
}

// ---------------------------------------------------------------------------
// Suppression application (centralized so the S1 staleness audit can see
// which grants actually did work)
// ---------------------------------------------------------------------------

namespace {

struct SuppressionState {
  std::map<std::string, FileModel*> by_path;
  const Allowlist* allow = nullptr;
  std::vector<bool> entry_used;  // parallel to allow->entries()

  void init(std::vector<FileModel>& models, const Allowlist& a) {
    for (auto& m : models) by_path[m.relpath] = &m;
    allow = &a;
    entry_used.assign(a.entries().size(), false);
  }

  void mark_entry(const AllowEntry* e) {
    const std::size_t idx =
        static_cast<std::size_t>(e - allow->entries().data());
    if (idx < entry_used.size()) entry_used[idx] = true;
  }

  // Applies inline-then-allowlist suppression to one finding.
  void apply(Finding& f) {
    auto it = by_path.find(f.file);
    if (it != by_path.end()) {
      const int idx = it->second->find_inline(f.line, f.rule);
      if (idx >= 0) {
        InlineDirective& d =
            it->second->directives[static_cast<std::size_t>(idx)];
        d.used = true;
        f.suppressed = true;
        f.suppress_reason = "inline: " + d.reason;
        return;
      }
    }
    if (const AllowEntry* e = allow->match(f.rule, f.file)) {
      mark_entry(e);
      f.suppressed = true;
      f.suppress_reason =
          "allowlist: " + (e->reason.empty() ? e->path : e->reason);
    }
  }

  // A taint source is "reviewed" (and must not propagate through R12) when
  // its line carries an inline R3/R4/R12 grant or its file holds a matching
  // allowlist grant. Consuming a grant this way counts as usage.
  bool source_reviewed(FileModel& m, int line, const char* line_rule) {
    for (const char* rule : {line_rule, "R12"}) {
      const int idx = m.find_inline(line, rule);
      if (idx >= 0) {
        m.directives[static_cast<std::size_t>(idx)].used = true;
        return true;
      }
      if (const AllowEntry* e = allow->match(rule, m.relpath)) {
        mark_entry(e);
        return true;
      }
    }
    return false;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// lint_files — the two-phase orchestration
// ---------------------------------------------------------------------------

LintResult lint_files(const std::vector<SourceFile>& files,
                      const Allowlist& allow, const LintOptions& opts) {
  LintResult result;

  // Phase one: one pass per file.
  std::vector<FileModel> models;
  models.reserve(files.size());
  for (const auto& f : files) {
    models.push_back(analyze_source(f.relpath, f.content));
  }
  std::sort(models.begin(), models.end(),
            [](const FileModel& a, const FileModel& b) {
              return a.relpath < b.relpath;
            });
  result.files_scanned = static_cast<int>(models.size());

  SuppressionState supp;
  supp.init(models, allow);

  std::vector<Finding> findings;

  // Phase two: whole-program passes over the stitched models.
  IncludeGraph igraph;
  if (opts.whole_program) {
    // Reviewed taint sources do not propagate (docs/STATIC_ANALYSIS.md).
    for (auto& m : models) {
      for (auto& fn : m.functions) {
        if (fn.nondet_line != 0 &&
            supp.source_reviewed(m, fn.nondet_line, "R3")) {
          fn.nondet_line = 0;
        }
        if (fn.unordered_line != 0 &&
            supp.source_reviewed(m, fn.unordered_line, "R4")) {
          fn.unordered_line = 0;
        }
      }
    }
    igraph = IncludeGraph::build(models);
  }

  // Scope: everything, or the changed files' strongly-connected
  // include/call neighborhood.
  std::set<std::string> scope;
  const bool scoped = !opts.changed_files.empty();
  if (scoped) {
    std::set<std::string> seeds;
    for (const auto& c : opts.changed_files) {
      if (supp.by_path.count(c)) seeds.insert(c);
    }
    scope = igraph.neighborhood(seeds);
    if (opts.whole_program) {
      CallGraph cg = CallGraph::build(models);
      std::vector<std::string> seed_list(seeds.begin(), seeds.end());
      for (const auto& f : cg.call_neighbors(seed_list)) scope.insert(f);
    }
  }
  auto in_scope = [&](const std::string& relpath) {
    return !scoped || scope.count(relpath) > 0;
  };

  for (const auto& m : models) {
    if (!in_scope(m.relpath)) continue;
    ++result.files_linted;
    findings.insert(findings.end(), m.line_findings.begin(),
                    m.line_findings.end());
  }

  if (opts.whole_program) {
    for (auto& f : check_layering(igraph)) {
      if (in_scope(f.file)) findings.push_back(std::move(f));
    }
    CallGraph cg = CallGraph::build(models);
    for (auto& f : check_reachability(cg)) {
      if (in_scope(f.file)) findings.push_back(std::move(f));
    }
    // R6 registration check (full scans only — a scoped scan may not see
    // every registered file).
    if (!scoped && !opts.cmake_text.empty()) {
      std::vector<std::string> src_cpps;
      for (const auto& m : models) {
        if (starts_with(m.relpath, "src/") && m.relpath.size() > 4 &&
            m.relpath.compare(m.relpath.size() - 4, 4, ".cpp") == 0) {
          src_cpps.push_back(m.relpath);
        }
      }
      for (const auto& rel : src_cpps) {
        std::string in_src = rel.substr(4);
        if (opts.cmake_text.find(in_src) != std::string::npos) continue;
        Finding f;
        f.rule = "R6";
        f.file = "src/CMakeLists.txt";
        f.line = 1;
        f.message = rel +
                    " is not registered in add_library(dropback ...) — every "
                    ".cpp under src/ must be listed so the library, tests, "
                    "and sanitizer builds all see it";
        // The registration grant is keyed on the unregistered file, not on
        // src/CMakeLists.txt (one grant per exempted file).
        if (const AllowEntry* e = allow.match("R6", rel)) {
          supp.mark_entry(e);
          f.suppressed = true;
          f.suppress_reason =
              "allowlist: " + (e->reason.empty() ? e->path : e->reason);
        }
        findings.push_back(std::move(f));
      }
    }
  }

  for (auto& f : findings) {
    if (!f.suppressed) supp.apply(f);
  }

  // S1: stale suppressions. Only meaningful when the whole tree was both
  // scanned and reported — a scoped run leaves most grants legitimately
  // idle.
  if (opts.audit_suppressions && !scoped) {
    for (const auto& m : models) {
      for (const auto& d : m.directives) {
        if (d.used) continue;
        Finding f;
        f.rule = "S1";
        f.file = m.relpath;
        f.line = d.line;
        f.warning = !opts.strict_suppressions;
        std::string rules;
        for (const auto& r : d.rules) {
          if (!rules.empty()) rules += ",";
          rules += r;
        }
        f.message = "stale inline suppression allow(" + rules +
                    ") — it matched no finding in this scan; delete the "
                    "directive (or fix the rule id) so dead grants cannot "
                    "mask future regressions";
        findings.push_back(std::move(f));
      }
    }
    for (std::size_t i = 0; i < allow.entries().size(); ++i) {
      if (supp.entry_used[i]) continue;
      const AllowEntry& e = allow.entries()[i];
      Finding f;
      f.rule = "S1";
      f.file = opts.rules_relpath;
      f.line = e.line;
      f.warning = !opts.strict_suppressions;
      f.message = "stale allowlist entry '" + e.rule + " " + e.path +
                  "' — it suppressed no finding in this scan; prune it so "
                  "dead grants cannot mask future regressions";
      findings.push_back(std::move(f));
    }
  }

  result.findings = std::move(findings);
  return result;
}

std::vector<Finding> lint_source(const std::string& relpath,
                                 const std::string& content,
                                 const Allowlist& allow) {
  std::vector<SourceFile> files{{relpath, content}};
  LintOptions opts;
  opts.whole_program = false;
  opts.audit_suppressions = false;
  return lint_files(files, allow, opts).findings;
}

// ---------------------------------------------------------------------------
// R6b: CMake registration (single-shot public helper, kept for unit tests
// and ad-hoc tooling; lint_files owns the in-run check)
// ---------------------------------------------------------------------------

std::vector<Finding> lint_cmake_registration(
    const std::string& cmake_text,
    const std::vector<std::string>& src_cpp_relpaths, const Allowlist& allow) {
  std::vector<Finding> findings;
  for (const auto& rel : src_cpp_relpaths) {
    std::string in_src = rel;
    if (starts_with(in_src, "src/")) in_src = in_src.substr(4);
    if (cmake_text.find(in_src) != std::string::npos) continue;
    Finding f;
    f.rule = "R6";
    f.file = "src/CMakeLists.txt";
    f.line = 1;
    f.message = rel +
                " is not registered in add_library(dropback ...) — every "
                ".cpp under src/ must be listed so the library, tests, and "
                "sanitizer builds all see it";
    if (const AllowEntry* e = allow.match("R6", rel)) {
      f.suppressed = true;
      f.suppress_reason =
          "allowlist: " + (e->reason.empty() ? e->path : e->reason);
    }
    findings.push_back(std::move(f));
  }
  return findings;
}

// ---------------------------------------------------------------------------
// lint_tree
// ---------------------------------------------------------------------------

LintResult lint_tree(const std::string& root, const Allowlist& allow,
                     LintOptions opts) {
  namespace fs = std::filesystem;
  std::vector<std::string> relpaths;
  for (const char* top : {"src", "examples", "bench", "tests"}) {
    const fs::path dir = fs::path(root) / top;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
      relpaths.push_back(fs::relative(entry.path(), root).generic_string());
    }
  }
  std::sort(relpaths.begin(), relpaths.end());

  std::vector<SourceFile> files;
  files.reserve(relpaths.size());
  for (const auto& rel : relpaths) {
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    if (!in) {
      throw std::runtime_error("dbk_lint: cannot read " + rel);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back(SourceFile{rel, buf.str()});
  }

  if (opts.whole_program && opts.cmake_text.empty()) {
    const fs::path cmake_path = fs::path(root) / "src" / "CMakeLists.txt";
    if (fs::exists(cmake_path)) {
      std::ifstream in(cmake_path);
      std::ostringstream buf;
      buf << in.rdbuf();
      opts.cmake_text = buf.str();
    }
  }
  return lint_files(files, allow, opts);
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

int apply_baseline(std::vector<Finding>& findings,
                   const std::string& baseline_jsonl,
                   const std::string& label) {
  std::set<std::string> keys;
  for (const auto& line : split_lines(baseline_jsonl)) {
    const std::string t = trim(line);
    if (t.empty()) continue;
    try {
      const auto obj = dropback::util::parse_flat_object(t);
      auto rule = obj.find("rule");
      auto file = obj.find("file");
      auto message = obj.find("message");
      if (rule == obj.end() || file == obj.end() || message == obj.end()) {
        continue;  // summary record or foreign line
      }
      keys.insert(rule->second.string + '\x1f' + file->second.string +
                  '\x1f' + message->second.string);
    } catch (const std::exception&) {
      continue;  // tolerate trailing garbage; the matcher is best-effort
    }
  }
  int demoted = 0;
  for (auto& f : findings) {
    if (f.suppressed || f.warning) continue;
    if (keys.count(f.rule + '\x1f' + f.file + '\x1f' + f.message)) {
      f.suppressed = true;
      f.suppress_reason = "baseline: " + label;
      ++demoted;
    }
  }
  return demoted;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

std::string finding_json(const Finding& f) {
  dropback::util::JsonObject o;
  o.add("rule", f.rule)
      .add("file", f.file)
      .add("line", f.line)
      .add("severity", f.warning ? "warning" : "error")
      .add("message", f.message)
      .add("suppressed", f.suppressed);
  if (f.suppressed) o.add("reason", f.suppress_reason);
  return o.str();
}

int unsuppressed_count(const std::vector<Finding>& findings) {
  int n = 0;
  for (const auto& f : findings) {
    if (!f.suppressed && !f.warning) ++n;
  }
  return n;
}

std::string report_jsonl(const std::vector<Finding>& findings, int files) {
  std::string out;
  int suppressed = 0;
  int warnings = 0;
  for (const auto& f : findings) {
    out += finding_json(f);
    out += '\n';
    if (f.suppressed) ++suppressed;
    if (f.warning && !f.suppressed) ++warnings;
  }
  out += dropback::util::JsonObject()
             .add("type", "summary")
             .add("files", files)
             .add("findings", static_cast<int>(findings.size()))
             .add("suppressed", suppressed)
             .add("warnings", warnings)
             .add("unsuppressed", unsuppressed_count(findings))
             .str();
  out += '\n';
  return out;
}

}  // namespace dbk_lint
