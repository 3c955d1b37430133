// dbk_lint — project-specific determinism & safety static analysis.
//
// A from-scratch token/line-level scanner (no libclang), now a two-phase
// whole-program analyzer. Phase one makes a single pass over every file:
// source text is scrubbed of comments, string literals, and char literals,
// then the per-line rules run over the scrubbed lines while the same pass
// extracts a FileModel — the quoted-#include edges and an approximate
// function/call-site model from the brace-depth tracker. Phase two stitches
// the models into the repo-wide #include graph (graph.hpp) and call graph
// (callgraph.hpp) for the whole-program rules R11/R12. The rules encode the
// contracts that keep training bitwise-reproducible (docs/PARALLELISM.md,
// docs/ROBUSTNESS.md):
//
//   R1  threading primitives (std::thread/jthread/async, mutexes,
//       condition variables) only in util/thread_pool and the DataLoader
//       prefetch worker — everything else must go through util::ThreadPool.
//   R2  no raw fopen/std::ofstream/std::fstream artifact writes outside
//       util/atomic_file — artifacts must be crash-safe (temp+fsync+rename).
//   R3  no wall-clock / ambient-randomness sources (std::rand, srand,
//       std::random_device, std::chrono::system_clock, time(), gettimeofday,
//       localtime/gmtime) anywhere in library, example, or bench code;
//       util/log (timestamps) and util/timer are whitelisted.
//   R4  no iteration over std::unordered_map/std::unordered_set inside
//       serialization functions (name starts with save/load or contains
//       checkpoint/serialize) — unordered iteration order is
//       implementation-defined and would make artifact bytes nondeterministic.
//   R5  no floating-point ==/!= against float literals outside tests
//       (bitwise-equivalence assertions live in tests/). Intentional exact
//       compares (sparsity sentinels) carry an inline suppression.
//   R6  every DROPBACK_TRACE_SPAN label is unique within its function,
//       and every .cpp under src/ is registered in src/CMakeLists.txt.
//   R7  vendor SIMD intrinsics (immintrin.h/arm_neon.h includes, _mm*/
//       __m128/__m256/__m512/vld1/vst1 identifiers) only under src/simd/ —
//       all ISA-specific code lives behind the runtime dispatch layer so
//       every call site stays portable and scalar-verifiable (docs/SIMD.md).
//   R8  serving-layer thread discipline (src/serve/ only): no detached
//       threads (workers are joined in stop() so shutdown resolves every
//       request) and no unbounded condition-variable waits — every .wait(
//       must be wait_for/wait_until so a lost notify or stalled producer
//       cannot hang a worker (docs/SERVING.md). R8 is the counterweight to
//       the serve layer's R1 allowlist grant.
//   R9  no raw std::chrono::steady_clock::now() / high_resolution_clock
//       reads under src/ (outside src/util/) or examples/ — wall-time must
//       flow through util::ClockSource so tests and the tracer can inject a
//       deterministic clock (docs/OBSERVABILITY.md).
//   R10 tracked-set capacity changes (TrackedSet::select / select_per_param
//       / readmit) only under src/core/ — everywhere else the live budget
//       k_t must flow through the optim::BudgetSchedule installed on the
//       DropBackOptimizer, so one authority decides capacity and
//       checkpoint/resume stays bitwise-consistent (docs/SCHEDULES.md).
//       Baselines and micro-benchmarks that legitimately drive their own
//       TrackedSet instances are allowlisted; tests are exempt.
//   R11 include-graph layering contract (whole-program, src/ only): the
//       subsystem layering DAG declared in graph.cpp — util at the bottom,
//       obs/rng/tensor/energy above it, core/optim/nn/autograd above those,
//       data/train/inference/serve/quant/baselines/analysis on top; obs is
//       includable from anywhere but includes nothing above util; simd is
//       reachable only through its dispatch facade (simd/dispatch.hpp,
//       simd/kernels.hpp) — is checked against the real #include graph,
//       with upward-edge diagnostics, facade-bypass diagnostics, and cycle
//       detection (file-level and subsystem-level) that prints the shortest
//       violating path (docs/STATIC_ANALYSIS.md).
//   R12 interprocedural determinism reachability (whole-program, src/
//       only): the R3 (ambient nondeterminism) and R4 (unordered-container
//       iteration) taints propagate transitively over the approximate call
//       graph. Any function reachable from a serialization root
//       (save_*/load_*/checkpoint/serialize) or from a kernel entry point
//       (functions defined under src/simd/ or src/tensor/) must be
//       taint-free; the diagnostic prints the offending call chain down to
//       the tainted line. A source whose own line-level finding is
//       inline-suppressed (reviewed and deliberate) does not propagate.
//   R13 no stream read/write through reinterpret_cast<...char*> under src/
//       outside src/util/ — persisted bytes go through util::ByteWriter /
//       util::ByteReader (util/bytes.hpp), the one bounds-checked codec, so
//       a private pod codec cannot come back.
//
// Suppression comes in two forms (docs/STATIC_ANALYSIS.md):
//   * inline: a comment `dbk-lint: allow(R5): reason` on the offending line,
//     or on its own line applying to the next line; R11 anchors on the
//     offending #include line, R12 on the root function's definition line;
//   * allowlist file (tools/dbk_lint.rules): `R1 path[/] reason...` lines,
//     exact file match or directory-prefix match when the path ends in '/'.
//
// Suppressed findings are still produced (marked suppressed) so the JSON
// report shows the full audit trail; only unsuppressed findings fail the
// run. Suppressions that matched nothing in a full-tree scan are themselves
// reported as stale (rule S1, a warning unless --strict-suppressions).
#pragma once

#include <map>
#include <string>
#include <vector>

namespace dbk_lint {

/// One diagnostic. `file` is root-relative with '/' separators.
struct Finding {
  std::string rule;      ///< "R1".."R13", or "S1" (stale suppression)
  std::string file;      ///< e.g. "src/tensor/matmul.cpp"
  int line = 0;          ///< 1-based
  std::string message;   ///< human-readable diagnostic
  bool suppressed = false;
  std::string suppress_reason;  ///< why (inline directive or allowlist entry)
  /// Warnings (stale-suppression audit without --strict-suppressions) never
  /// fail the run; they are reported and carry "warning" severity in the
  /// JSONL/SARIF output.
  bool warning = false;
};

/// One `rule path reason` allowlist line.
struct AllowEntry {
  std::string rule;    ///< "R1".."R13" or "*" for any rule
  std::string path;    ///< file path, or directory prefix ending in '/'
  std::string reason;  ///< rest of the line (shown in suppressed findings)
  int line = 0;        ///< 1-based line in the allowlist file (S1 anchor)
};

class Allowlist {
 public:
  /// Parses the tools/dbk_lint.rules format. Lines: blank, `# comment`, or
  /// `RULE PATH [reason...]`. Returns false and sets `error` on a malformed
  /// line (unknown rule id, missing path).
  bool parse(const std::string& text, std::string* error);

  /// Matching entry for (rule, relpath), or nullptr.
  const AllowEntry* match(const std::string& rule,
                          const std::string& relpath) const;

  const std::vector<AllowEntry>& entries() const { return entries_; }

 private:
  std::vector<AllowEntry> entries_;
};

// ---------------------------------------------------------------------------
// Phase-one file model (built in the same single pass as the line rules)
// ---------------------------------------------------------------------------

/// A quoted #include directive surviving scrubbing (never inside a comment,
/// string, or raw string). `target` is the literal path between the quotes.
struct IncludeRef {
  int line = 0;
  std::string target;
};

/// One `ident(` call site inside a function body (keywords filtered).
struct CallSite {
  int line = 0;
  std::string name;
};

/// An approximate function definition from the brace-depth tracker.
struct FunctionDef {
  std::string name;
  int line = 0;  ///< line of the opening brace (definition anchor)
  std::vector<CallSite> calls;
  // Determinism taints observed lexically inside the body. Line 0 = clean.
  int nondet_line = 0;          ///< first R3-class token
  std::string nondet_token;
  int unordered_line = 0;       ///< first unordered-container iteration
  std::string unordered_via;
};

/// One inline `dbk-lint: allow(...)` directive (for the S1 staleness audit).
struct InlineDirective {
  int line = 0;                    ///< line the directive comment is on
  std::vector<std::string> rules;  ///< rule ids it names
  std::string reason;
  bool used = false;               ///< suppressed at least one finding
};

/// Everything phase one knows about a file. The scrub + line loop runs once;
/// line findings, includes, and the function/call model all come out of it.
struct FileModel {
  std::string relpath;
  std::vector<IncludeRef> includes;
  std::vector<FunctionDef> functions;
  /// R1..R10 and R13, suppression NOT yet applied
  std::vector<Finding> line_findings;
  std::vector<InlineDirective> directives;
  /// line -> directive indices whose grant covers that line.
  std::map<int, std::vector<int>> allow_by_line;

  /// Inline-allow lookup used when applying suppressions: directive index
  /// granting `rule` at `line`, or -1.
  int find_inline(int line, const std::string& rule) const;
};

/// Scrubs and analyzes one translation unit: runs the per-line rules and
/// extracts the include/function model in a single pass over the scrubbed
/// lines. Suppressions are not applied here.
FileModel analyze_source(const std::string& relpath,
                         const std::string& content);

// ---------------------------------------------------------------------------
// Whole-tree / multi-file analysis
// ---------------------------------------------------------------------------

/// An in-memory source file (tests feed synthetic trees through this).
struct SourceFile {
  std::string relpath;
  std::string content;
};

struct LintOptions {
  /// Run the whole-program passes (R11/R12) and the R6 CMake-registration
  /// check. lint_source() turns this off for single-file fixture linting.
  bool whole_program = true;
  /// Report stale suppressions (S1). Only meaningful on a full-tree scan;
  /// automatically disabled when `changed_files` scopes the run.
  bool audit_suppressions = false;
  /// Upgrade S1 warnings to errors (--strict-suppressions).
  bool strict_suppressions = false;
  /// When non-empty, restrict reported findings to the strongly-connected
  /// include/call neighborhood of these files (--changed). The graph is
  /// still built from every file — phase one is whole-program by nature.
  std::vector<std::string> changed_files;
  /// src/CMakeLists.txt text for the R6 registration check ("" = skip).
  std::string cmake_text;
  /// Path of the allowlist file, used to anchor S1 findings.
  std::string rules_relpath = "tools/dbk_lint.rules";
};

struct LintResult {
  std::vector<Finding> findings;
  int files_scanned = 0;  ///< files parsed (always the whole tree)
  int files_linted = 0;   ///< files whose findings were reported (scope)
};

/// The full two-phase analysis over an in-memory file set.
LintResult lint_files(const std::vector<SourceFile>& files,
                      const Allowlist& allow, const LintOptions& opts);

/// Single-file compatibility wrapper: line rules + suppressions only (no
/// whole-program passes, no staleness audit).
std::vector<Finding> lint_source(const std::string& relpath,
                                 const std::string& content,
                                 const Allowlist& allow);

/// R6 registration check: every path in `src_cpp_relpaths` (root-relative,
/// e.g. "src/tensor/matmul.cpp") must appear in the text of
/// src/CMakeLists.txt.
std::vector<Finding> lint_cmake_registration(
    const std::string& cmake_text,
    const std::vector<std::string>& src_cpp_relpaths, const Allowlist& allow);

/// Walks {src, examples, bench, tests}/ under `root` (sorted, deterministic),
/// reads every .cpp/.hpp/.h, and runs lint_files over them (whole-program
/// passes included). `opts.cmake_text` is filled from src/CMakeLists.txt.
LintResult lint_tree(const std::string& root, const Allowlist& allow,
                     LintOptions opts);

/// Baseline mode: demotes every finding that also appears in
/// `baseline_jsonl` (a previous --json report; matched on rule + file +
/// message, line-insensitive so unrelated edits don't resurrect it) to
/// suppressed with reason "baseline: <label>". Returns how many matched.
int apply_baseline(std::vector<Finding>& findings,
                   const std::string& baseline_jsonl,
                   const std::string& label);

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// One flat JSON object per finding (obs JSONL spirit):
///   {"rule":...,"file":...,"line":...,"severity":...,"message":...,
///    "suppressed":...}
std::string finding_json(const Finding& f);

/// Whole-run JSONL report: one line per finding plus a trailing summary
/// record {"type":"summary","files":...,"findings":...,"suppressed":...,
/// "unsuppressed":...,"warnings":...}.
std::string report_jsonl(const std::vector<Finding>& findings, int files);

/// Number of findings that are not suppressed and not warnings (the process
/// exit criterion).
int unsuppressed_count(const std::vector<Finding>& findings);

}  // namespace dbk_lint
