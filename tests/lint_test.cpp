// Unit tests for tools/dbk_lint: every rule R1–R13 has at least one
// true-positive fixture (the rule fires on a minimal offending snippet) and
// at least one suppression fixture (inline directive or allowlist entry
// silences it), plus scrubber and include-extractor edge cases (comments,
// strings, raw strings, digit separators, #ifdef branches, same-basename
// headers), whole-program fixtures (layering, taint chains, neighborhood
// scoping, staleness audit, baselines), SARIF golden bytes + round-trip
// checks, and report-format checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dbk_lint/graph.hpp"
#include "dbk_lint/lint.hpp"
#include "dbk_lint/sarif.hpp"
#include "util/json.hpp"

namespace {

using dbk_lint::Allowlist;
using dbk_lint::Finding;
using dbk_lint::lint_source;

Allowlist empty_allow() { return Allowlist{}; }

Allowlist parse_allow(const std::string& text) {
  Allowlist a;
  std::string error;
  EXPECT_TRUE(a.parse(text, &error)) << error;
  return a;
}

// Findings for `rule` only (suppressed and not).
std::vector<Finding> findings_for(const std::vector<Finding>& all,
                                  const std::string& rule) {
  std::vector<Finding> out;
  for (const auto& f : all) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

int live_count(const std::vector<Finding>& all, const std::string& rule) {
  int n = 0;
  for (const auto& f : all) {
    if (f.rule == rule && !f.suppressed) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// R1: raw threading primitives
// ---------------------------------------------------------------------------

TEST(LintR1, FiresOnRawThreadAndMutex) {
  const std::string src =
      "#include <thread>\n"
      "void spawn() {\n"
      "  std::thread t([] {});\n"
      "  std::mutex mu;\n"
      "  t.join();\n"
      "}\n";
  const auto all = lint_source("src/core/worker.cpp", src, empty_allow());
  const auto r1 = findings_for(all, "R1");
  ASSERT_EQ(r1.size(), 2U);
  EXPECT_EQ(r1[0].line, 3);
  EXPECT_EQ(r1[0].file, "src/core/worker.cpp");
  EXPECT_FALSE(r1[0].suppressed);
  EXPECT_NE(r1[0].message.find("std::thread"), std::string::npos);
  EXPECT_EQ(r1[1].line, 4);
}

TEST(LintR1, FiresOnAsyncAndConditionVariable) {
  const std::string src =
      "void f() {\n"
      "  auto fut = std::async([] { return 1; });\n"
      "  std::condition_variable cv;\n"
      "}\n";
  const auto all = lint_source("bench/bench_x.cpp", src, empty_allow());
  EXPECT_EQ(live_count(all, "R1"), 2);
}

TEST(LintR1, ThreadPoolAndDataLoaderAreBuiltInAllowed) {
  const std::string src = "std::thread worker_;\nstd::mutex mu_;\n";
  EXPECT_TRUE(findings_for(
                  lint_source("src/util/thread_pool.cpp", src, empty_allow()),
                  "R1")
                  .empty());
  EXPECT_TRUE(findings_for(
                  lint_source("src/data/dataloader.hpp", src, empty_allow()),
                  "R1")
                  .empty());
}

TEST(LintR1, AllowlistSuppressesButKeepsAuditTrail) {
  const auto allow =
      parse_allow("R1 src/obs/widget.cpp  leaf lock, never in kernels\n");
  const auto all = lint_source("src/obs/widget.cpp",
                               "std::mutex mu_;\n", allow);
  const auto r1 = findings_for(all, "R1");
  ASSERT_EQ(r1.size(), 1U);
  EXPECT_TRUE(r1[0].suppressed);
  EXPECT_NE(r1[0].suppress_reason.find("leaf lock"), std::string::npos);
  EXPECT_EQ(dbk_lint::unsuppressed_count(all), 0);
}

TEST(LintR1, DirectoryPrefixAllowlistEntry) {
  const auto allow = parse_allow("R1 src/obs/  telemetry locks\n");
  EXPECT_EQ(live_count(lint_source("src/obs/deep/nested.cpp",
                                   "std::mutex mu;\n", allow),
                       "R1"),
            0);
  // Prefix must not leak to sibling directories.
  EXPECT_EQ(live_count(lint_source("src/optim/sgd.cpp",
                                   "std::mutex mu;\n", allow),
                       "R1"),
            1);
}

// ---------------------------------------------------------------------------
// R2: raw artifact writes
// ---------------------------------------------------------------------------

TEST(LintR2, FiresOnOfstreamAndFopen) {
  const std::string src =
      "void save_weights(const char* p) {\n"
      "  std::ofstream out(p, std::ios::binary);\n"
      "  FILE* f = fopen(p, \"wb\");\n"
      "}\n";
  const auto all = lint_source("src/nn/saver.cpp", src, empty_allow());
  const auto r2 = findings_for(all, "R2");
  ASSERT_EQ(r2.size(), 2U);
  EXPECT_EQ(r2[0].line, 2);
  EXPECT_EQ(r2[1].line, 3);
  EXPECT_NE(r2[0].message.find("atomic_write_file"), std::string::npos);
}

TEST(LintR2, AtomicFileImplementationIsBuiltInAllowed) {
  const auto all = lint_source("src/util/atomic_file.cpp",
                               "std::ofstream out(tmp);\n", empty_allow());
  EXPECT_TRUE(findings_for(all, "R2").empty());
}

TEST(LintR2, IfstreamReadsAreFine) {
  const auto all = lint_source(
      "src/nn/loader.cpp", "std::ifstream in(p, std::ios::binary);\n",
      empty_allow());
  EXPECT_TRUE(findings_for(all, "R2").empty());
}

TEST(LintR2, InlineAllowOnSameLine) {
  const std::string src =
      "std::ofstream out(p);  // dbk-lint: allow(R2): scratch file\n";
  const auto all = lint_source("src/util/scratch.cpp", src, empty_allow());
  const auto r2 = findings_for(all, "R2");
  ASSERT_EQ(r2.size(), 1U);
  EXPECT_TRUE(r2[0].suppressed);
  EXPECT_NE(r2[0].suppress_reason.find("scratch file"), std::string::npos);
}

TEST(LintR2, AllowlistSuppression) {
  const auto allow =
      parse_allow("R2 src/data/export.cpp  dataset fixture writer\n");
  const auto all = lint_source("src/data/export.cpp",
                               "std::ofstream out(p);\n", allow);
  const auto r2 = findings_for(all, "R2");
  ASSERT_EQ(r2.size(), 1U);
  EXPECT_TRUE(r2[0].suppressed);
  EXPECT_NE(r2[0].suppress_reason.find("fixture writer"), std::string::npos);
}

// ---------------------------------------------------------------------------
// R3: ambient nondeterminism
// ---------------------------------------------------------------------------

TEST(LintR3, FiresOnRandTimeAndSystemClock) {
  const std::string src =
      "int f() {\n"
      "  int a = std::rand();\n"
      "  std::random_device rd;\n"
      "  auto t = std::chrono::system_clock::now();\n"
      "  long s = time(nullptr);\n"
      "  return a;\n"
      "}\n";
  const auto all = lint_source("src/optim/jitter.cpp", src, empty_allow());
  EXPECT_EQ(live_count(all, "R3"), 4);
}

TEST(LintR3, SteadyClockAndXorshiftAreFine) {
  const std::string src =
      "auto t = std::chrono::steady_clock::now();\n"
      "rng::Xorshift gen(seed);\n"
      "double total_time(int x);\n"  // identifier ending in "time" + call
      "int y = total_time(3);\n";
  const auto all = lint_source("src/core/kernel.cpp", src, empty_allow());
  EXPECT_TRUE(findings_for(all, "R3").empty());
}

TEST(LintR3, OnlyLogIsBuiltInWhitelisted) {
  const std::string src = "const std::time_t now = std::time(nullptr);\n";
  EXPECT_TRUE(
      findings_for(lint_source("src/util/log.cpp", src, empty_allow()), "R3")
          .empty());
  EXPECT_EQ(live_count(lint_source("src/core/x.cpp", src, empty_allow()),
                       "R3"),
            1);
  // Elapsed time goes through util::ClockSource; no other util file is
  // exempt.
  EXPECT_EQ(
      live_count(lint_source("src/util/stopwatch.hpp", src, empty_allow()),
                 "R3"),
      1);
}

TEST(LintR3, CommentOnlyDirectiveSuppressesNextLine) {
  const std::string src =
      "// dbk-lint: allow(R3): seeding the demo from the wall clock is ok\n"
      "unsigned seed = time(nullptr);\n";
  const auto all = lint_source("examples/demo.cpp", src, empty_allow());
  const auto r3 = findings_for(all, "R3");
  ASSERT_EQ(r3.size(), 1U);
  EXPECT_TRUE(r3[0].suppressed);
}

TEST(LintR3, AllowlistSuppression) {
  const auto allow = parse_allow("R3 examples/demo.cpp  demo-only seeding\n");
  const auto all = lint_source("examples/demo.cpp",
                               "std::random_device rd;\n", allow);
  const auto r3 = findings_for(all, "R3");
  ASSERT_EQ(r3.size(), 1U);
  EXPECT_TRUE(r3[0].suppressed);
}

// ---------------------------------------------------------------------------
// R4: unordered iteration in serialization functions
// ---------------------------------------------------------------------------

TEST(LintR4, FiresOnRangeForOverUnorderedInSaveFunction) {
  const std::string src =
      "void save_state(std::ostream& out,\n"
      "                const std::unordered_map<std::string, int>& m) {\n"
      "  for (const auto& kv : m) {\n"
      "    out << kv.first;\n"
      "  }\n"
      "}\n";
  const auto all = lint_source("src/train/state.cpp", src, empty_allow());
  const auto r4 = findings_for(all, "R4");
  ASSERT_EQ(r4.size(), 1U);
  EXPECT_EQ(r4[0].line, 3);
  EXPECT_FALSE(r4[0].suppressed);
  EXPECT_NE(r4[0].message.find("save_state"), std::string::npos);
}

TEST(LintR4, FiresOnBeginIterationInCheckpointFunction) {
  const std::string src =
      "void write_checkpoint(std::ostream& out) {\n"
      "  std::unordered_set<int> keys;\n"
      "  for (auto it = keys.begin(); it != keys.end(); ++it) {\n"
      "    out << *it;\n"
      "  }\n"
      "}\n";
  const auto all = lint_source("src/train/ckpt.cpp", src, empty_allow());
  EXPECT_EQ(live_count(all, "R4"), 1);
}

TEST(LintR4, UnorderedIterationOutsideSerializationIsFine) {
  const std::string src =
      "int count_visited(const std::unordered_set<int>& seen) {\n"
      "  int n = 0;\n"
      "  for (int v : seen) n += v;\n"
      "  return n;\n"
      "}\n";
  const auto all = lint_source("src/autograd/walk.cpp", src, empty_allow());
  EXPECT_TRUE(findings_for(all, "R4").empty());
}

TEST(LintR4, OrderedMapInSaveFunctionIsFine) {
  const std::string src =
      "void save_state(std::ostream& out, const std::map<int, int>& m) {\n"
      "  for (const auto& kv : m) out << kv.first;\n"
      "}\n";
  const auto all = lint_source("src/train/state.cpp", src, empty_allow());
  EXPECT_TRUE(findings_for(all, "R4").empty());
}

TEST(LintR4, AllowlistSuppression) {
  const auto allow =
      parse_allow("R4 src/train/state.cpp  keys sorted upstream\n");
  const std::string src =
      "void save_state(const std::unordered_map<int, int>& m) {\n"
      "  for (const auto& kv : m) use(kv);\n"
      "}\n";
  const auto all = lint_source("src/train/state.cpp", src, allow);
  const auto r4 = findings_for(all, "R4");
  ASSERT_EQ(r4.size(), 1U);
  EXPECT_TRUE(r4[0].suppressed);
}

// ---------------------------------------------------------------------------
// R5: floating-point equality
// ---------------------------------------------------------------------------

TEST(LintR5, FiresOnFloatLiteralComparison) {
  const std::string src =
      "bool f(float x, double y) {\n"
      "  if (x == 0.5f) return true;\n"
      "  if (1.0 != y) return true;\n"
      "  return x == 1e-6;\n"
      "}\n";
  const auto all = lint_source("src/core/cmp.cpp", src, empty_allow());
  EXPECT_EQ(live_count(all, "R5"), 3);
}

TEST(LintR5, IntegerAndRelationalComparesAreFine) {
  const std::string src =
      "bool f(int n, float x) {\n"
      "  if (n == 0) return true;\n"
      "  if (x >= 0.5f) return true;\n"
      "  if (x <= 1.0) return false;\n"
      "  return n != 3;\n"
      "}\n";
  const auto all = lint_source("src/core/cmp.cpp", src, empty_allow());
  EXPECT_TRUE(findings_for(all, "R5").empty());
}

TEST(LintR5, TestsAreExemptBitwiseAssertionsLiveThere) {
  const std::string src = "EXPECT_TRUE(loss == 0.25f);\n";
  EXPECT_TRUE(
      findings_for(lint_source("tests/foo_test.cpp", src, empty_allow()),
                   "R5")
          .empty());
  EXPECT_EQ(live_count(lint_source("src/foo.cpp", src, empty_allow()), "R5"),
            1);
}

TEST(LintR5, InlineAllowWithReason) {
  const std::string src =
      "// dbk-lint: allow(R5): exact sparsity sentinel\n"
      "if (w == 0.0F) continue;\n";
  const auto all = lint_source("src/core/sparse.cpp", src, empty_allow());
  const auto r5 = findings_for(all, "R5");
  ASSERT_EQ(r5.size(), 1U);
  EXPECT_TRUE(r5[0].suppressed);
  EXPECT_NE(r5[0].suppress_reason.find("sparsity sentinel"),
            std::string::npos);
}

TEST(LintR5, AllowlistSuppressionAndWildcardRule) {
  const auto allow = parse_allow("* src/legacy/  grandfathered pending port\n");
  const auto all = lint_source("src/legacy/old.cpp",
                               "if (x == 0.5f) { std::mutex mu; }\n", allow);
  ASSERT_EQ(all.size(), 2U);  // R1 + R5, both wildcard-suppressed
  EXPECT_TRUE(all[0].suppressed);
  EXPECT_TRUE(all[1].suppressed);
  EXPECT_EQ(dbk_lint::unsuppressed_count(all), 0);
}

// ---------------------------------------------------------------------------
// R6: span label uniqueness + CMake registration
// ---------------------------------------------------------------------------

TEST(LintR6, FiresOnDuplicateLabelInOneFunction) {
  const std::string src =
      "void step() {\n"
      "  DROPBACK_TRACE_SPAN(\"fwd\");\n"
      "  {\n"
      "    DROPBACK_TRACE_SPAN(\"fwd\");\n"
      "  }\n"
      "}\n";
  const auto all = lint_source("src/train/step.cpp", src, empty_allow());
  const auto r6 = findings_for(all, "R6");
  ASSERT_EQ(r6.size(), 1U);
  EXPECT_EQ(r6[0].line, 4);
  EXPECT_NE(r6[0].message.find("first at line 2"), std::string::npos);
}

TEST(LintR6, FiresOnDuplicateLabelInTimedForm) {
  // The form that reports the span's duration carries the same label.
  const std::string src =
      "void step() {\n"
      "  std::int64_t ns = 0;\n"
      "  DROPBACK_TRACE_SPAN(\"fwd\");\n"
      "  {\n"
      "    DROPBACK_TRACE_SPAN(\"fwd\", &ns);\n"
      "  }\n"
      "}\n";
  const auto all = lint_source("src/train/step.cpp", src, empty_allow());
  const auto r6 = findings_for(all, "R6");
  ASSERT_EQ(r6.size(), 1U);
  EXPECT_EQ(r6[0].line, 5);
  EXPECT_NE(r6[0].message.find("first at line 3"), std::string::npos);
}

TEST(LintR6, SameLabelInDifferentFunctionsIsFine) {
  const std::string src =
      "void forward() { DROPBACK_TRACE_SPAN(\"matmul\"); }\n"
      "void backward() { DROPBACK_TRACE_SPAN(\"matmul\"); }\n";
  const auto all = lint_source("src/nn/layer.cpp", src, empty_allow());
  EXPECT_TRUE(findings_for(all, "R6").empty());
}

TEST(LintR6, InlineAllowForDeliberateDuplicate) {
  const std::string src =
      "void merge_test() {\n"
      "  DROPBACK_TRACE_SPAN(\"inner\");\n"
      "  // dbk-lint: allow(R6): duplicate proves same-label merge\n"
      "  DROPBACK_TRACE_SPAN(\"inner\");\n"
      "}\n";
  const auto all = lint_source("tests/prof_test.cpp", src, empty_allow());
  const auto r6 = findings_for(all, "R6");
  ASSERT_EQ(r6.size(), 1U);
  EXPECT_TRUE(r6[0].suppressed);
}

TEST(LintR6, CmakeRegistrationMissingFileFires) {
  const std::string cmake =
      "add_library(dropback\n  util/log.cpp\n  tensor/tensor.cpp\n)\n";
  const auto all = dbk_lint::lint_cmake_registration(
      cmake, {"src/util/log.cpp", "src/tensor/tensor.cpp",
              "src/core/new_kernel.cpp"},
      empty_allow());
  ASSERT_EQ(all.size(), 1U);
  EXPECT_EQ(all[0].rule, "R6");
  EXPECT_EQ(all[0].file, "src/CMakeLists.txt");
  EXPECT_NE(all[0].message.find("src/core/new_kernel.cpp"),
            std::string::npos);
  EXPECT_FALSE(all[0].suppressed);
}

TEST(LintR6, CmakeRegistrationAllowlisted) {
  const auto allow =
      parse_allow("R6 src/core/generated.cpp  built by codegen target\n");
  const auto all = dbk_lint::lint_cmake_registration(
      "add_library(dropback)\n", {"src/core/generated.cpp"}, allow);
  ASSERT_EQ(all.size(), 1U);
  EXPECT_TRUE(all[0].suppressed);
}

// ---------------------------------------------------------------------------
// R7: vendor SIMD intrinsics only under src/simd/
// ---------------------------------------------------------------------------

TEST(LintR7, FiresOnIntrinsicsHeaderAndIdentifiers) {
  const std::string src =
      "#include <immintrin.h>\n"
      "float hsum(const float* p) {\n"
      "  __m256 v = _mm256_loadu_ps(p);\n"
      "  __m128 lo = _mm256_castps256_ps128(v);\n"
      "  return _mm_cvtss_f32(lo);\n"
      "}\n";
  const auto all = lint_source("src/tensor/fast_sum.cpp", src, empty_allow());
  // Header include + one finding per intrinsic-bearing line.
  EXPECT_GE(live_count(all, "R7"), 4);
}

TEST(LintR7, FiresOnNeonIdentifiers) {
  const std::string src =
      "#include <arm_neon.h>\n"
      "void copy4(float* d, const float* s) {\n"
      "  float32x4_t v = vld1q_f32(s);\n"
      "  vst1q_f32(d, v);\n"
      "}\n";
  const auto all = lint_source("bench/bench_neon.cpp", src, empty_allow());
  EXPECT_GE(live_count(all, "R7"), 3);
}

TEST(LintR7, SimdDirectoryIsBuiltInAllowed) {
  const std::string src =
      "#include <immintrin.h>\n"
      "__m512 z = _mm512_setzero_ps();\n";
  EXPECT_TRUE(findings_for(lint_source("src/simd/vec.hpp", src, empty_allow()),
                           "R7")
                  .empty());
  EXPECT_TRUE(
      findings_for(
          lint_source("src/simd/kernels_avx2.cpp", src, empty_allow()), "R7")
          .empty());
}

TEST(LintR7, PortableSimdApiUseIsFine) {
  // Call sites use the dispatch layer, never raw intrinsics: none of these
  // tokens may trip the rule.
  const std::string src =
      "#include \"simd/dispatch.hpp\"\n"
      "void f(float* d, const float* s, std::int64_t n) {\n"
      "  const simd::Kernels& k = simd::kernels();\n"
      "  k.axpy(d, s, 2.0F, n);\n"
      "  simd::set_target(simd::Target::kScalar);\n"
      "}\n";
  const auto all = lint_source("src/tensor/matmul.cpp", src, empty_allow());
  EXPECT_TRUE(findings_for(all, "R7").empty());
}

TEST(LintR7, MentionsInCommentsAndStringsAreInvisible) {
  const std::string src =
      "// uses _mm256_fmadd_ps on AVX2, see immintrin.h\n"
      "const char* kMsg = \"vld1q_f32 is the NEON load\";\n";
  const auto all = lint_source("src/util/doc.cpp", src, empty_allow());
  EXPECT_TRUE(findings_for(all, "R7").empty());
}

TEST(LintR7, InlineAllowAndAllowlistSuppress) {
  const std::string inline_src =
      "// dbk-lint: allow(R7): cpuid probe predates the dispatch layer\n"
      "int has = __builtin_cpu_supports(\"avx2\") && _mm_pause();\n";
  const auto inline_all =
      lint_source("src/util/cpu.cpp", inline_src, empty_allow());
  const auto inline_r7 = findings_for(inline_all, "R7");
  ASSERT_EQ(inline_r7.size(), 1U);
  EXPECT_TRUE(inline_r7[0].suppressed);

  const auto allow = parse_allow("R7 bench/bench_intrin.cpp  raw-ISA probe\n");
  const auto listed = lint_source("bench/bench_intrin.cpp",
                                  "__m256 v = _mm256_setzero_ps();\n", allow);
  for (const auto& f : findings_for(listed, "R7")) {
    EXPECT_TRUE(f.suppressed);
  }
  EXPECT_EQ(live_count(listed, "R7"), 0);
}

// ---------------------------------------------------------------------------
// R8: serving-layer thread discipline
// ---------------------------------------------------------------------------

TEST(LintR8, FiresOnUnboundedWaitAndDetach) {
  const std::string src =
      "void loop() {\n"
      "  std::unique_lock<std::mutex> lock(mu_);\n"
      "  cv_.wait(lock);\n"
      "  std::thread t([] {});\n"
      "  t.detach();\n"
      "}\n";
  const auto all = lint_source("src/serve/worker.cpp", src, empty_allow());
  const auto r8 = findings_for(all, "R8");
  ASSERT_EQ(r8.size(), 2U);
  EXPECT_EQ(r8[0].line, 3);
  EXPECT_NE(r8[0].message.find("wait_for"), std::string::npos);
  EXPECT_EQ(r8[1].line, 5);
  EXPECT_NE(r8[1].message.find("joined"), std::string::npos);
}

TEST(LintR8, FiresOnArrowAccessToo) {
  const std::string src = "void f() { cv->wait(lock); }\n";
  EXPECT_EQ(live_count(
                lint_source("src/serve/queue.cpp", src, empty_allow()), "R8"),
            1);
}

TEST(LintR8, BoundedWaitsAndJoinsAreFine) {
  const std::string src =
      "void loop() {\n"
      "  cv_.wait_for(lock, std::chrono::microseconds(100), [] {\n"
      "    return done;\n"
      "  });\n"
      "  cv_.wait_until(lock, deadline);\n"
      "  worker.join();\n"
      "}\n";
  const auto all = lint_source("src/serve/worker.cpp", src, empty_allow());
  EXPECT_TRUE(findings_for(all, "R8").empty());
}

TEST(LintR8, OnlyAppliesUnderServe) {
  // Elsewhere the R1 thread-primitive rule owns the territory; a bare wait
  // in the pool implementation is the pool's business.
  const std::string src = "void f() { cv_.wait(lock); t.detach(); }\n";
  EXPECT_TRUE(findings_for(
                  lint_source("src/util/thread_pool.cpp", src, empty_allow()),
                  "R8")
                  .empty());
  EXPECT_TRUE(findings_for(
                  lint_source("tests/serve_test.cpp", src, empty_allow()),
                  "R8")
                  .empty());
}

TEST(LintR8, InlineAllowAndAllowlistSuppress) {
  const std::string inline_src =
      "// dbk-lint: allow(R8): wait is bounded by the caller's watchdog\n"
      "void f() { cv_.wait(lock); }\n";
  const auto inline_all =
      lint_source("src/serve/legacy.cpp", inline_src, empty_allow());
  const auto inline_r8 = findings_for(inline_all, "R8");
  ASSERT_EQ(inline_r8.size(), 1U);
  EXPECT_TRUE(inline_r8[0].suppressed);

  const auto allow = parse_allow("R8 src/serve/legacy.cpp  grandfathered\n");
  const auto listed = lint_source("src/serve/legacy.cpp",
                                  "void f() { cv_.wait(lock); }\n", allow);
  EXPECT_EQ(live_count(listed, "R8"), 0);
  ASSERT_EQ(findings_for(listed, "R8").size(), 1U);
  EXPECT_TRUE(findings_for(listed, "R8")[0].suppressed);
}

// ---------------------------------------------------------------------------
// R9: wall-time reads must go through util::ClockSource
// ---------------------------------------------------------------------------

TEST(LintR9, FiresOnRawSteadyAndHighResolutionClock) {
  const std::string src =
      "void f() {\n"
      "  auto t0 = std::chrono::steady_clock::now();\n"
      "  auto t1 = std::chrono::high_resolution_clock::now();\n"
      "}\n";
  const auto all = lint_source("src/serve/server.cpp", src, empty_allow());
  const auto r9 = findings_for(all, "R9");
  ASSERT_EQ(r9.size(), 2U);
  EXPECT_EQ(r9[0].line, 2);
  EXPECT_NE(r9[0].message.find("util::ClockSource"), std::string::npos);
  EXPECT_EQ(r9[1].line, 3);

  // Examples are product code too: same contract.
  EXPECT_EQ(live_count(
                lint_source("examples/train_mnist.cpp", src, empty_allow()),
                "R9"),
            2);
}

TEST(LintR9, UtilBenchAndTestsAreExempt) {
  const std::string src = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(findings_for(lint_source("src/util/steady_clock.cpp", src,
                                       empty_allow()),
                           "R9")
                  .empty());
  EXPECT_TRUE(findings_for(
                  lint_source("bench/bench_micro.cpp", src, empty_allow()),
                  "R9")
                  .empty());
  EXPECT_TRUE(findings_for(
                  lint_source("tests/timer_test.cpp", src, empty_allow()),
                  "R9")
                  .empty());
}

TEST(LintR9, InjectedClockUseIsFine) {
  const std::string src =
      "void f(util::ClockSource* clock) {\n"
      "  const std::int64_t now = clock->now_us();\n"
      "  const std::int64_t ns = util::steady_clock_source().now_ns();\n"
      "}\n";
  const auto all = lint_source("src/train/trainer.cpp", src, empty_allow());
  EXPECT_TRUE(findings_for(all, "R9").empty());
}

TEST(LintR9, InlineAllowAndAllowlistSuppress) {
  const std::string inline_src =
      "void f() {\n"
      "  // dbk-lint: allow(R9): one-shot startup stamp, never injected\n"
      "  auto t = std::chrono::steady_clock::now();\n"
      "}\n";
  const auto inline_all =
      lint_source("src/core/boot.cpp", inline_src, empty_allow());
  const auto inline_r9 = findings_for(inline_all, "R9");
  ASSERT_EQ(inline_r9.size(), 1U);
  EXPECT_TRUE(inline_r9[0].suppressed);

  const auto allow = parse_allow("R9 src/core/boot.cpp  grandfathered\n");
  const auto listed = lint_source(
      "src/core/boot.cpp",
      "auto t = std::chrono::steady_clock::now();\n", allow);
  EXPECT_EQ(live_count(listed, "R9"), 0);
  ASSERT_EQ(findings_for(listed, "R9").size(), 1U);
  EXPECT_TRUE(findings_for(listed, "R9")[0].suppressed);
}

// ---------------------------------------------------------------------------
// R10: tracked-set capacity only changes through the BudgetSchedule path
// ---------------------------------------------------------------------------

TEST(LintR10, FiresOnDirectCapacityMutationOutsideCore) {
  const std::string src =
      "void f(core::TrackedSet& set) {\n"
      "  set.select(scores, 100);\n"
      "  set.select_per_param(scores, budgets);\n"
      "  set_ptr->readmit(seed, step, 0.01F);\n"
      "}\n";
  const auto all = lint_source("src/train/rogue.cpp", src, empty_allow());
  const auto r10 = findings_for(all, "R10");
  ASSERT_EQ(r10.size(), 3U);
  EXPECT_EQ(r10[0].line, 2);
  EXPECT_NE(r10[0].message.find("BudgetSchedule"), std::string::npos);
  EXPECT_NE(r10[1].message.find("select_per_param"), std::string::npos);
  EXPECT_NE(r10[2].message.find("readmit"), std::string::npos);

  // Examples and bench are product/bench code: same contract.
  EXPECT_EQ(live_count(
                lint_source("examples/custom_loop.cpp", src, empty_allow()),
                "R10"),
            3);
  EXPECT_EQ(live_count(
                lint_source("bench/bench_custom.cpp", src, empty_allow()),
                "R10"),
            3);
}

TEST(LintR10, CoreAndTestsAreExempt) {
  const std::string src = "tracked_.select(scores_, k);\n";
  EXPECT_TRUE(
      findings_for(lint_source("src/core/dropback_optimizer.cpp", src,
                               empty_allow()),
                   "R10")
          .empty());
  EXPECT_TRUE(findings_for(lint_source("tests/tracked_set_test.cpp", src,
                                       empty_allow()),
                           "R10")
                  .empty());
}

TEST(LintR10, FreeFunctionSelectIsFine) {
  const std::string src =
      "auto winner = select(candidates);\n"
      "auto other = my::select(candidates);\n";
  const auto all = lint_source("src/train/picker.cpp", src, empty_allow());
  EXPECT_TRUE(findings_for(all, "R10").empty());
}

TEST(LintR10, InlineAllowAndAllowlistSuppress) {
  const std::string inline_src =
      "void f() {\n"
      "  // dbk-lint: allow(R10): baseline pruner owns this kept-set\n"
      "  kept_.select(scores_, keep);\n"
      "}\n";
  const auto inline_all =
      lint_source("src/baselines/pruner.cpp", inline_src, empty_allow());
  const auto inline_r10 = findings_for(inline_all, "R10");
  ASSERT_EQ(inline_r10.size(), 1U);
  EXPECT_TRUE(inline_r10[0].suppressed);

  const auto allow = parse_allow("R10 src/baselines/  baseline kept-sets\n");
  const auto listed = lint_source("src/baselines/pruner.cpp",
                                  "kept_.select(scores_, keep);\n", allow);
  EXPECT_EQ(live_count(listed, "R10"), 0);
  ASSERT_EQ(findings_for(listed, "R10").size(), 1U);
  EXPECT_TRUE(findings_for(listed, "R10")[0].suppressed);
}

// ---------------------------------------------------------------------------
// R13: persisted bytes go through util::ByteWriter / util::ByteReader
// ---------------------------------------------------------------------------

TEST(LintR13, FiresOnCharCastStreamReadAndWrite) {
  const std::string src =
      "void save(std::ostream& out, std::int64_t v) {\n"
      "  out.write(reinterpret_cast<const char*>(&v), sizeof(v));\n"
      "}\n"
      "void load(std::istream* in, float* data, std::size_t n) {\n"
      "  in->read(reinterpret_cast<char *>(data), n * sizeof(float));\n"
      "  in->read( reinterpret_cast<unsigned char*>(data), 1);\n"
      "}\n";
  const auto all = lint_source("src/core/codec.cpp", src, empty_allow());
  const auto r13 = findings_for(all, "R13");
  ASSERT_EQ(r13.size(), 3U);
  EXPECT_EQ(r13[0].line, 2);
  EXPECT_NE(r13[0].message.find("util::ByteWriter"), std::string::npos);
  EXPECT_NE(r13[0].message.find("write"), std::string::npos);
  EXPECT_EQ(r13[1].line, 5);
  EXPECT_EQ(r13[2].line, 6);
}

TEST(LintR13, UtilTestsAndCodecCallsAreExempt) {
  const std::string raw =
      "out.write(reinterpret_cast<const char*>(&v), sizeof(v));\n";
  EXPECT_TRUE(findings_for(lint_source("src/util/bytes.cpp", raw,
                                       empty_allow()),
                           "R13")
                  .empty());
  EXPECT_TRUE(findings_for(lint_source("tests/tensor_test.cpp", raw,
                                       empty_allow()),
                           "R13")
                  .empty());
  const std::string codec =
      "w.pod(v);\n"
      "r.raw(data, n * sizeof(float));\n"
      "out.write(header.data(), header.size());\n"
      "auto* p = reinterpret_cast<const char*>(&v);\n";
  EXPECT_TRUE(
      findings_for(lint_source("src/core/codec.cpp", codec, empty_allow()),
                   "R13")
          .empty());
}

TEST(LintR13, InlineAllowAndAllowlistSuppress) {
  const std::string inline_src =
      "void f() {\n"
      "  // dbk-lint: allow(R13): big-endian third-party header\n"
      "  in.read(reinterpret_cast<char*>(bytes), 4);\n"
      "}\n";
  const auto inline_all =
      lint_source("src/data/idx.cpp", inline_src, empty_allow());
  const auto inline_r13 = findings_for(inline_all, "R13");
  ASSERT_EQ(inline_r13.size(), 1U);
  EXPECT_TRUE(inline_r13[0].suppressed);

  const auto allow = parse_allow("R13 src/data/idx.cpp  third-party format\n");
  const auto listed = lint_source(
      "src/data/idx.cpp", "in.read(reinterpret_cast<char*>(bytes), 4);\n",
      allow);
  EXPECT_EQ(live_count(listed, "R13"), 0);
  ASSERT_EQ(findings_for(listed, "R13").size(), 1U);
  EXPECT_TRUE(findings_for(listed, "R13")[0].suppressed);
}

// ---------------------------------------------------------------------------
// Scrubber: rule tokens inside comments/strings never fire
// ---------------------------------------------------------------------------

TEST(LintScrub, TokensInCommentsAndStringsAreInvisible) {
  const std::string src =
      "// std::thread in a comment, fopen( too\n"
      "/* std::mutex mu; time(nullptr); */\n"
      "const char* s = \"std::ofstream out; std::rand()\";\n"
      "const char* r = R\"(std::thread t; w == 0.5f)\";\n";
  const auto all = lint_source("src/core/doc.cpp", src, empty_allow());
  EXPECT_TRUE(all.empty());
}

TEST(LintScrub, DigitSeparatorsDoNotDerailCharLiterals) {
  // If 1'000'000 were parsed as a char literal, the std::mutex after it
  // would be swallowed into "string" state and missed.
  const std::string src =
      "constexpr int kBig = 1'000'000;\n"
      "std::mutex mu;\n";
  const auto all = lint_source("src/core/big.cpp", src, empty_allow());
  EXPECT_EQ(live_count(all, "R1"), 1);
}

TEST(LintScrub, EscapedQuotesInsideStrings) {
  const std::string src =
      "const char* s = \"quote \\\" std::thread inside\";\n"
      "std::thread t;\n";
  const auto all = lint_source("src/core/esc.cpp", src, empty_allow());
  const auto r1 = findings_for(all, "R1");
  ASSERT_EQ(r1.size(), 1U);
  EXPECT_EQ(r1[0].line, 2);
}

// ---------------------------------------------------------------------------
// Allowlist parsing & report format
// ---------------------------------------------------------------------------

TEST(LintAllowlist, RejectsMalformedLines) {
  Allowlist a;
  std::string error;
  EXPECT_FALSE(a.parse("R99 src/foo.cpp bad rule id\n", &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  Allowlist b;
  EXPECT_FALSE(b.parse("R1\n", &error));
}

TEST(LintAllowlist, CommentsAndBlanksAreIgnored) {
  const auto a = parse_allow("# header\n\nR1 src/x.cpp reason here\n");
  ASSERT_EQ(a.entries().size(), 1U);
  EXPECT_EQ(a.entries()[0].rule, "R1");
  EXPECT_EQ(a.entries()[0].path, "src/x.cpp");
  EXPECT_EQ(a.entries()[0].reason, "reason here");
}

TEST(LintReport, JsonlFindingsAndSummaryParse) {
  const auto all =
      lint_source("src/core/worker.cpp",
                  "std::thread t;\n"
                  "std::mutex mu;  // dbk-lint: allow(R1): test fixture\n",
                  empty_allow());
  ASSERT_EQ(all.size(), 2U);
  const std::string report = dbk_lint::report_jsonl(all, 1);
  std::vector<std::string> lines;
  std::istringstream is(report);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3U);

  const auto first = dropback::util::parse_flat_object(lines[0]);
  EXPECT_EQ(first.at("rule").string, "R1");
  EXPECT_EQ(first.at("file").string, "src/core/worker.cpp");
  EXPECT_EQ(first.at("line").number, 1.0);
  EXPECT_FALSE(first.at("suppressed").boolean);

  const auto second = dropback::util::parse_flat_object(lines[1]);
  EXPECT_TRUE(second.at("suppressed").boolean);
  EXPECT_NE(second.at("reason").string.find("test fixture"),
            std::string::npos);

  const auto summary = dropback::util::parse_flat_object(lines[2]);
  EXPECT_EQ(summary.at("type").string, "summary");
  EXPECT_EQ(summary.at("files").number, 1.0);
  EXPECT_EQ(summary.at("findings").number, 2.0);
  EXPECT_EQ(summary.at("suppressed").number, 1.0);
  EXPECT_EQ(summary.at("unsuppressed").number, 1.0);
  EXPECT_EQ(dbk_lint::unsuppressed_count(all), 1);
}

// ---------------------------------------------------------------------------
// Include extraction edge cases (phase one feeding the R11 graph)
// ---------------------------------------------------------------------------

TEST(LintIncludeExtract, ConditionalBranchesBothMakeEdges) {
  const std::string src =
      "#ifdef DROPBACK_USE_A\n"
      "#include \"core/a.hpp\"\n"
      "#else\n"
      "#include \"core/b.hpp\"\n"
      "#endif\n";
  const auto model = dbk_lint::analyze_source("src/train/cfg.cpp", src);
  ASSERT_EQ(model.includes.size(), 2U);
  EXPECT_EQ(model.includes[0].target, "core/a.hpp");
  EXPECT_EQ(model.includes[0].line, 2);
  EXPECT_EQ(model.includes[1].target, "core/b.hpp");
  EXPECT_EQ(model.includes[1].line, 4);
}

TEST(LintIncludeExtract, DirectivesInStringsAndCommentsAreInvisible) {
  const std::string src =
      "const char* doc = R\"(#include \"fake/x.hpp\")\";\n"
      "// #include \"fake/y.hpp\"\n"
      "/* #include \"fake/z.hpp\" */\n"
      "#include \"core/real.hpp\"\n";
  const auto model = dbk_lint::analyze_source("src/train/gen.cpp", src);
  ASSERT_EQ(model.includes.size(), 1U);
  EXPECT_EQ(model.includes[0].target, "core/real.hpp");
  EXPECT_EQ(model.includes[0].line, 4);
}

TEST(LintIncludeExtract, AngleIncludesMakeNoEdges) {
  const auto model = dbk_lint::analyze_source(
      "src/core/sys.cpp", "#include <vector>\n#include <unordered_map>\n");
  EXPECT_TRUE(model.includes.empty());
}

TEST(LintIncludeExtract, SameBasenameResolvesNearestDirectoryFirst) {
  // Two config.hpp headers in different subsystems plus one at the src/
  // root: the bare-name include from serve/ must land on serve's own.
  std::vector<dbk_lint::SourceFile> files = {
      {"src/config.hpp", "#pragma once\n"},
      {"src/serve/config.hpp", "#pragma once\n"},
      {"src/tensor/config.hpp", "#pragma once\n"},
      {"src/serve/server.cpp", "#include \"config.hpp\"\n"},
      {"src/train/loop.cpp", "#include \"config.hpp\"\n"},
  };
  std::vector<dbk_lint::FileModel> models;
  for (const auto& f : files) {
    models.push_back(dbk_lint::analyze_source(f.relpath, f.content));
  }
  const auto graph = dbk_lint::IncludeGraph::build(models);
  EXPECT_EQ(graph.targets_of("src/serve/server.cpp"),
            std::set<std::string>{"src/serve/config.hpp"});
  // train/ has no local config.hpp, so the src/ include root wins.
  EXPECT_EQ(graph.targets_of("src/train/loop.cpp"),
            std::set<std::string>{"src/config.hpp"});
}

// ---------------------------------------------------------------------------
// R11: include-graph layering contract
// ---------------------------------------------------------------------------

dbk_lint::LintResult run_tree(const std::vector<dbk_lint::SourceFile>& files,
                              const Allowlist& allow,
                              dbk_lint::LintOptions opts = {}) {
  return dbk_lint::lint_files(files, allow, opts);
}

TEST(LintR11, UpwardEdgeFires) {
  const auto result = run_tree(
      {{"src/core/thing.hpp", "#pragma once\n"},
       {"src/util/helper.cpp", "#include \"core/thing.hpp\"\n"}},
      empty_allow());
  const auto r11 = findings_for(result.findings, "R11");
  ASSERT_EQ(r11.size(), 1U);
  EXPECT_EQ(r11[0].file, "src/util/helper.cpp");
  EXPECT_EQ(r11[0].line, 1);
  EXPECT_FALSE(r11[0].suppressed);
  EXPECT_NE(r11[0].message.find("upward include edge"), std::string::npos);
  EXPECT_NE(r11[0].message.find("'util' (layer 0)"), std::string::npos);
  EXPECT_NE(r11[0].message.find("'core' (layer 2)"), std::string::npos);
}

TEST(LintR11, DownwardAndSameLayerEdgesAreLegal) {
  const auto result = run_tree(
      {{"src/util/base.hpp", "#pragma once\n"},
       {"src/core/opt.hpp", "#include \"util/base.hpp\"\n"},
       {"src/optim/sched.hpp", "#include \"core/opt.hpp\"\n"},
       {"src/train/loop.cpp",
        "#include \"core/opt.hpp\"\n#include \"optim/sched.hpp\"\n"}},
      empty_allow());
  EXPECT_TRUE(findings_for(result.findings, "R11").empty());
}

TEST(LintR11, FileLevelIncludeCycleDetected) {
  const auto result = run_tree(
      {{"src/core/a.hpp", "#include \"core/b.hpp\"\n"},
       {"src/core/b.hpp", "#include \"core/a.hpp\"\n"}},
      empty_allow());
  const auto r11 = findings_for(result.findings, "R11");
  ASSERT_EQ(r11.size(), 1U);
  EXPECT_NE(r11[0].message.find("#include cycle"), std::string::npos);
  EXPECT_NE(r11[0].message.find("src/core/a.hpp"), std::string::npos);
  EXPECT_NE(r11[0].message.find("src/core/b.hpp"), std::string::npos);
}

TEST(LintR11, SubsystemCycleReportsShortestPath) {
  const auto result = run_tree(
      {{"src/data/loader.hpp", "#include \"train/hooks.hpp\"\n"},
       {"src/train/hooks.hpp", "#pragma once\n"},
       {"src/train/loop.cpp", "#include \"data/loader.hpp\"\n"}},
      empty_allow());
  const auto r11 = findings_for(result.findings, "R11");
  ASSERT_EQ(r11.size(), 1U);
  EXPECT_NE(r11[0].message.find("subsystem include cycle"),
            std::string::npos);
  EXPECT_NE(r11[0].message.find("data"), std::string::npos);
  EXPECT_NE(r11[0].message.find("train"), std::string::npos);
}

TEST(LintR11, SimdReachableOnlyThroughFacade) {
  const auto result = run_tree(
      {{"src/simd/vec.hpp", "#pragma once\n"},
       {"src/simd/kernels.hpp", "#pragma once\n"},
       {"src/nn/conv.cpp",
        "#include \"simd/kernels.hpp\"\n#include \"simd/vec.hpp\"\n"}},
      empty_allow());
  const auto r11 = findings_for(result.findings, "R11");
  ASSERT_EQ(r11.size(), 1U);
  EXPECT_EQ(r11[0].file, "src/nn/conv.cpp");
  EXPECT_EQ(r11[0].line, 2);
  EXPECT_NE(r11[0].message.find("simd backend internal"), std::string::npos);
}

TEST(LintR11, ObsIncludableFromAnywhereButIncludesOnlyUtil) {
  const auto result = run_tree(
      {{"src/obs/metrics.hpp", "#include \"train/loop.hpp\"\n"},
       {"src/train/loop.hpp", "#pragma once\n"},
       {"src/train/loop.cpp", "#include \"obs/metrics.hpp\"\n"}},
      empty_allow());
  const auto r11 = findings_for(result.findings, "R11");
  ASSERT_EQ(r11.size(), 1U);
  EXPECT_EQ(r11[0].file, "src/obs/metrics.hpp");
  EXPECT_NE(r11[0].message.find("obs may include nothing above util"),
            std::string::npos);
}

TEST(LintR11, UndeclaredSubsystemIsAFinding) {
  const auto result = run_tree(
      {{"src/widgets/w.hpp", "#pragma once\n"},
       {"src/widgets/w.cpp", "#include \"widgets/w.hpp\"\n"}},
      empty_allow());
  const auto r11 = findings_for(result.findings, "R11");
  ASSERT_EQ(r11.size(), 1U);
  EXPECT_NE(r11[0].message.find("not in the declared layering contract"),
            std::string::npos);
}

TEST(LintR11, InlineAndAllowlistSuppress) {
  const std::vector<dbk_lint::SourceFile> files = {
      {"src/core/thing.hpp", "#pragma once\n"},
      {"src/util/inline_case.cpp",
       "#include \"core/thing.hpp\"  // dbk-lint: allow(R11): migration\n"},
      {"src/util/listed_case.cpp", "#include \"core/thing.hpp\"\n"}};
  const auto allow =
      parse_allow("R11 src/util/listed_case.cpp inversion tracked\n");
  const auto result = run_tree(files, allow);
  const auto r11 = findings_for(result.findings, "R11");
  ASSERT_EQ(r11.size(), 2U);
  EXPECT_TRUE(r11[0].suppressed);
  EXPECT_TRUE(r11[1].suppressed);
  EXPECT_EQ(dbk_lint::unsuppressed_count(result.findings), 0);
}

// ---------------------------------------------------------------------------
// R12: interprocedural determinism reachability
// ---------------------------------------------------------------------------

TEST(LintR12, MultiHopChainIsPrinted) {
  const auto result = run_tree(
      {{"src/train/ckpt.cpp", "void save_model() {\n  write_meta();\n}\n"},
       {"src/train/meta.cpp",
        "void write_meta() {\n  stamp_time();\n}\n"
        "void stamp_time() {\n  long t = time(nullptr);\n}\n"}},
      empty_allow());
  const auto r12 = findings_for(result.findings, "R12");
  ASSERT_EQ(r12.size(), 1U);
  EXPECT_EQ(r12[0].file, "src/train/ckpt.cpp");
  EXPECT_EQ(r12[0].line, 1);
  EXPECT_FALSE(r12[0].suppressed);
  // The full shortest chain, every hop located, down to the tainted token.
  EXPECT_NE(r12[0].message.find("serialization function 'save_model'"),
            std::string::npos);
  EXPECT_NE(r12[0].message.find("save_model (src/train/ckpt.cpp:1) -> "
                                "write_meta (src/train/meta.cpp:1) -> "
                                "stamp_time (src/train/meta.cpp:4)"),
            std::string::npos);
  EXPECT_NE(r12[0].message.find("'time(' at src/train/meta.cpp:5"),
            std::string::npos);
}

TEST(LintR12, KernelEntryPointsAreRoots) {
  const auto result = run_tree(
      {{"src/simd/kern.cpp", "void dot_product() {\n  seed_state();\n}\n"},
       {"src/core/seed.cpp",
        "void seed_state() {\n  int x = std::rand();\n}\n"}},
      empty_allow());
  const auto r12 = findings_for(result.findings, "R12");
  ASSERT_EQ(r12.size(), 1U);
  EXPECT_EQ(r12[0].file, "src/simd/kern.cpp");
  EXPECT_NE(r12[0].message.find("kernel entry point 'dot_product'"),
            std::string::npos);
}

TEST(LintR12, UnorderedIterationTaintPropagates) {
  const auto result = run_tree(
      {{"src/train/state.cpp", "void save_state() {\n  dump_keys();\n}\n"},
       {"src/core/dump.cpp",
        "void dump_keys(const std::unordered_map<int, int>& table) {\n"
        "  for (const auto& kv : table) {\n  }\n}\n"}},
      empty_allow());
  const auto r12 = findings_for(result.findings, "R12");
  ASSERT_EQ(r12.size(), 1U);
  EXPECT_NE(r12[0].message.find("unordered-container iteration"),
            std::string::npos);
  EXPECT_NE(r12[0].message.find("'table' at src/core/dump.cpp:2"),
            std::string::npos);
  // dump_keys is not serialization-named, so the lexical R4 stays silent —
  // only the whole-program pass can see this one.
  EXPECT_TRUE(findings_for(result.findings, "R4").empty());
}

TEST(LintR12, ReviewedSourceDoesNotPropagate) {
  const auto result = run_tree(
      {{"src/train/ckpt.cpp", "void save_model() {\n  stamp_time();\n}\n"},
       {"src/core/meta.cpp",
        "void stamp_time() {\n"
        "  long t = time(nullptr);  // dbk-lint: allow(R3): epoch stamp is "
        "metadata, not artifact bytes\n"
        "}\n"}},
      empty_allow());
  EXPECT_TRUE(findings_for(result.findings, "R12").empty());
  const auto r3 = findings_for(result.findings, "R3");
  ASSERT_EQ(r3.size(), 1U);
  EXPECT_TRUE(r3[0].suppressed);
}

TEST(LintR12, RootAllowlistSuppresses) {
  const auto allow = parse_allow(
      "R12 src/train/ckpt.cpp chain audited; rand feeds a debug counter\n");
  const auto result = run_tree(
      {{"src/train/ckpt.cpp", "void save_model() {\n  jitter();\n}\n"},
       {"src/core/jit.cpp", "void jitter() {\n  int x = std::rand();\n}\n"}},
      allow);
  const auto r12 = findings_for(result.findings, "R12");
  ASSERT_EQ(r12.size(), 1U);
  EXPECT_TRUE(r12[0].suppressed);
  EXPECT_NE(r12[0].suppress_reason.find("chain audited"), std::string::npos);
}

TEST(LintR12, RootsOwnLexicalTaintIsR3sBusiness) {
  const auto result = run_tree(
      {{"src/train/ckpt.cpp",
        "void save_model() {\n  int x = std::rand();\n}\n"}},
      empty_allow());
  EXPECT_TRUE(findings_for(result.findings, "R12").empty());
  EXPECT_EQ(findings_for(result.findings, "R3").size(), 1U);
}

// ---------------------------------------------------------------------------
// S1: stale-suppression audit
// ---------------------------------------------------------------------------

TEST(LintS1, StaleInlineDirectiveWarns) {
  dbk_lint::LintOptions opts;
  opts.audit_suppressions = true;
  const auto result = run_tree(
      {{"src/core/x.cpp",
        "// dbk-lint: allow(R1): grant that matches nothing\n"
        "int answer() { return 42; }\n"}},
      empty_allow(), opts);
  const auto s1 = findings_for(result.findings, "S1");
  ASSERT_EQ(s1.size(), 1U);
  EXPECT_EQ(s1[0].file, "src/core/x.cpp");
  EXPECT_EQ(s1[0].line, 1);
  EXPECT_TRUE(s1[0].warning);
  EXPECT_NE(s1[0].message.find("stale inline suppression allow(R1)"),
            std::string::npos);
  // Warnings never fail the run.
  EXPECT_EQ(dbk_lint::unsuppressed_count(result.findings), 0);
}

TEST(LintS1, StaleAllowlistEntryWarnsAtItsOwnLine) {
  dbk_lint::LintOptions opts;
  opts.audit_suppressions = true;
  const auto allow = parse_allow(
      "# header comment\n"
      "R1 src/core/gone.cpp mutex grant for a deleted file\n");
  const auto result =
      run_tree({{"src/core/x.cpp", "int answer() { return 42; }\n"}}, allow,
               opts);
  const auto s1 = findings_for(result.findings, "S1");
  ASSERT_EQ(s1.size(), 1U);
  EXPECT_EQ(s1[0].file, "tools/dbk_lint.rules");
  EXPECT_EQ(s1[0].line, 2);
  EXPECT_NE(s1[0].message.find("R1 src/core/gone.cpp"), std::string::npos);
}

TEST(LintS1, StrictModeUpgradesToError) {
  dbk_lint::LintOptions opts;
  opts.audit_suppressions = true;
  opts.strict_suppressions = true;
  const auto result = run_tree(
      {{"src/core/x.cpp",
        "// dbk-lint: allow(R1): grant that matches nothing\n"
        "int answer() { return 42; }\n"}},
      empty_allow(), opts);
  const auto s1 = findings_for(result.findings, "S1");
  ASSERT_EQ(s1.size(), 1U);
  EXPECT_FALSE(s1[0].warning);
  EXPECT_EQ(dbk_lint::unsuppressed_count(result.findings), 1);
}

TEST(LintS1, UsedGrantsAreNotFlagged) {
  dbk_lint::LintOptions opts;
  opts.audit_suppressions = true;
  const auto allow = parse_allow("R1 src/core/pool.cpp private registry\n");
  const auto result = run_tree(
      {{"src/core/pool.cpp", "void f() {\n  std::mutex mu;\n}\n"},
       {"src/core/y.cpp",
        "void g() {\n"
        "  std::thread t;  // dbk-lint: allow(R1): attack fixture\n"
        "}\n"}},
      allow, opts);
  EXPECT_TRUE(findings_for(result.findings, "S1").empty());
  EXPECT_EQ(dbk_lint::unsuppressed_count(result.findings), 0);
}

// ---------------------------------------------------------------------------
// Baseline mode
// ---------------------------------------------------------------------------

TEST(LintBaseline, DemotesByRuleFileMessageLineInsensitive) {
  const std::string before = "void f() {\n  std::thread t;\n}\n";
  const auto allow = empty_allow();
  const auto first = run_tree({{"src/core/w.cpp", before}}, allow);
  ASSERT_EQ(dbk_lint::unsuppressed_count(first.findings), 1);
  const std::string baseline =
      dbk_lint::report_jsonl(first.findings, first.files_linted);

  // Same violation, shifted two lines — the baseline still matches.
  const std::string after = "\n\nvoid f() {\n  std::thread t;\n}\n";
  auto second = run_tree({{"src/core/w.cpp", after}}, allow);
  const int demoted =
      dbk_lint::apply_baseline(second.findings, baseline, "seed.jsonl");
  EXPECT_EQ(demoted, 1);
  EXPECT_EQ(dbk_lint::unsuppressed_count(second.findings), 0);
  const auto r1 = findings_for(second.findings, "R1");
  ASSERT_EQ(r1.size(), 1U);
  EXPECT_TRUE(r1[0].suppressed);
  EXPECT_EQ(r1[0].suppress_reason, "baseline: seed.jsonl");
}

TEST(LintBaseline, NewFindingsSurvive) {
  const auto first =
      run_tree({{"src/core/w.cpp", "void f() {\n  std::thread t;\n}\n"}},
               empty_allow());
  const std::string baseline =
      dbk_lint::report_jsonl(first.findings, first.files_linted);
  auto second = run_tree(
      {{"src/core/w.cpp",
        "void f() {\n  std::thread t;\n  std::mutex mu;\n}\n"}},
      empty_allow());
  dbk_lint::apply_baseline(second.findings, baseline, "seed.jsonl");
  // The thread finding is old, the mutex finding is new.
  EXPECT_EQ(dbk_lint::unsuppressed_count(second.findings), 1);
}

// ---------------------------------------------------------------------------
// --changed: neighborhood scoping
// ---------------------------------------------------------------------------

TEST(LintChanged, HeaderDiffScansDependentsNotStrangers) {
  dbk_lint::LintOptions opts;
  opts.changed_files = {"src/core/a.hpp"};
  const auto result = run_tree(
      {{"src/core/a.hpp", "#pragma once\nvoid core_helper();\n"},
       {"src/core/a.cpp",
        "#include \"core/a.hpp\"\nvoid core_helper() {}\n"},
       {"src/train/user.cpp",
        "#include \"core/a.hpp\"\nvoid run() {\n  std::thread t;\n}\n"},
       {"src/nn/far.cpp", "void far() {\n  std::thread t;\n}\n"}},
      empty_allow(), opts);
  // The dependent's finding is reported; the unrelated file's is not.
  ASSERT_EQ(findings_for(result.findings, "R1").size(), 1U);
  EXPECT_EQ(findings_for(result.findings, "R1")[0].file,
            "src/train/user.cpp");
  EXPECT_EQ(result.files_scanned, 4);
  EXPECT_EQ(result.files_linted, 3);
}

TEST(LintChanged, CallEdgePartnersJoinTheNeighborhood) {
  dbk_lint::LintOptions opts;
  opts.changed_files = {"src/core/a.cpp"};
  const auto result = run_tree(
      {{"src/core/a.cpp", "void core_helper() {}\n"},
       {"src/optim/caller.cpp",
        "void step_opt() {\n  core_helper();\n  std::mutex mu;\n}\n"},
       {"src/nn/far.cpp", "void far() {\n  std::thread t;\n}\n"}},
      empty_allow(), opts);
  const auto r1 = findings_for(result.findings, "R1");
  ASSERT_EQ(r1.size(), 1U);
  EXPECT_EQ(r1[0].file, "src/optim/caller.cpp");
  EXPECT_EQ(result.files_linted, 2);
}

TEST(LintChanged, StalenessAuditIsDisabledWhenScoped) {
  dbk_lint::LintOptions opts;
  opts.audit_suppressions = true;
  opts.changed_files = {"src/core/x.cpp"};
  const auto allow = parse_allow("R1 src/serve/elsewhere.cpp queue lock\n");
  const auto result =
      run_tree({{"src/core/x.cpp", "int answer() { return 42; }\n"}}, allow,
               opts);
  EXPECT_TRUE(findings_for(result.findings, "S1").empty());
}

// ---------------------------------------------------------------------------
// SARIF output
// ---------------------------------------------------------------------------

std::vector<Finding> sarif_fixture_findings() {
  std::vector<Finding> fs;
  Finding a;
  a.rule = "R3";
  a.file = "src/core/x.cpp";
  a.line = 3;
  a.message = "nondeterminism source (std::rand)";
  fs.push_back(a);
  Finding b;
  b.rule = "R1";
  b.file = "src/serve/y.cpp";
  b.line = 7;
  b.message = "raw threading primitive std::mutex";
  b.suppressed = true;
  b.suppress_reason = "inline: slot registry lock";
  fs.push_back(b);
  Finding c;
  c.rule = "S1";
  c.file = "tools/dbk_lint.rules";
  c.line = 12;
  c.message = "stale allowlist entry";
  c.warning = true;
  fs.push_back(c);
  return fs;
}

TEST(LintSarif, GoldenBytes) {
  const std::string golden = R"gold({
  "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
  "version": "2.1.0",
  "runs": [
    {
      "tool": {
        "driver": {
          "name": "dbk_lint",
          "informationUri": "docs/STATIC_ANALYSIS.md",
          "rules": [
            {"id": "R1", "shortDescription": {"text": "raw threading primitives outside util::ThreadPool"}},
            {"id": "R2", "shortDescription": {"text": "raw file writes bypassing util::atomic_write_file"}},
            {"id": "R3", "shortDescription": {"text": "ambient nondeterminism (wall clock / random_device / rand)"}},
            {"id": "R4", "shortDescription": {"text": "unordered-container iteration in serialization functions"}},
            {"id": "R5", "shortDescription": {"text": "floating-point ==/!= against literals outside tests"}},
            {"id": "R6", "shortDescription": {"text": "duplicate profile-scope labels / unregistered src .cpp"}},
            {"id": "R7", "shortDescription": {"text": "vendor SIMD intrinsics outside src/simd/"}},
            {"id": "R8", "shortDescription": {"text": "serving-layer thread discipline (detach / unbounded wait)"}},
            {"id": "R9", "shortDescription": {"text": "raw monotonic-clock reads outside util::ClockSource"}},
            {"id": "R10", "shortDescription": {"text": "tracked-set capacity mutation outside src/core/"}},
            {"id": "R11", "shortDescription": {"text": "include-graph layering contract violation"}},
            {"id": "R12", "shortDescription": {"text": "determinism taint reachable from serialization/kernel root"}},
            {"id": "R13", "shortDescription": {"text": "raw stream I/O bypassing util::ByteReader/ByteWriter"}},
            {"id": "S1", "shortDescription": {"text": "stale suppression (matched no finding)"}}
          ]
        }
      },
      "results": [
        {
          "ruleId": "R3",
          "level": "error",
          "message": {"text": "nondeterminism source (std::rand)"},
          "locations": [{"physicalLocation": {"artifactLocation": {"uri": "src/core/x.cpp"}, "region": {"startLine": 3}}}]
        },
        {
          "ruleId": "R1",
          "level": "error",
          "message": {"text": "raw threading primitive std::mutex"},
          "locations": [{"physicalLocation": {"artifactLocation": {"uri": "src/serve/y.cpp"}, "region": {"startLine": 7}}}],
          "suppressions": [{"kind": "inSource", "justification": "inline: slot registry lock"}]
        },
        {
          "ruleId": "S1",
          "level": "warning",
          "message": {"text": "stale allowlist entry"},
          "locations": [{"physicalLocation": {"artifactLocation": {"uri": "tools/dbk_lint.rules"}, "region": {"startLine": 12}}}]
        }
      ]
    }
  ]
}
)gold";
  EXPECT_EQ(dbk_lint::sarif_report(sarif_fixture_findings()), golden);
}

TEST(LintSarif, RoundTripVerifies) {
  const auto findings = sarif_fixture_findings();
  const std::string sarif = dbk_lint::sarif_report(findings);
  const auto v = dbk_lint::verify_sarif(sarif, findings);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.expected, v.emitted);
  EXPECT_EQ(v.emitted.at("R3"), 1);
}

TEST(LintSarif, EmptyFindingsStillValidate) {
  const std::vector<Finding> none;
  const auto v = dbk_lint::verify_sarif(dbk_lint::sarif_report(none), none);
  EXPECT_TRUE(v.ok) << v.error;
}

TEST(LintSarif, TamperedCountsFailVerificationWithPerRuleCounts) {
  const auto findings = sarif_fixture_findings();
  std::string sarif = dbk_lint::sarif_report(findings);
  // A serializer bug that swaps a rule id: counts no longer match.
  const std::string from = "\"ruleId\": \"R3\"";
  const std::string to = "\"ruleId\": \"R4\"";
  sarif.replace(sarif.find(from), from.size(), to);
  const auto v = dbk_lint::verify_sarif(sarif, findings);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.expected.at("R3"), 1);
  EXPECT_EQ(v.emitted.count("R3"), 0U);
  EXPECT_EQ(v.emitted.at("R4"), 1);
}

TEST(LintSarif, TruncatedDocumentFailsVerification) {
  const auto findings = sarif_fixture_findings();
  const std::string sarif = dbk_lint::sarif_report(findings);
  const auto v =
      dbk_lint::verify_sarif(sarif.substr(0, sarif.size() / 2), findings);
  EXPECT_FALSE(v.ok);
  EXPECT_FALSE(v.error.empty());
}

TEST(LintSarif, WrongToolNameFailsVerification) {
  const auto findings = sarif_fixture_findings();
  std::string sarif = dbk_lint::sarif_report(findings);
  const std::string from = "\"name\": \"dbk_lint\"";
  const std::string to = "\"name\": \"other_tool\"";
  sarif.replace(sarif.find(from), from.size(), to);
  const auto v = dbk_lint::verify_sarif(sarif, findings);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("dbk_lint"), std::string::npos);
}

}  // namespace
