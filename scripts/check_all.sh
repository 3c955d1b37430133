#!/usr/bin/env bash
# check_all.sh — the one-command correctness gate (docs/STATIC_ANALYSIS.md).
#
# Runs the full determinism & safety matrix and writes a single JSONL
# summary artifact:
#
#   1. build_warn     warning-hardened build (-Wall -Wextra -Werror via
#                     -DDROPBACK_WERROR=ON)
#   2. lint           dbk_lint over the whole tree with the checked-in
#                     allowlist (tools/dbk_lint.rules); whole-program rules
#                     R11/R12 included, stale suppressions are errors
#                     (--strict-suppressions)
#   3. lint_sarif     dbk_lint SARIF 2.1.0 export to build-check/lint.sarif;
#                     the emitter self-verifies by re-parsing its own output
#                     and exits 3 with per-rule counts on any mismatch
#   4. tests_warn     full ctest suite on the hardened build (includes the
#                     `lint` label: dbk_lint_tree + lint_test)
#   5. tsan_parallel  ThreadSanitizer build, ctest labels
#                     `parallel`+`serve`+`obs` (the span-tracer rings and
#                     metrics registry are exercised under TSan too), then
#                     thread_pool_test 20 more times (--repeat until-fail),
#                     so a rare race between shard claims surfaces
#   6. asan_recovery  ASan+UBSan build, ctest label `recovery`
#   7. ubsan_full     UBSan build, full ctest suite
#
# Sanitizer runtime options (halt_on_error=1, tools/sanitizers/*.supp) are
# exported per-test by tests/CMakeLists.txt when DROPBACK_SANITIZE is set.
#
# Usage:  scripts/check_all.sh [--fast]
#   --fast          skip the three sanitizer stages (pre-push smoke)
#   JOBS=N          parallelism for builds and ctest (default: nproc)
#   CHECK_ALL_OUT=D logs + summary directory (default: <repo>/build-check)
#
# Every stage runs even if an earlier one fails; the summary
# (check_all_summary.jsonl: one {"stage",...} record per stage + a trailing
# {"type":"summary"} record, the bench_micro JSONL spirit) reports all
# failures and the script exits nonzero if any stage failed.
set -u -o pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
OUT="${CHECK_ALL_OUT:-$ROOT/build-check}"
SUMMARY="$OUT/check_all_summary.jsonl"
FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) echo "usage: $0 [--fast]" >&2; exit 2 ;;
  esac
done

mkdir -p "$OUT"
: > "$SUMMARY"
FAILED=0
STAGES=0

# run_stage <name> <command...>  — tees output to $OUT/<name>.log, records a
# JSONL line, never aborts the matrix.
run_stage() {
  local name="$1"
  shift
  local log="$OUT/$name.log"
  local start end status
  echo "==> $name: $*"
  start=$(date +%s)
  if "$@" > "$log" 2>&1; then
    status=pass
  else
    status=fail
    FAILED=$((FAILED + 1))
    echo "    FAILED — see $log (tail):"
    tail -n 20 "$log" | sed 's/^/    | /'
  fi
  end=$(date +%s)
  STAGES=$((STAGES + 1))
  printf '{"stage":"%s","status":"%s","seconds":%d,"log":"%s"}\n' \
    "$name" "$status" "$((end - start))" "$log" >> "$SUMMARY"
  echo "    $name: $status ($((end - start))s)"
}

# --- 1+2+3: warning-hardened build, lint, full suite -----------------------
run_stage build_warn bash -c \
  "cmake -B '$ROOT/build-warn' -S '$ROOT' -DDROPBACK_WERROR=ON \
   && cmake --build '$ROOT/build-warn' -j '$JOBS'"
run_stage lint "$ROOT/build-warn/tools/dbk_lint" --root "$ROOT" \
  --rules "$ROOT/tools/dbk_lint.rules" --json "$OUT/lint_report.jsonl" \
  --strict-suppressions
run_stage lint_sarif "$ROOT/build-warn/tools/dbk_lint" --root "$ROOT" \
  --rules "$ROOT/tools/dbk_lint.rules" --sarif "$OUT/lint.sarif"
run_stage tests_warn ctest --test-dir "$ROOT/build-warn" -j "$JOBS" \
  --output-on-failure

# --- 5/6/7: sanitizer matrix ----------------------------------------------
if [ "$FAST" -eq 0 ]; then
  run_stage tsan_parallel bash -c \
    "cmake -B '$ROOT/build-tsan' -S '$ROOT' -DDROPBACK_SANITIZE=thread \
     && cmake --build '$ROOT/build-tsan' -j '$JOBS' \
     && ctest --test-dir '$ROOT/build-tsan' -L 'parallel|serve|obs' -j '$JOBS' \
        --output-on-failure \
     && ctest --test-dir '$ROOT/build-tsan' -R '^thread_pool_test\$' \
        --repeat until-fail:20 --output-on-failure"
  run_stage asan_recovery bash -c \
    "cmake -B '$ROOT/build-asan' -S '$ROOT' -DDROPBACK_SANITIZE=address \
     && cmake --build '$ROOT/build-asan' -j '$JOBS' \
     && ctest --test-dir '$ROOT/build-asan' -L recovery -j '$JOBS' \
        --output-on-failure"
  run_stage ubsan_full bash -c \
    "cmake -B '$ROOT/build-ubsan' -S '$ROOT' -DDROPBACK_SANITIZE=undefined \
     && cmake --build '$ROOT/build-ubsan' -j '$JOBS' \
     && ctest --test-dir '$ROOT/build-ubsan' -j '$JOBS' --output-on-failure"
fi

printf '{"type":"summary","stages":%d,"failed":%d,"fast":%s}\n' \
  "$STAGES" "$FAILED" "$([ "$FAST" -eq 1 ] && echo true || echo false)" \
  >> "$SUMMARY"
echo "==> summary: $SUMMARY"
cat "$SUMMARY"
[ "$FAILED" -eq 0 ]
