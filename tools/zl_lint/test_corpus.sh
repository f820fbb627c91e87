#!/bin/sh
# Corpus test for the zl-lint lock-discipline, timing, and decode-taint rules
# (naked-mutex, naked-unlock, atomic-rmw-race, naked-timing, unchecked-length,
# unbounded-resize): runs the linter over tools/zl_lint/corpus and pins the
# exact finding counts — the planted files must trip every rule the expected
# number of times (recall), and the clean files must trip none (precision).
# Also pins report stability: the JSON report must be byte-identical whether
# the corpus is linted as a directory walk or as an explicitly reversed file
# list (findings are sorted by file/line/col/rule, so input order must not
# leak into the report). Registered as the `zl_lint_corpus` ctest case.
#
# Usage: test_corpus.sh <zl_lint-binary> <corpus-dir>
set -u

LINT="$1"
CORPUS="$2"

out=$("$LINT" "$CORPUS")
status=$?
if [ "$status" -ne 1 ]; then
  echo "FAIL: expected exit 1 (findings) over the corpus, got $status"
  echo "$out"
  exit 1
fi

fail=0
expect() {
  # expect <count> <grep-pattern> <label>
  got=$(printf '%s\n' "$out" | grep -c -- "$2")
  if [ "$got" -ne "$1" ]; then
    echo "FAIL: expected $1 finding(s) for $3, got $got"
    fail=1
  fi
}

expect 2 "planted_lock_violations.cpp.*naked-unlock" "naked-unlock in the planted file"
expect 2 "planted_lock_violations.cpp.*naked-mutex" "naked-mutex in the planted file"
expect 1 "planted_lock_violations.cpp.*atomic-rmw-race" "atomic-rmw-race in the planted file"
expect 1 "planted_naked_timing.cpp.*naked-timing" "naked-timing in the planted file"
expect 2 "planted_decode_taint.cpp.*unchecked-length" "unchecked-length in the planted file"
expect 2 "planted_decode_taint.cpp.*unbounded-resize" "unbounded-resize in the planted file"
expect 0 "clean_locks.cpp" "any rule on the clean locks file"
expect 0 "clean_decode.cpp" "any rule on the clean decode file"
expect 1 "scanned 5 file(s), 10 finding(s)" "the exact totals line"

# Byte-stable reports: lint the corpus once as a directory walk and once as an
# explicit file list in reverse order; the two JSON reports must be identical.
tmpdir=$(mktemp -d) || exit 2
trap 'rm -rf "$tmpdir"' EXIT
"$LINT" "$CORPUS" --json "$tmpdir/walk.json" >/dev/null
# shellcheck disable=SC2046  # word-splitting the file list is intended
"$LINT" $(find "$CORPUS" -name '*.cpp' | sort -r) --json "$tmpdir/list.json" >/dev/null
if ! cmp -s "$tmpdir/walk.json" "$tmpdir/list.json"; then
  echo "FAIL: --json report depends on input order"
  diff "$tmpdir/walk.json" "$tmpdir/list.json"
  fail=1
fi
if ! grep -q '"col": ' "$tmpdir/walk.json"; then
  echo "FAIL: --json report has no column numbers"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "--- linter output ---"
  echo "$out"
  exit 1
fi
echo "PASS: corpus findings match (10 planted, 0 false positives; byte-stable JSON)"
exit 0
