#!/usr/bin/env sh
# CI matrix runner: the secret-hygiene lint plus the sanitizer legs, each in
# its own build tree so they never poison each other's object files.
#
#   lint    - build tools/zl_lint and run it over src/ (no test suite)
#   asan    - AddressSanitizer build + full ctest run
#   ubsan   - UndefinedBehaviorSanitizer build + full ctest run
#   tsan    - ThreadSanitizer build + full ctest run
#   ctcheck - ZL_CT_CHECK taint-harness build + full ctest run
#   store   - targeted ASan run of the storage engine: the crash-recovery
#             torture test, WAL/snapshot/VFS invariants, and the chain
#             durability tests (fast; the full asan leg also covers them)
#   circuit-audit - build tools/circuit_audit and run the under-constraint
#             audit (static + seeded mutation fuzzing) over every production
#             circuit against the reviewed allowlist
#   scale   - smoke run of the marketplace throughput bench (bench_scale
#             --smoke): pins the parallel validation pipeline bit-identical
#             to the serial oracle and floods the sim testnet, writing
#             BENCH_scale.json into the build tree
#   kernels - the oracle tests pinning the fast arithmetic kernels
#             (Montgomery squaring, GLV + batch-affine multiexp, blocked
#             FFT) against their textbook twins: once under ASan, once in
#             the ZL_CT_CHECK taint build (which adds the GLV secret-scalar
#             guard deaths and mont_sqr taint propagation)
#   obs     - the observability gate (DESIGN.md §14): builds a -DZL_OBS=OFF
#             tree and the normal ON tree, runs test_obs in both (the OFF
#             run pins the macro compile-out contract), runs test_obs under
#             TSan (concurrent counter exactness), drives tools/obs_dump
#             end-to-end, and compares bench_scale --smoke ingest tx/s
#             ON vs OFF against the smoke overhead budget
#             (ZL_OBS_SMOKE_BUDGET_PCT, default 20 — padded for smoke-run
#             noise; the documented full-bench budget is <2%)
#   fuzz    - the decoder fuzzing matrix (DESIGN.md §15): replays the
#             checked-in seed corpus through every fuzz_one entry point
#             (any compiler), then builds the five libFuzzer harnesses
#             (tx, block, proof/VK, WAL recovery, snapshot load) under
#             Clang with ASan+UBSan and runs each for a smoke budget of
#             ZL_FUZZ_SMOKE_SECS seconds (default 15) seeded from
#             tests/fuzz_corpus/. The libFuzzer half is skipped with a
#             warning when no clang++ is installed
#   threadsafety - the static half of the concurrency gate: compile src/
#             under Clang with -Werror=thread-safety (the compile IS the
#             check — any lock used out of contract with its annotations
#             fails the build), then run the zl_lint lock-discipline rules
#             and their planted-violation corpus. The Clang compile is
#             skipped with a warning when no clang++ is installed (the
#             annotations are attribute no-ops under gcc); the lint rules
#             run either way
#
# Usage: tools/check_all.sh [leg ...] [-- ctest args...]
#   tools/check_all.sh                 # default matrix: lint circuit-audit asan ubsan tsan
#   tools/check_all.sh lint            # just the checker
#   tools/check_all.sh tsan -- -R ThreadStress
#
# Everything before `--` selects legs; everything after is forwarded to ctest
# verbatim. Exits non-zero as soon as any leg fails.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

legs=""
while [ "$#" -gt 0 ]; do
  case "$1" in
    --) shift; break ;;
    lint|asan|ubsan|tsan|ctcheck|store|circuit-audit|kernels|scale|obs|threadsafety|fuzz) legs="$legs $1"; shift ;;
    *) echo "check_all: unknown leg '$1' (expected lint|asan|ubsan|tsan|ctcheck|store|circuit-audit|kernels|scale|obs|threadsafety|fuzz)" >&2; exit 2 ;;
  esac
done
[ -n "$legs" ] || legs="lint circuit-audit asan ubsan tsan"

run_lint() {
  build_dir="$repo_root/build-lint"
  cmake -S "$repo_root" -B "$build_dir" -G Ninja -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" --target zl_lint
  "$build_dir/tools/zl_lint/zl_lint" "$repo_root/src" \
    --json "$build_dir/zl_lint_findings.json"
}

# Circuit-audit leg: static under-constraint analysis plus seeded witness-
# mutation fuzzing over every production circuit. The deterministic-seed env
# hook pins the ambient RNG so the emitted JSON is byte-identical run-to-run.
run_circuit_audit() {
  build_dir="$repo_root/build-lint"
  cmake -S "$repo_root" -B "$build_dir" -G Ninja -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" --target circuit_audit
  ZL_TEST_DETERMINISTIC_SEED=42 "$build_dir/tools/circuit_audit/circuit_audit" \
    --allowlist "$repo_root/tools/circuit_audit/allowlist.txt" --seed 42 \
    --json "$build_dir/circuit_audit_report.json"
}

# Storage-only leg: builds just the two chain/store test binaries under ASan
# and runs the storage suites (including the crash-point torture test).
run_store() {
  build_dir="$repo_root/build-store"
  cmake -S "$repo_root" -B "$build_dir" -G Ninja -DCMAKE_BUILD_TYPE=Release -DZL_SANITIZE=address
  cmake --build "$build_dir" --target test_store test_chain
  ctest --test-dir "$build_dir" --output-on-failure \
    -R '^(FaultVfs|Wal|SnapshotStore|OffChainStore|DurableChain|Torture|Blockchain)\.' "$@"
}

# Kernel-engine leg: builds only the six test binaries that carry the
# kernel-vs-oracle pins (including the ECDSA verifier against its two-ladder
# oracle and the Keccak known answers) and runs them twice — an ASan pass
# (memory bugs in the batch-affine scheduler / FFT tiling / wNAF tables) and
# a ZL_CT_CHECK pass (taint follows mont_sqr; GLV and the ECDSA joint
# multiplication refuse secret scalars). Reuses the asan/ctcheck
# build trees, so a later full leg picks up the already-built objects.
run_kernels() {
  kernel_filter='^(Fp\.MontSqr|Fp\.PortableOracles|Glv\.|Multiexp\.|Domain\.FftKernel|Groth16\.CubicKeysAndProofBytesGolden|Ecdsa\..*(Oracle|Golden)|Keccak\.|CtDeathTest\.|CtCheckBuild\.)'
  build_dir="$repo_root/build-asan"
  cmake -S "$repo_root" -B "$build_dir" -G Ninja -DCMAKE_BUILD_TYPE=Release -DZL_SANITIZE=address
  cmake --build "$build_dir" --target test_field test_ec test_snark test_ct test_pkc test_crypto
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1:abort_on_error=1" \
    ctest --test-dir "$build_dir" --output-on-failure -R "$kernel_filter" "$@"
  build_dir="$repo_root/build-ctcheck"
  cmake -S "$repo_root" -B "$build_dir" -G Ninja -DCMAKE_BUILD_TYPE=Release -DZL_CT_CHECK=ON
  cmake --build "$build_dir" --target test_field test_ec test_snark test_ct test_pkc test_crypto
  ctest --test-dir "$build_dir" --output-on-failure -R "$kernel_filter" "$@"
}

# Thread-safety leg: the static concurrency checks. Part one compiles the
# whole tree under Clang with -Werror=thread-safety — the capability
# annotations (src/common/annotations.h) only become attributes under Clang,
# so this is the one leg that needs a specific compiler; it probes the
# common names and degrades to a loud skip rather than failing the matrix on
# a gcc-only host. Part two runs the zl_lint lock-discipline rules over src/
# plus their planted-violation corpus, which work under any compiler.
run_threadsafety() {
  clangxx=""
  for candidate in clang++ clang++-19 clang++-18 clang++-17 clang++-16 clang++-15 clang++-14; do
    if command -v "$candidate" >/dev/null 2>&1; then clangxx="$candidate"; break; fi
  done
  if [ -n "$clangxx" ]; then
    build_dir="$repo_root/build-threadsafety"
    cmake -S "$repo_root" -B "$build_dir" -G Ninja -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_CXX_COMPILER="$clangxx" -DZL_THREAD_SAFETY=ON
    # The compile is the check: -Werror=thread-safety fails the build on any
    # lock acquired out of contract with its annotations.
    cmake --build "$build_dir"
  else
    echo "check_all: WARNING: no clang++ found; skipping the -Werror=thread-safety" >&2
    echo "check_all: compile (the capability analysis is Clang-only)" >&2
  fi
  build_dir="$repo_root/build-lint"
  cmake -S "$repo_root" -B "$build_dir" -G Ninja -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" --target zl_lint
  "$build_dir/tools/zl_lint/zl_lint" "$repo_root/src" \
    --json "$build_dir/zl_lint_findings.json"
  sh "$repo_root/tools/zl_lint/test_corpus.sh" \
    "$build_dir/tools/zl_lint/zl_lint" "$repo_root/tools/zl_lint/corpus"
}

# Fuzz leg: the decoder fuzzing matrix (DESIGN.md §15). Two halves:
#   1. Corpus regression (any compiler, reuses build-lint): replay every
#      checked-in seed and crasher under tests/fuzz_corpus/ through the
#      fuzz_one entry points as a plain gtest binary. This half always runs,
#      so the leg verifies the decoders even on gcc-only hosts.
#   2. libFuzzer smoke (Clang only): a -DZL_FUZZ=ON tree (the CMake option
#      auto-enables ASan+UBSan when no sanitizer is chosen) builds the five
#      harnesses — tx, block, proof/VK, WAL recovery, snapshot load — and
#      runs each for ZL_FUZZ_SMOKE_SECS seconds (default 15) seeded from the
#      checked-in corpus. New inputs libFuzzer discovers land in the build
#      tree (build-fuzz/corpus-<family>), never in the checked-in seeds;
#      promote a crasher by copying it into tests/fuzz_corpus/<family>/.
#      Skipped with a loud warning when no clang++ is installed.
run_fuzz() {
  build_dir="$repo_root/build-lint"
  cmake -S "$repo_root" -B "$build_dir" -G Ninja -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" --target test_fuzz_regression
  "$build_dir/tests/test_fuzz_regression"

  clangxx=""
  for candidate in clang++ clang++-19 clang++-18 clang++-17 clang++-16 clang++-15 clang++-14; do
    if command -v "$candidate" >/dev/null 2>&1; then clangxx="$candidate"; break; fi
  done
  if [ -z "$clangxx" ]; then
    echo "check_all: WARNING: no clang++ found; skipping the libFuzzer smoke" >&2
    echo "check_all: (ZL_FUZZ needs Clang's libFuzzer runtime; the corpus" >&2
    echo "check_all: regression above still exercised every decoder family)" >&2
    return 0
  fi
  build_dir="$repo_root/build-fuzz"
  cmake -S "$repo_root" -B "$build_dir" -G Ninja -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_COMPILER="$clangxx" -DZL_FUZZ=ON
  cmake --build "$build_dir" --target \
    fuzz_tx fuzz_block fuzz_proof fuzz_wal fuzz_snapshot
  smoke_secs="${ZL_FUZZ_SMOKE_SECS:-15}"
  for family in tx block proof wal snapshot; do
    echo "---- fuzz_$family: ${smoke_secs}s smoke ----"
    mkdir -p "$build_dir/corpus-$family"
    ASAN_OPTIONS="detect_leaks=1:halt_on_error=1:abort_on_error=1" \
    UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
      "$build_dir/tools/fuzz/fuzz_$family" \
        -max_total_time="$smoke_secs" -print_final_stats=1 \
        "$build_dir/corpus-$family" "$repo_root/tests/fuzz_corpus/$family"
  done
}

# Scale leg: the bench_scale smoke case through ctest (plain Release build —
# this is a throughput pin, so no sanitizer overhead). Reuses the lint tree.
run_scale() {
  build_dir="$repo_root/build-lint"
  cmake -S "$repo_root" -B "$build_dir" -G Ninja -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" --target bench_scale
  ctest --test-dir "$build_dir" --output-on-failure -R '^bench_scale_smoke$' "$@"
}

# Obs leg: the observability subsystem gate. Four parts:
#   1. ZL_OBS=OFF tree: test_obs pins that the macros compile to nothing
#      (arguments unevaluated, registry stays empty), and bench_scale
#      --smoke supplies the no-instrumentation throughput baseline.
#   2. ON tree (reuses build-lint): full test_obs including the trace-ring
#      tests, plus an end-to-end obs_dump run covering all four metric
#      families and all three exporters.
#   3. TSan (reuses build-tsan): the concurrent-counter exactness and span
#      tests under the race detector.
#   4. Overhead gate: ON ingest tx/s must be within ZL_OBS_SMOKE_BUDGET_PCT
#      (default 20%) of OFF. The smoke budget is deliberately padded — the
#      smoke run is seconds long and noisy; the <2% budget DESIGN.md §14
#      documents is measured on the full bench.
run_obs() {
  off_dir="$repo_root/build-obsoff"
  cmake -S "$repo_root" -B "$off_dir" -G Ninja -DCMAKE_BUILD_TYPE=Release -DZL_OBS=OFF
  cmake --build "$off_dir" --target test_obs bench_scale obs_dump
  "$off_dir/tests/test_obs"
  (cd "$off_dir" && ./bench/bench_scale --smoke)

  on_dir="$repo_root/build-lint"
  cmake -S "$repo_root" -B "$on_dir" -G Ninja -DCMAKE_BUILD_TYPE=Release
  cmake --build "$on_dir" --target test_obs bench_scale obs_dump
  "$on_dir/tests/test_obs"
  (cd "$on_dir" && ./tools/obs_dump/obs_dump --quiet \
    --json obs_dump.json --prom obs_dump.prom --trace obs_dump_trace.json)
  python3 - "$on_dir" <<'EOF'
import json, sys
d = sys.argv[1]
snap = json.load(open(d + "/obs_dump.json"))
names = " ".join(list(snap["counters"]) + list(snap["spans"]))
for family in ("prover.", "validation.", "mempool.", "store."):
    assert family in names, f"obs_dump snapshot missing the {family}* family"
trace = json.load(open(d + "/obs_dump_trace.json"))
assert trace["traceEvents"], "obs_dump emitted an empty Chrome trace"
print(f"obs_dump: all four metric families present, "
      f"{len(trace['traceEvents'])} trace events")
EOF
  (cd "$on_dir" && ./bench/bench_scale --smoke)

  tsan_dir="$repo_root/build-tsan"
  cmake -S "$repo_root" -B "$tsan_dir" -G Ninja -DCMAKE_BUILD_TYPE=Release -DZL_SANITIZE=thread
  cmake --build "$tsan_dir" --target test_obs
  "$tsan_dir/tests/test_obs"

  python3 - "$off_dir" "$on_dir" "${ZL_OBS_SMOKE_BUDGET_PCT:-20}" <<'EOF'
import json, sys
off = json.load(open(sys.argv[1] + "/BENCH_scale.json"))["testnet"]["ingest_tx_per_s"]
on = json.load(open(sys.argv[2] + "/BENCH_scale.json"))["testnet"]["ingest_tx_per_s"]
budget = float(sys.argv[3])
overhead = 100.0 * (off - on) / off if off > 0 else 0.0
print(f"obs overhead: OFF {off:.0f} tx/s, ON {on:.0f} tx/s, "
      f"{overhead:+.1f}% (smoke budget {budget:.0f}%)")
if overhead > budget:
    sys.exit(f"FAIL: obs instrumentation overhead {overhead:.1f}% exceeds "
             f"the {budget:.0f}% smoke budget")
EOF
}

# $1 = leg name, $2 = extra cmake cache args, remaining = ctest args.
run_suite() {
  leg="$1"; cache="$2"; shift 2
  build_dir="$repo_root/build-$leg"
  # shellcheck disable=SC2086 -- $cache is deliberately word-split.
  cmake -S "$repo_root" -B "$build_dir" -G Ninja -DCMAKE_BUILD_TYPE=Release $cache
  cmake --build "$build_dir"
  ctest --test-dir "$build_dir" --output-on-failure "$@"
}

status=0
for leg in $legs; do
  echo "==== check_all: $leg ===="
  case "$leg" in
    lint)
      run_lint || status=$? ;;
    circuit-audit)
      run_circuit_audit || status=$? ;;
    asan)
      # halt/abort promote any report to a hard test failure.
      ASAN_OPTIONS="detect_leaks=1:halt_on_error=1:abort_on_error=1" \
        run_suite asan "-DZL_SANITIZE=address" "$@" || status=$? ;;
    ubsan)
      UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
        run_suite ubsan "-DZL_SANITIZE=undefined" "$@" || status=$? ;;
    tsan)
      run_suite tsan "-DZL_SANITIZE=thread" "$@" || status=$? ;;
    ctcheck)
      run_suite ctcheck "-DZL_CT_CHECK=ON" "$@" || status=$? ;;
    store)
      ASAN_OPTIONS="detect_leaks=1:halt_on_error=1:abort_on_error=1" \
        run_store "$@" || status=$? ;;
    kernels)
      run_kernels "$@" || status=$? ;;
    scale)
      run_scale "$@" || status=$? ;;
    obs)
      run_obs || status=$? ;;
    threadsafety)
      run_threadsafety || status=$? ;;
    fuzz)
      run_fuzz || status=$? ;;
  esac
  if [ "$status" -ne 0 ]; then
    echo "==== check_all: $leg FAILED ====" >&2
    exit "$status"
  fi
done
echo "==== check_all: all legs passed ($legs ) ===="
