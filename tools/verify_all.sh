#!/usr/bin/env bash
# Full correctness matrix: builds and runs the test suite under
#   1. plain Debug (assertions + S2_DCHECK on),
#   2. AddressSanitizer,
#   3. ThreadSanitizer,
#   4. UndefinedBehaviorSanitizer,
# then runs clang-tidy via tools/lint.sh. Exits nonzero on the first
# configuration that fails to build or test, or if lint fails.
#
# Usage: tools/verify_all.sh [jobs]
#        tools/verify_all.sh faults [jobs]
#        tools/verify_all.sh sharding [jobs]
#        tools/verify_all.sh stream [jobs]
#        tools/verify_all.sh monitor [jobs]
#        tools/verify_all.sh analysis [jobs]
#        tools/verify_all.sh durability [jobs]
#        tools/verify_all.sh kernels [jobs]
#        tools/verify_all.sh approx [jobs]
#        tools/verify_all.sh s2bench
#
# The `faults` profile is a focused resilience gate: it builds under
# AddressSanitizer and runs only the fault-injection / crash-safety tests
# (ctest label `resilience`, see tests/CMakeLists.txt) plus one pass of
# bench_faults — much faster than the full matrix, intended for iterating
# on the s2::io / s2::resilience layers.
#
# The `sharding` profile is the scatter-gather gate: it builds under
# ThreadSanitizer and runs the shard equivalence / stress / golden tests
# (ctest label `sharding`) plus the thread-pool contract tests and one short
# bench_shard pass — TSan over exactly the code that shares a pruning radius
# across threads.
#
# The `stream` profile is the streaming-ingestion gate: it builds under
# AddressSanitizer and runs the stream-labelled tests (WAL round-trip and
# torn-tail handling, delta-tier equivalence including the WAL crash-point
# sweep in stream_equivalence_test.cc) plus one short bench_stream pass that
# checks the delta-tier query-cost bar.
#
# The `monitor` profile is the standing-query gate: it builds under
# ThreadSanitizer (the alert queue's lock-free polls race the append path's
# pushes — see monitor_server_test.cc) and runs the monitor-labelled tests
# (registry state machines, alert-stream shard/maintenance equivalence, the
# monitor-WAL crash sweep) plus one short bench_monitor pass pricing the
# append-path evaluation cost.
#
# The `analysis` profile is the compile-time concurrency gate: with clang++
# on PATH it builds src/ under -Wthread-safety -Werror so every annotation
# in base/thread_annotations.h is actually checked (GCC compiles them to
# no-ops); without clang++ it falls back to the default compiler so the
# debug lock-rank checker still runs. Either way it then runs tools/lint.sh
# (concurrency clang-tidy checks) and the concurrency-labelled tests —
# the sync-layer unit tests (lock-rank inversion/CondVar), the thread-pool
# and scheduler contract tests, and the racy monitor/shard stress tests.
#
# The `durability` profile is the checkpoint/recovery gate: it builds under
# ASan+UBSan combined (the corruption fuzzers in fuzz_manifest_test.cc and
# fuzz_wal_segment_test.cc lean on the sanitizers to turn any latent UB in
# the decoders into hard failures) and runs the durability-labelled tests —
# snapshot/manifest codecs, WAL segmentation, snapshot+tail equivalence,
# and the process-level crash-restart chaos sweep — plus one bench_recovery
# pass that checks the bounded-replay bar.
#
# The `kernels` profile is the simd bit-compatibility gate: it builds under
# ASan+UBSan (misaligned vector loads and out-of-bounds tails become hard
# failures) and runs the kernels-labelled tests — the differential fuzz
# harness in simd_kernel_test.cc, the band-DP and Euclidean-seed fuzzers of
# the DTW search (dtw_test.cc, dtw_search_test.cc), the standardization
# edge cases, and the dispatch-matrix re-runs of the golden/equivalence
# suites — once with default dispatch and once with S2_SIMD=off, so both
# sides of every backend-vs-scalar comparison are themselves exercised
# under sanitizers. One small bench_dtw pass follows, which fails unless
# the DTW search returns the plain scan's distances bit for bit.
# (tools/lint.sh discovers src/simd automatically via its `find src` walk.)
#
# The `approx` profile is the approximate-tier gate: it builds under
# ASan+UBSan (the summary serialization fuzzers in
# fuzz_approx_summary_test.cc lean on the sanitizers the same way the other
# decoder fuzzers do) and runs the approx-labelled tests — the soundness /
# determinism unit suite, the recall + shard-invariance harness, the serving
# degrade-ladder and cache-identity tests — plus one small bench_approx pass
# that checks the recall/speedup bar at smoke scale.
#
# The `s2bench` profile is the end-to-end benchmark gate. Tier-1 never
# compiles s2bench/, so a change to a server API the benchmark reads would
# pass tier-1 and still break it. The profile builds the benchmark (Release,
# under build-verify-s2bench), runs its self-test (every brute-force check
# fed a corrupted answer), then runs each workload for one second and fails
# unless the result line reports a correct run with no failed operation.
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

if [ "${1:-}" = "faults" ]; then
  jobs="${2:-$(nproc 2> /dev/null || echo 4)}"
  build_dir="${repo_root}/build-verify-faults"
  echo "==== [faults] ASan build + resilience-labelled tests + bench_faults ===="
  cmake -S "${repo_root}" -B "${build_dir}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DS2_SANITIZE=address > "${build_dir}.configure.log" 2>&1 \
    || { echo "FAIL [faults]: configure (see ${build_dir}.configure.log)" >&2; exit 1; }
  cmake --build "${build_dir}" -j "${jobs}" > "${build_dir}.build.log" 2>&1 \
    || { echo "FAIL [faults]: build (see ${build_dir}.build.log)" >&2; exit 1; }
  ctest --test-dir "${build_dir}" -L resilience --output-on-failure -j "${jobs}" \
    || { echo "FAIL [faults]: resilience tests" >&2; exit 1; }
  "${build_dir}/bench/bench_faults" --series 128 --days 128 --requests 120 \
    || { echo "FAIL [faults]: bench_faults" >&2; exit 1; }
  echo "verify_all.sh: faults profile green."
  exit 0
fi

if [ "${1:-}" = "sharding" ]; then
  jobs="${2:-$(nproc 2> /dev/null || echo 4)}"
  build_dir="${repo_root}/build-verify-sharding"
  echo "==== [sharding] TSan build + sharding-labelled tests + bench_shard ===="
  cmake -S "${repo_root}" -B "${build_dir}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DS2_SANITIZE=thread > "${build_dir}.configure.log" 2>&1 \
    || { echo "FAIL [sharding]: configure (see ${build_dir}.configure.log)" >&2; exit 1; }
  cmake --build "${build_dir}" -j "${jobs}" > "${build_dir}.build.log" 2>&1 \
    || { echo "FAIL [sharding]: build (see ${build_dir}.build.log)" >&2; exit 1; }
  ctest --test-dir "${build_dir}" -L sharding --output-on-failure -j "${jobs}" \
    || { echo "FAIL [sharding]: sharding tests" >&2; exit 1; }
  "${build_dir}/tests/thread_pool_test" > /dev/null \
    || { echo "FAIL [sharding]: thread_pool_test" >&2; exit 1; }
  "${build_dir}/bench/bench_shard" --series 256 --days 128 --requests 40 \
    --shards-max 4 \
    || { echo "FAIL [sharding]: bench_shard" >&2; exit 1; }
  echo "verify_all.sh: sharding profile green."
  exit 0
fi

if [ "${1:-}" = "stream" ]; then
  jobs="${2:-$(nproc 2> /dev/null || echo 4)}"
  build_dir="${repo_root}/build-verify-stream"
  echo "==== [stream] ASan build + stream-labelled tests + bench_stream ===="
  cmake -S "${repo_root}" -B "${build_dir}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DS2_SANITIZE=address > "${build_dir}.configure.log" 2>&1 \
    || { echo "FAIL [stream]: configure (see ${build_dir}.configure.log)" >&2; exit 1; }
  cmake --build "${build_dir}" -j "${jobs}" > "${build_dir}.build.log" 2>&1 \
    || { echo "FAIL [stream]: build (see ${build_dir}.build.log)" >&2; exit 1; }
  ctest --test-dir "${build_dir}" -L stream --output-on-failure -j "${jobs}" \
    || { echo "FAIL [stream]: stream tests" >&2; exit 1; }
  "${build_dir}/bench/bench_stream" --series 256 --days 128 --appends 600 --repeats 1 \
    --requests 60 --delta 32 \
    || { echo "FAIL [stream]: bench_stream" >&2; exit 1; }
  echo "verify_all.sh: stream profile green."
  exit 0
fi

if [ "${1:-}" = "monitor" ]; then
  jobs="${2:-$(nproc 2> /dev/null || echo 4)}"
  build_dir="${repo_root}/build-verify-monitor"
  echo "==== [monitor] TSan build + monitor-labelled tests + bench_monitor ===="
  cmake -S "${repo_root}" -B "${build_dir}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DS2_SANITIZE=thread > "${build_dir}.configure.log" 2>&1 \
    || { echo "FAIL [monitor]: configure (see ${build_dir}.configure.log)" >&2; exit 1; }
  cmake --build "${build_dir}" -j "${jobs}" > "${build_dir}.build.log" 2>&1 \
    || { echo "FAIL [monitor]: build (see ${build_dir}.build.log)" >&2; exit 1; }
  ctest --test-dir "${build_dir}" -L monitor --output-on-failure -j "${jobs}" \
    || { echo "FAIL [monitor]: monitor tests" >&2; exit 1; }
  "${build_dir}/bench/bench_monitor" --series 128 --days 128 --appends 600 \
    --watched 32 --json "${build_dir}/BENCH_monitor.json" \
    || { echo "FAIL [monitor]: bench_monitor" >&2; exit 1; }
  echo "verify_all.sh: monitor profile green."
  exit 0
fi

if [ "${1:-}" = "analysis" ]; then
  jobs="${2:-$(nproc 2> /dev/null || echo 4)}"
  build_dir="${repo_root}/build-verify-analysis"
  echo "==== [analysis] thread-safety build + lint + concurrency tests ===="
  extra_flags=()
  if command -v clang++ > /dev/null 2>&1 && command -v clang > /dev/null 2>&1; then
    echo "[analysis] clang found: building with -Wthread-safety -Werror"
    extra_flags+=(-DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++)
  else
    echo "[analysis] clang++ not on PATH; thread-safety annotations compile" \
         "to no-ops under this compiler. Building with the default toolchain" \
         "so the debug lock-rank checker still gates."
  fi
  # Debug: S2_DCHECK on, so the runtime lock-rank checker is compiled in and
  # the inversion test in sync_test.cc asserts the structured failure.
  cmake -S "${repo_root}" -B "${build_dir}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    "${extra_flags[@]+"${extra_flags[@]}"}" > "${build_dir}.configure.log" 2>&1 \
    || { echo "FAIL [analysis]: configure (see ${build_dir}.configure.log)" >&2; exit 1; }
  cmake --build "${build_dir}" -j "${jobs}" > "${build_dir}.build.log" 2>&1 \
    || { echo "FAIL [analysis]: build (see ${build_dir}.build.log)" >&2; exit 1; }
  "${repo_root}/tools/lint.sh" "${build_dir}" \
    || { echo "FAIL [analysis]: lint" >&2; exit 1; }
  ctest --test-dir "${build_dir}" -L concurrency --output-on-failure -j "${jobs}" \
    || { echo "FAIL [analysis]: concurrency tests" >&2; exit 1; }
  echo "verify_all.sh: analysis profile green."
  exit 0
fi

if [ "${1:-}" = "durability" ]; then
  jobs="${2:-$(nproc 2> /dev/null || echo 4)}"
  build_dir="${repo_root}/build-verify-durability"
  echo "==== [durability] ASan+UBSan build + durability-labelled tests + bench_recovery ===="
  cmake -S "${repo_root}" -B "${build_dir}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DS2_SANITIZE=address,undefined > "${build_dir}.configure.log" 2>&1 \
    || { echo "FAIL [durability]: configure (see ${build_dir}.configure.log)" >&2; exit 1; }
  cmake --build "${build_dir}" -j "${jobs}" > "${build_dir}.build.log" 2>&1 \
    || { echo "FAIL [durability]: build (see ${build_dir}.build.log)" >&2; exit 1; }
  ctest --test-dir "${build_dir}" -L durability --output-on-failure -j "${jobs}" \
    || { echo "FAIL [durability]: durability tests" >&2; exit 1; }
  "${build_dir}/bench/bench_recovery" --series 64 --days 64 --appends 600 \
    --interval 128 --json "${build_dir}/BENCH_recovery.json" \
    || { echo "FAIL [durability]: bench_recovery" >&2; exit 1; }
  echo "verify_all.sh: durability profile green."
  exit 0
fi

if [ "${1:-}" = "kernels" ]; then
  jobs="${2:-$(nproc 2> /dev/null || echo 4)}"
  build_dir="${repo_root}/build-verify-kernels"
  echo "==== [kernels] ASan+UBSan build + kernels-labelled tests, both dispatch modes ===="
  cmake -S "${repo_root}" -B "${build_dir}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DS2_SANITIZE=address,undefined > "${build_dir}.configure.log" 2>&1 \
    || { echo "FAIL [kernels]: configure (see ${build_dir}.configure.log)" >&2; exit 1; }
  cmake --build "${build_dir}" -j "${jobs}" > "${build_dir}.build.log" 2>&1 \
    || { echo "FAIL [kernels]: build (see ${build_dir}.build.log)" >&2; exit 1; }
  ctest --test-dir "${build_dir}" -L kernels --output-on-failure -j "${jobs}" \
    || { echo "FAIL [kernels]: kernels tests (default dispatch)" >&2; exit 1; }
  S2_SIMD=off ctest --test-dir "${build_dir}" -L kernels --output-on-failure \
    -j "${jobs}" \
    || { echo "FAIL [kernels]: kernels tests (S2_SIMD=off)" >&2; exit 1; }
  "${build_dir}/bench/bench_kernels" --reps 2000 \
    --json "${build_dir}/BENCH_kernels.json" \
    || { echo "FAIL [kernels]: bench_kernels" >&2; exit 1; }
  "${build_dir}/bench/bench_dtw" --db 256 --days 128 --queries 4 --repeats 1 \
    --s2bench-db 1024 --json "${build_dir}/BENCH_dtw.json" \
    || { echo "FAIL [kernels]: bench_dtw" >&2; exit 1; }
  echo "verify_all.sh: kernels profile green."
  exit 0
fi

if [ "${1:-}" = "approx" ]; then
  jobs="${2:-$(nproc 2> /dev/null || echo 4)}"
  build_dir="${repo_root}/build-verify-approx"
  echo "==== [approx] ASan+UBSan build + approx-labelled tests + bench_approx ===="
  cmake -S "${repo_root}" -B "${build_dir}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DS2_SANITIZE=address,undefined > "${build_dir}.configure.log" 2>&1 \
    || { echo "FAIL [approx]: configure (see ${build_dir}.configure.log)" >&2; exit 1; }
  cmake --build "${build_dir}" -j "${jobs}" > "${build_dir}.build.log" 2>&1 \
    || { echo "FAIL [approx]: build (see ${build_dir}.build.log)" >&2; exit 1; }
  ctest --test-dir "${build_dir}" -L approx --output-on-failure -j "${jobs}" \
    || { echo "FAIL [approx]: approx tests" >&2; exit 1; }
  "${build_dir}/bench/bench_approx" --series 2048 --queries 50 \
    --json "${build_dir}/BENCH_approx.json" \
    || { echo "FAIL [approx]: bench_approx" >&2; exit 1; }
  echo "verify_all.sh: approx profile green."
  exit 0
fi

if [ "${1:-}" = "s2bench" ]; then
  build_dir="${repo_root}/build-verify-s2bench"
  echo "==== [s2bench] benchmark build + self-test + one short run per workload ===="
  cd "${repo_root}" || exit 1
  export CARGO_TARGET_DIR="${build_dir}"
  python3 s2bench/run.py --self-test \
    || { echo "FAIL [s2bench]: self-test" >&2; exit 1; }
  for workload in similarity interactive ingest; do
    log="${build_dir}.${workload}.log"
    result="$(python3 s2bench/run.py --workload "${workload}" --seed 1 \
      --seconds 1 --trace 0 2> "${log}" | tail -n 1)"
    case "${result}" in
      *'"correct": true,'*'"failed": 0,'*)
        echo "PASS [s2bench]: ${workload}" ;;
      *)
        echo "FAIL [s2bench]: ${workload}: ${result:-no result line}" \
          "(see ${log})" >&2
        exit 1 ;;
    esac
  done
  echo "verify_all.sh: s2bench profile green."
  exit 0
fi

jobs="${1:-$(nproc 2> /dev/null || echo 4)}"
failed=0

run_config() {
  local label="$1" build_dir="$2" sanitize="$3"
  echo "==== [${label}] configure + build + ctest ===="
  if ! cmake -S "${repo_root}" -B "${build_dir}" \
      -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      -DS2_SANITIZE="${sanitize}" > "${build_dir}.configure.log" 2>&1; then
    echo "FAIL [${label}]: configure (see ${build_dir}.configure.log)" >&2
    return 1
  fi
  if ! cmake --build "${build_dir}" -j "${jobs}" > "${build_dir}.build.log" 2>&1; then
    echo "FAIL [${label}]: build (see ${build_dir}.build.log)" >&2
    return 1
  fi
  if ! ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
      > "${build_dir}.ctest.log" 2>&1; then
    echo "FAIL [${label}]: tests (see ${build_dir}.ctest.log)" >&2
    return 1
  fi
  echo "PASS [${label}]"
}

run_config "plain" "${repo_root}/build-verify-plain" "" || failed=1
run_config "asan" "${repo_root}/build-verify-asan" "address" || failed=1
run_config "tsan" "${repo_root}/build-verify-tsan" "thread" || failed=1
run_config "ubsan" "${repo_root}/build-verify-ubsan" "undefined" || failed=1

echo "==== [lint] clang-tidy ===="
if ! "${repo_root}/tools/lint.sh" "${repo_root}/build-verify-plain"; then
  echo "FAIL [lint]" >&2
  failed=1
fi

if [ "${failed}" -ne 0 ]; then
  echo "verify_all.sh: FAILURES detected." >&2
  exit 1
fi
echo "verify_all.sh: all configurations green."
