#!/usr/bin/env bash
# Tier-1 gate: build and run the full test suite in the default
# configuration, under ThreadSanitizer, and under AddressSanitizer. The
# TSan pass exists for the parallel compaction executor and the network
# server — the `stress` label marks the tests that exercise concurrency
# hardest, and `-L stress` re-runs them a few extra times under TSan to
# shake out schedule-dependent races. The ASan pass covers the buffer
# handling in the wire protocol, the chaos proxy's frame surgery, and
# the slow-client eviction path, where a lifetime bug would otherwise
# hide behind the allocator. Right after the default-config build, the
# benchmark harness (perfbench/) is built against the same sources and its
# correctness checks run: sealbench's selftest, then one short untraced
# round each of the ingest and range-scan workloads, which fail (non-zero
# exit) on a wrong read-back, a wrong scan or a guard violation — there is
# no timing gate — then two identical rounds each of ingest and
# range-scan on seed 1 and on the held-out seed 20181016, plus a third
# pinned to one core (taskset -c 0), whose simulated-device figures
# (device_ops_per_s, mwa, space_amp) must match byte for byte. Then the
# four self-contained examples (quickstart, web_index, smr_inspector,
# ycsb_tour) run and must
# exit 0; smr_inspector is the one program that drives all three drive
# models. Then the paper figures: figures.py's selftest proves its check
# fails on an edited table, a missing row and a changed value; `sealfig
# all --mb=4` regenerates every table and figure; and figures.py --check
# compares those rows with the committed --mb=4 rows at the precision the
# tables render (the 4-shard Fig. 9 column is not repeatable and is left
# out) and fails when a rendered table in README.md or EXPERIMENTS.md
# differs from what the committed 48 MB rows render. After the
# default-config suite, a served smoke drives
# the shipped binaries end to end: sealdb_server on an ephemeral port,
# sealdb_cli put/get/metrics against it, then a SIGTERM that must drain,
# print the shutdown summary and exit 0. It runs twice: with 4 shards, and
# with the server's default shard count (1).
#
# Usage: scripts/check.sh [--fast] [--filter <regex>] [--bench]
#                         [--crash-sweep]
#   --fast            sanitizer configs run only the stress-labelled
#                     tests instead of the full suite (the full
#                     default-config suite always runs).
#   --filter <regex>  only run ctest tests matching <regex> (passed as
#                     ctest -R) in every configuration. A regex that
#                     matches no tests is an error (--no-tests=error), so
#                     a typo'd filter fails fast instead of reporting a
#                     vacuous green run across all three configs.
#   --bench           after the default-config suite, run bench_smoke and
#                     gate its device-currency throughput against
#                     bench/baseline_smoke.json (scripts/bench_gate.py).
#   --crash-sweep     after the default-config suite, run the bounded
#                     sharded crash-point sweep (deterministic workload,
#                     fixed seeds baked into the tests; every recovered
#                     store is checked by the doctor in-process), then
#                     drive the sealdb_doctor binary end-to-end: a clean
#                     check over a crash-recovered 4-shard store whose
#                     shards all ran set compactions (it fails on a shard
#                     with no set region or with an orphaned one), and a
#                     detect -> repair -> re-check cycle over a
#                     deliberately corrupted checkpoint slot.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
FILTER=""
BENCH=0
CRASH_SWEEP=0
while [ $# -gt 0 ]; do
  case "$1" in
    --fast) FAST=1 ;;
    --bench) BENCH=1 ;;
    --crash-sweep) CRASH_SWEEP=1 ;;
    --filter)
      if [ $# -lt 2 ]; then
        echo "check.sh: --filter requires a regex argument" >&2
        exit 2
      fi
      FILTER="$2"
      shift
      ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
  shift
done

# Fail fast with a clear message when the toolchain is missing — a bare
# "cmake: command not found" halfway through is needlessly confusing.
for tool in cmake; do
  if ! command -v "$tool" >/dev/null 2>&1; then
    echo "check.sh: '$tool' not found on PATH — install it first" >&2
    echo "          (e.g. apt-get install cmake build-essential)" >&2
    exit 1
  fi
done
if ! command -v c++ >/dev/null 2>&1 && ! command -v g++ >/dev/null 2>&1 \
    && ! command -v clang++ >/dev/null 2>&1; then
  echo "check.sh: no C++ compiler (c++/g++/clang++) found on PATH" >&2
  echo "          (e.g. apt-get install g++)" >&2
  exit 1
fi

JOBS="$(nproc 2>/dev/null || echo 2)"

CTEST_ARGS=(--output-on-failure)
STRICT_ARGS=()
if [ -n "$FILTER" ]; then
  CTEST_ARGS+=(-R "$FILTER")
  # A typo'd filter matches zero tests, and a zero-test run exits 0 —
  # three vacuously green configurations later the typo would still be
  # invisible. Full-suite legs therefore treat "no tests matched" as an
  # error. The `-L stress` repeat legs stay lenient: a valid filter that
  # selects only non-stress tests legitimately matches nothing there.
  STRICT_ARGS+=(--no-tests=error)
fi

echo "== default configuration =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
# The benchmark harness (perfbench/) compiles the library sources as its
# own project; building it here makes a library change that breaks the
# benchmark fail this gate. The short rounds below run the benchmark's own
# verifier over the write path (ingest: every value read back is the last
# one loaded) and the read path (range-scan: keys in order, right count);
# sealbench exits non-zero when any check fails. No timing is gated.
echo "== perfbench build + correctness smoke =="
cmake -S perfbench -B build-perfbench >/dev/null
cmake --build build-perfbench -j "$JOBS" --target sealbench
# The selftest corrupts three values on purpose and prints a "check
# failed" line for each; it exits 0 only when all three were caught.
./build-perfbench/sealbench --selftest
./build-perfbench/sealbench --workload=ingest --seconds=1 --trace=0 >/dev/null
./build-perfbench/sealbench --workload=range-scan --seconds=1.4 --trace=0 \
  >/dev/null
# Ingest and range-scan load a single shard with inline compactions and
# count simulated device time, so their device figures depend on the
# workload and the code only: two identical runs, and a third pinned to
# one core with `taskset -c 0`, must print the same device_ops_per_s, mwa
# and space_amp lines, byte for byte. The pinned run gives a compaction's
# merge helper no core of its own, so the figures cannot depend on how
# many cores the host has. Both the default seed and the held-out seed
# run, so an order or tie dependence (say, in the compaction victim
# score) that one input hides still fails.
# Prints a run's device lines; arguments after the seed prefix the command.
device_figures() {
  "${@:3}" ./build-perfbench/sealbench --workload="$1" --seconds=1 \
    --seed="$2" | grep -E '^(device_ops_per_s|mwa|space_amp) '
}
for seed in 1 20181016; do
  for workload in ingest range-scan; do
    figures_a="$(device_figures "$workload" "$seed")"
    figures_b="$(device_figures "$workload" "$seed")"
    figures_c="$(device_figures "$workload" "$seed" taskset -c 0)"
    if [ "$(wc -l <<<"$figures_a")" != 3 ] || [ "$figures_a" != "$figures_b" ] \
        || [ "$figures_a" != "$figures_c" ]; then
      echo "check.sh: $workload seed $seed device figures missing or differing across identical runs (second: unpinned, third: taskset -c 0):" >&2
      diff <(echo "$figures_a") <(echo "$figures_b") >&2 || true
      diff <(echo "$figures_a") <(echo "$figures_c") >&2 || true
      exit 1
    fi
  done
done
echo "== examples =="
for example in quickstart web_index smr_inspector ycsb_tour; do
  if ! ./build/examples/"$example" >/dev/null; then
    echo "check.sh: example $example failed" >&2
    exit 1
  fi
done
echo "== paper figures (sealfig all --mb=4) =="
python3 scripts/figures.py --selftest
./build/bench/sealfig all --mb=4 >build/sealfig-4mb.jsonl
python3 scripts/figures.py --check build/sealfig-4mb.jsonl
ctest --test-dir build "${CTEST_ARGS[@]}" "${STRICT_ARGS[@]}" -j "$JOBS"

echo
echo "== served smoke: sealdb_server + sealdb_cli =="
# Arguments are extra sealdb_server flags.
served_smoke() {
  local dir log pid port out status family
  dir="$(mktemp -d)"
  log="$dir/server.log"
  ./build/src/sealdb_server --port 0 "$@" >"$log" 2>&1 &
  pid=$!
  # Any failure below exits the script; never leave the server behind.
  # shellcheck disable=SC2064  # expand now: the locals are gone at exit
  trap "kill $pid 2>/dev/null || true; cat '$log' >&2" EXIT
  # The server prints "serving <system> on <host>:<port> (...)" once bound.
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^sealdb_server: serving .* on [^:]*:\([0-9]*\) .*/\1/p' \
      "$log")"
    if [ -n "$port" ] || ! kill -0 "$pid" 2>/dev/null; then break; fi
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "check.sh: sealdb_server never reported its port" >&2
    return 1
  fi
  local cli=(./build/src/sealdb_cli --port "$port")
  "${cli[@]}" put smoke-key smoke-value
  out="$("${cli[@]}" get smoke-key)"
  if [ "$out" != "smoke-value" ]; then
    echo "check.sh: get returned '$out', want 'smoke-value'" >&2
    return 1
  fi
  out="$("${cli[@]}" metrics)"
  for family in sealdb_device_busy_seconds_total sealdb_server_requests_total; do
    if ! grep -q "^$family" <<<"$out"; then
      echo "check.sh: metrics output lacks $family" >&2
      return 1
    fi
  done
  # Every shard count, one included, reports shard 0's health.
  if ! grep -qx 'sealdb_shard_degraded{shard="0"} 0' <<<"$out"; then
    echo "check.sh: metrics output lacks a healthy shard 0" >&2
    return 1
  fi
  kill -TERM "$pid"
  status=0
  wait "$pid" || status=$?
  if [ "$status" != 0 ]; then
    echo "check.sh: sealdb_server exited $status after SIGTERM" >&2
    return 1
  fi
  if ! grep '^sealdb_server: served [0-9]* requests' "$log"; then
    echo "check.sh: no shutdown summary line from sealdb_server" >&2
    return 1
  fi
  trap - EXIT
  rm -rf "$dir"
}
served_smoke --shards 4
served_smoke

if [ "$CRASH_SWEEP" = 1 ]; then
  echo
  echo "== sharded crash-point sweep + offline doctor =="
  # The sweep itself is a ctest target (ShardedCrashPointTest walks a
  # bounded set of crash points across a 4-shard stack and asserts
  # per-shard acked=>durable, running the doctor over every recovered
  # store); re-running it here keeps the leg honest even when a filter
  # excluded it above.
  ctest --test-dir build --output-on-failure --no-tests=error \
    -R 'crash_point_test'
  # Offline doctor end-to-end, through the shipped binary: clean check
  # over a crash-recovered store (every shard holds set regions and
  # orphans none, so a leaked set region fails it), then prove --repair
  # actually fixes a corrupted checkpoint slot (exit status carries the
  # verdict).
  ./build/src/sealdb_doctor --shards 4
  ./build/src/sealdb_doctor --shards 4 --corrupt-slot --repair
fi

if [ "$BENCH" = 1 ]; then
  echo
  echo "== bench regression gate =="
  python3 scripts/bench_gate.py --selftest
  # Two runs, best-of: the parallel-compaction config has scheduling
  # noise, so a regression only fails when it reproduces in both.
  (cd build && ./bench/bench_smoke --out=BENCH_smoke.json)
  (cd build && ./bench/bench_smoke --out=BENCH_smoke.2.json)
  python3 scripts/bench_gate.py build/BENCH_smoke.json build/BENCH_smoke.2.json
  # Refresh the committed snapshot at the repo root so the numbers people
  # read in review always come from the gated run they are looking at.
  cp build/BENCH_smoke.json BENCH_smoke.json
fi

echo
echo "== thread sanitizer configuration =="
cmake -B build-tsan -S . -DSEALDB_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS"
if [ "$FAST" = 1 ]; then
  ctest --test-dir build-tsan "${CTEST_ARGS[@]}" -L stress --repeat until-fail:3
else
  ctest --test-dir build-tsan "${CTEST_ARGS[@]}" "${STRICT_ARGS[@]}" -j "$JOBS"
  ctest --test-dir build-tsan "${CTEST_ARGS[@]}" -L stress --repeat until-fail:3
fi
# Sharded stress leg: the same stress-labelled tests with the stacks forced
# to 4 shards (tests that honour SEALDB_STRESS_SHARDS, e.g. the sharded-DB
# concurrency tests, widen accordingly), still under TSan — per-shard commit
# queues and the shared-drive mutexes only race when shards > 1.
echo
echo "== thread sanitizer, 4-shard stress leg =="
SEALDB_STRESS_SHARDS=4 \
  ctest --test-dir build-tsan "${CTEST_ARGS[@]}" -L stress --repeat until-fail:2

echo
echo "== address sanitizer configuration =="
cmake -B build-asan -S . -DSEALDB_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS"
if [ "$FAST" = 1 ]; then
  ctest --test-dir build-asan "${CTEST_ARGS[@]}" -L stress
else
  ctest --test-dir build-asan "${CTEST_ARGS[@]}" "${STRICT_ARGS[@]}" -j "$JOBS"
fi

echo
echo "check.sh: all configurations green"
