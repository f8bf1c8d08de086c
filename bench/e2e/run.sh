#!/usr/bin/env bash
# Builds bench_e2e from source (a standalone CMake project over the
# repository's concord library) and runs it. Run from the repository
# root.
#
#   bench/e2e/run.sh                      every workload, untraced
#   bench/e2e/run.sh --trace 1            every workload, traced
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; the last stdout line
#                                         is its JSON result
#   bench/e2e/run.sh --self-test          helper unit tests and the
#                                         compare.py self-test
#
# Build output goes to stderr. Every metric prints as "name value unit"
# (prefixed "WORKLOAD." when several workloads run). The exit status is
# non-zero when the build fails or any correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build=build-e2e
jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

workload=""
self_test=0
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --self-test) self_test=1 ;;
    --workload) workload="$2"; shift ;;
    --workload=*) workload="${1#--workload=}" ;;
    *) args+=("$1") ;;
  esac
  shift
done

# Keep compiler and test temporary files inside the build directory.
mkdir -p "$build/tmp"
export TMPDIR="$(cd "$build/tmp" && pwd)"
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$jobs" --target bench_e2e e2e_helpers_test >&2

if [ "$self_test" -eq 1 ]; then
  ctest --test-dir "$build" -R '^e2e_' --output-on-failure
  exit
fi

if [ -n "$workload" ]; then
  exec "$build/bench_e2e" --workload="$workload" --out="$build/out" ${args[@]+"${args[@]}"}
fi

mkdir -p "$build/out"
status=0
for w in commit_uds read_uds cross_uds coop_sim; do
  "$build/bench_e2e" --workload="$w" --out="$build/out" ${args[@]+"${args[@]}"} \
      > "$build/out/$w.txt" || status=1
  grep -v '^{' "$build/out/$w.txt" | sed "s/^/$w./"
done
exit "$status"
