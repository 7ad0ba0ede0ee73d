#!/usr/bin/env bash
# Runs a googletest filter many times, several copies at a time, and keeps
# the full log of every failing run.
#
# Usage:
#   tools/stress_gtest.sh <binary> <filter> <runs> <copies>
#
# Each run is one process: `<binary> --gtest_filter=<filter>`.  At most
# <copies> runs are in flight at once.  A run that exits nonzero keeps its
# combined stdout/stderr as <logdir>/run-<n>.log, with its exit status and
# wall time appended; passing runs' logs are deleted.  <logdir> is
# $STRESS_LOG_DIR, or a fresh directory under ${TMPDIR:-/tmp}.
#
# Prints one summary line, `runs=<n> failed=<f> logs=<logdir>`, and exits 1
# when any run failed, 0 otherwise.
#
# Example (the disconnect test, four copies at a time, 300 runs):
#   tools/stress_gtest.sh build/tests/service_tests \
#       Service.DisconnectMidNegotiationLeavesArbitratorClean 300 4
set -u

if [[ $# -ne 4 ]]; then
  echo "usage: $0 <binary> <filter> <runs> <copies>" >&2
  exit 2
fi
binary=$1
filter=$2
runs=$3
copies=$4
if [[ ! -x $binary ]]; then
  echo "$0: $binary is not an executable" >&2
  exit 2
fi
if ! [[ $runs =~ ^[1-9][0-9]*$ && $copies =~ ^[1-9][0-9]*$ ]]; then
  echo "$0: <runs> and <copies> must be positive integers" >&2
  exit 2
fi
if (( copies > 64 )); then
  echo "$0: at most 64 copies at a time" >&2
  exit 2
fi

logdir=${STRESS_LOG_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/stress_gtest.XXXXXX")}
mkdir -p "$logdir"

# One run: log everything, keep the log only on failure.
run_one() {
  local n=$1
  local log="$logdir/run-$n.log"
  local start end status
  start=$(date +%s%N)
  "$binary" --gtest_filter="$filter" > "$log" 2>&1
  status=$?
  end=$(date +%s%N)
  # A filter that matches nothing passes vacuously; count it as a failure.
  if (( status == 0 )) && grep -q '^\[  PASSED  \] 0 tests' "$log"; then
    echo "[stress] the filter matched no test" >> "$log"
    status=3
  fi
  if (( status == 0 )); then
    rm -f "$log"
  else
    printf '\n[stress] run %d exit=%d wall_ms=%d\n' "$n" "$status" \
      $(( (end - start) / 1000000 )) >> "$log"
  fi
  return "$status"
}

failed=0
in_flight=0
for (( n = 1; n <= runs; ++n )); do
  if (( in_flight >= copies )); then
    wait -n || failed=$((failed + 1))
    in_flight=$((in_flight - 1))
  fi
  run_one "$n" &
  in_flight=$((in_flight + 1))
done
while (( in_flight > 0 )); do
  wait -n || failed=$((failed + 1))
  in_flight=$((in_flight - 1))
done

echo "runs=$runs failed=$failed logs=$logdir"
# Name the failing tests and how often each failed.
if (( failed > 0 )); then
  grep -h '^\[  FAILED  \] .* ([0-9]* ms)$' "$logdir"/run-*.log |
    sed -E 's/^\[  FAILED  \] ([^ ,]*).*/\1/' | sort | uniq -c
fi
(( failed == 0 ))
