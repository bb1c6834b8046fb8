#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace [0|1]]          every workload
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
#
# Builds the benchmark (release, offline) from the sources in this
# checkout, then runs each workload in a process of its own. With
# --workload the last line of standard output is the driver's JSON
# object; without it the workloads BENCHMARK.json names and then the
# informational ones ($informational below: timed and checked like the
# rest, bounded by nothing, see the README) run one after another and
# their detailed results are collected into
# benchmark/out/results.seed<N>.trace<T>.json, the file compare.sh and
# check.sh read.
#
# Exit status is non-zero when the build fails, when any output check
# fails, when the open-loop generator ran late, or when the loopback
# client retransmitted — and then no result is printed for that
# workload. WAL directories live under benchmark/out/scratch and are
# removed on every way out.
set -u
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.." || exit 1

informational="ingest-retain ingest-paced federate"
workload=""
seed=42
trace=0
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json 2>/dev/null | head -n 1)"
seconds="${seconds:-10}"
while [ "$#" -gt 0 ]; do
  case "$1" in
    --workload) workload="${2:?--workload needs a name}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a number}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a number}"; shift 2 ;;
    --trace)
      case "${2:-}" in
        0|1) trace="$2"; shift 2 ;;
        *) trace=1; shift ;;
      esac ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

out="benchmark/out"
target="${CARGO_TARGET_DIR:-benchmark/target}"
export CARGO_TARGET_DIR="$target"
if ! cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2; then
  echo "run.sh: the benchmark did not build" >&2
  exit 1
fi
bin="$target/release/sentinet-benchmark"

child=""
cleanup() {
  if [ -n "$child" ]; then
    kill "$child" 2>/dev/null
    wait "$child" 2>/dev/null
    rm -rf "$out/scratch/sentinet-benchmark-$child"
  fi
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# Runs one workload in its own process; the process id names its
# scratch directory, so a killed run is cleaned up too.
run_one() {
  "$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$trace" &
  child=$!
  wait "$child"
  local status=$?
  rm -rf "$out/scratch/sentinet-benchmark-$child"
  child=""
  return "$status"
}

if [ -n "$workload" ]; then
  run_one "$workload"
  exit $?
fi

failed=0
names="$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json) $informational"
mkdir -p "$out"
for w in $names; do
  # The driver's JSON line is for the driver; people read the table.
  if run_one "$w" > "$out/stdout.$$"; then
    grep -v '^{' "$out/stdout.$$"
  else
    # The binary said which rep and why on standard error.
    echo "run.sh: $w failed; no result reported for it" >&2
    failed=1
  fi
  rm -f "$out/stdout.$$"
done
results="$out/results.seed$seed.trace$trace.json"
python3 - "$out" "$seed" "$trace" "$results" $names <<'PY'
import json, os, sys
out, seed, trace, results, *names = sys.argv[1:]
merged = {"seed": int(seed), "traced": trace == "1", "workloads": {}}
for name in names:
    path = os.path.join(out, f"{name}.seed{seed}.trace{trace}.json")
    if os.path.exists(path):
        with open(path) as f:
            merged["workloads"][name] = json.load(f)
with open(results, "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
print(f"results: {results}")
PY
exit "$failed"
