#!/usr/bin/env bash
# benchmark/check.sh [--smoke [--trace]]
#
# The checks the repo's own CI does not reach (its `--workspace` stops
# at the root workspace; this directory is a workspace of its own):
# rustfmt, clippy with warnings denied and the harness's unit tests.
# With --smoke, also one rep of every workload (about 10 s in all),
# whose result file must name every workload BENCHMARK.json names (the
# informational ones ride along) and, for each, exactly the end-to-end
# metrics it names; with --trace as well, the same for the traced run
# and the per-layer metrics (about 90 s more — the ladder does not
# shrink with the rep count).
set -eu
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo fmt --manifest-path benchmark/Cargo.toml --check
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
cargo test --offline --release --manifest-path benchmark/Cargo.toml --quiet
[ "${1:-}" = "--smoke" ] || exit 0
modes="0"
[ "${2:-}" = "--trace" ] && modes="0 1"

seed=1
for trace in $modes; do
  # --seconds 0: every phase runs exactly one rep.
  bash benchmark/run.sh --seed "$seed" --seconds 0 --trace "$trace" > /dev/null
  python3 - BENCHMARK.json "benchmark/out/results.seed$seed.trace$trace.json" "$trace" <<'PY'
import json, sys
bench = json.load(open(sys.argv[1]))
result = json.load(open(sys.argv[2]))
key = "per_layer" if sys.argv[3] == "1" else "end_to_end"
want_workloads = [w["name"] for w in bench["workloads"]]
problems = []
for name in sorted(set(want_workloads) - set(result["workloads"])):
    problems.append(f"workload {name} is in BENCHMARK.json but has no result")
want = {m["name"]: m["unit"] for m in bench[key]}
for name, r in result["workloads"].items():
    got = {k: v["unit"] for k, v in r["metrics"].items() if not v["info"]}
    for k in sorted(set(want) - set(got)):
        problems.append(f"{name}: {k} is in BENCHMARK.json but was not reported")
    for k in sorted(set(got) - set(want)):
        problems.append(f"{name}: {k} was reported but is not in BENCHMARK.json")
    for k in sorted(set(got) & set(want)):
        if got[k] != want[k]:
            problems.append(f"{name}: {k} reported in {got[k]}, declared in {want[k]}")
        v = r["metrics"][k]["value"]
        if v is None or (key == "end_to_end" and not v > 0):
            problems.append(f"{name}: {k} = {v}")
    if not r["correct"]:
        problems.append(f"{name}: not correct: {r['failures']}")
for p in problems:
    print("schema:", p, file=sys.stderr)
print(f"schema ({key}): {len(want)} metrics x {len(result['workloads'])} workloads", "ok" if not problems else "MISMATCH")
sys.exit(1 if problems else 0)
PY
done
