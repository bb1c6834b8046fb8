#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json
#
# Reads two result files written by run.sh (A is the base, B the
# candidate) and prints, for every workload x end-to-end metric, both
# values, the ratio B/A, and a verdict by the bound BENCHMARK.json
# fixes for the metric (the workloads BENCHMARK.json names first, then
# the informational ones, judged by the same bounds so that a reader
# sees the same three words everywhere; only the named ones decide the
# exit status):
#
#   ok          B is no worse than A by more than the bound
#   worse       B is worse by more than the bound, and the rep-to-rep
#               spread of both sides is within the bound
#   unresolved  B reads worse by more than the bound, but the spread of
#               either side is wider than the bound, so one run per side
#               cannot tell (run more pairs)
#
# Rows the workload has no stage for carry a stand-in (see README) and
# are marked as such; they are compared all the same. Exit status is 1
# when any row of a workload BENCHMARK.json names is `worse`, 0
# otherwise.
set -eu
[ "$#" -eq 2 ] || { echo "usage: compare.sh A.json B.json" >&2; exit 2; }
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
python3 - "$here/../BENCHMARK.json" "$1" "$2" <<'PY'
import json, sys
bench, a, b = (json.load(open(p)) for p in sys.argv[1:4])
worse = 0
print(f"{'workload':16} {'metric':24} {'A (base)':>14} {'B':>14} {'B/A':>8}  verdict")
named = [w["name"] for w in bench["workloads"]]
extra = [n for n in a["workloads"] if n not in named and n in b["workloads"]]
for name in named + extra:
    bounded = name in named
    ra = a["workloads"].get(name)
    rb = b["workloads"].get(name)
    if ra is None or rb is None:
        print(f"{name:16} missing from {'A' if ra is None else 'B'}")
        worse = 1
        continue
    for m in bench["end_to_end"]:
        ma, mb = ra["metrics"].get(m["name"]), rb["metrics"].get(m["name"])
        if ma is None or mb is None:
            print(f"{name:16} {m['name']:24} missing")
            worse = 1
            continue
        va, vb = ma["value"], mb["value"]
        ratio = vb / va
        by = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
        spread = max((x["q3"] - x["q1"]) / x["value"] for x in (ma, mb))
        if by <= m["bound"]:
            verdict = "ok"
        elif spread > m["bound"]:
            verdict = "unresolved"
        else:
            verdict = "worse"
            worse = max(worse, int(bounded))
        note = " (stand-in)" if ma.get("stand_in") else ""
        note += "" if bounded else " (informational)"
        print(f"{name:16} {m['name']:24} {va:14.6g} {vb:14.6g} {ratio:8.3f}  {verdict}{note}")
sys.exit(worse)
PY
