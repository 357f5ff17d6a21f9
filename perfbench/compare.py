#!/usr/bin/env python3
"""Compare two benchmark results of one workload.

    python3 perfbench/compare.py BASE.json NEW.json

BASE and NEW are result files run.py keeps under .bench_build/results/.
When the two were measured on different hosts or builds (nproc, compiler,
build type) the comparison is flagged and not judged: exit code 3. Else
each end-to-end metric is shown with its change; one that got worse by more
than its BENCHMARK.json bound is marked, and the exit code is 1. A single
pair of runs shows a change, not a gain; claims follow README.md.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("host.nproc", "host.compiler", "host.build_type")


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mismatched = [k for k in HOST_KEYS if base.get(k) != new.get(k)]
    if mismatched:
        for k in mismatched:
            print(f"host mismatch: {k}: {base.get(k)} vs {new.get(k)}")
        print("not judged: results from different hosts or builds")
        return 3
    if base.get("workload") != new.get("workload"):
        print("not judged: different workloads")
        return 3
    worse = 0
    for m in spec["end_to_end"]:
        name = m["name"]
        if name not in base["metrics"] or name not in new["metrics"]:
            continue
        a = base["metrics"][name]["value"]
        b = new["metrics"][name]["value"]
        change = (b - a) / a if a else 0.0
        regress = change > m["bound"] if m["better"] == "lower" \
            else -change > m["bound"]
        worse += regress
        print(f"{name:<18} {a:>14.6g} {b:>14.6g} {change:>+8.2%}"
              f"  bound {m['bound']:.0%}{'  WORSE' if regress else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
