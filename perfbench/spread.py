#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--workload W]

Runs run.py once per seed and workload (untraced) and prints, for each
end-to-end metric, the median and the distance between the first and third
quartile as a share of the median (statistics.quantiles(values, n=4)), next
to the metric's bound from BENCHMARK.json. A spread above a third of its
bound is flagged: the benchmark should be made steadier before it gates
anything. Raw values go to .bench_build/spread.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   help="repeatable; default: every workload")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    raw = {}
    worst = 0.0
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not last["correct"]:
                print(f"{w} seed {seed}: run failed\n{proc.stderr}")
                return 1
            for name, m in last["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        raw[w] = values
        print(f"\n{w} ({args.seeds} seeds from {args.first_seed})")
        print(f"  {'metric':<18} {'median':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0)
            if name != "setup_s" and bound:
                worst = max(worst, spread / bound)
            flag = "  <- above bound/3" if bound and spread > bound / 3 else ""
            print(f"  {name:<18} {med:>14.6g} {spread:>8.4f} {bound:>6}"
                  f"{flag}")
    out = ROOT / ".bench_build" / "spread.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1) + "\n")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
