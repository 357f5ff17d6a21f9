#!/usr/bin/env python3
"""Bench-regression gate for BENCH_smoke.json.

Compares a fresh bench run against a committed baseline in three
currencies and fails when any configuration regresses by more than that
currency's threshold:

 * Device currency — ops per simulated drive-busy second. Deterministic
   enough to gate tightly (--threshold, default 15%).
 * Wall clock — ops per elapsed second across the fill+read cycle. Noisy
   on shared runners, so it gets a laxer bound (--wall-threshold, default
   35%) that still catches a config silently falling off a cliff (e.g.
   the sharded engine losing its concurrency win).
 * Read currency — read-phase ops per read-phase device second
   (--read-threshold, default 15%). Guards the buffer-pool read path: a
   hit-ratio collapse shows up as extra device reads long before it moves
   the combined fill+read figure, since fill traffic dominates that one.

Multiple CURRENT files may be given (best-of-N): each configuration is
judged on its best run in each currency, so a regression only fails the
gate when it reproduces in every run — scheduling noise in the
parallel-compaction config does not.

Usage:
  scripts/bench_gate.py CURRENT.json [MORE.json ...]
                        [--baseline bench/baseline_smoke.json]
                        [--threshold 0.15] [--wall-threshold 0.35]
  scripts/bench_gate.py --selftest

Exit status: 0 = within thresholds, 1 = regression, 2 = usage/IO error.
"""

import argparse
import json
import sys


def sustained_device_ops(config):
    """ops per simulated device-busy second across the fill+read cycle."""
    ops = config["fill"]["ops"] + config["read"]["ops"]
    dev = config["fill"]["device_seconds"] + config["read"]["device_seconds"]
    return ops / dev if dev > 0 else 0.0


def sustained_wall_ops(config):
    """ops per elapsed wall second across the fill+read cycle."""
    ops = config["fill"]["ops"] + config["read"]["ops"]
    wall = (config["fill"].get("wall_seconds", 0.0) +
            config["read"].get("wall_seconds", 0.0))
    return ops / wall if wall > 0 else 0.0


def read_device_ops(config):
    """read-phase ops per read-phase device second (buffer-pool currency)."""
    ops = config["read"]["ops"]
    dev = config["read"].get("device_seconds", 0.0)
    return ops / dev if dev > 0 else 0.0


CURRENCIES = [
    ("device", sustained_device_ops, "sustained device ops/s"),
    ("wall", sustained_wall_ops, "sustained wall ops/s"),
    ("read", read_device_ops, "read-phase device ops/s"),
]


def gate(baseline, currents, threshold, wall_threshold=None,
         read_threshold=None):
    """Returns (ok, report_lines). Compares every config label in the
    baseline against its best showing across the current runs; a label
    missing from every current run is itself a failure (a silently
    dropped configuration must not pass the gate). Each currency is
    judged independently on its own best-of-N."""
    if isinstance(currents, dict):
        currents = [currents]
    if wall_threshold is None:
        wall_threshold = threshold
    if read_threshold is None:
        read_threshold = threshold
    thresholds = {"device": threshold, "wall": wall_threshold,
                  "read": read_threshold}
    base_by_label = {c["label"]: c for c in baseline.get("configs", [])}
    # best[currency][label] -> best sustained value across current runs
    best = {key: {} for key, _, _ in CURRENCIES}
    seen = set()
    for current in currents:
        for c in current.get("configs", []):
            seen.add(c["label"])
            for key, fn, _ in CURRENCIES:
                val = fn(c)
                if val > best[key].get(c["label"], 0.0):
                    best[key][c["label"]] = val
    lines = []
    ok = True
    for label, base_cfg in sorted(base_by_label.items()):
        if label not in seen:
            lines.append(f"FAIL {label}: missing from current run")
            ok = False
            continue
        for key, fn, desc in CURRENCIES:
            base_ops = fn(base_cfg)
            cur_ops = best[key].get(label, 0.0)
            if base_ops <= 0:
                lines.append(f"SKIP {label}: baseline has no {key} time")
                continue
            delta = (cur_ops - base_ops) / base_ops
            bound = thresholds[key]
            verdict = "FAIL" if delta < -bound else "ok  "
            if delta < -bound:
                ok = False
            lines.append(
                f"{verdict} {label}: {desc} "
                f"{cur_ops:.1f} vs baseline {base_ops:.1f} "
                f"({delta:+.1%}, threshold -{bound:.0%})"
            )
    if not base_by_label:
        lines.append("FAIL baseline has no configs")
        ok = False
    return ok, lines


def synthetic(scale, wall_scale=None, read_scale=None):
    """A minimal bench document whose device ops/s is 1000*scale, wall
    ops/s 1000*wall_scale, and read-phase device ops/s 1000*read_scale
    (both default to the device scale). Fill dominates the volume (900 of
    1000 ops) so a read-phase-only change barely moves the combined
    figure — the situation the read currency exists for."""
    if wall_scale is None:
        wall_scale = scale
    if read_scale is None:
        read_scale = scale
    def phase(ops, dev_scale):
        return {"ops": ops, "device_seconds": ops / (1000.0 * dev_scale),
                "wall_seconds": ops / (1000.0 * wall_scale)}
    return {"configs": [{"label": "executor-4w",
                         "fill": phase(900, scale),
                         "read": phase(100, read_scale)}]}


def selftest():
    """The gate itself is load-bearing CI logic, so prove the failure
    modes in both currencies: a synthetic 20% device regression must fail
    at the default 15% threshold, a 10% one must pass, a wall-only
    regression past the wall threshold must fail even with device
    throughput intact, and a missing config must fail."""
    base = synthetic(1.0)
    ok, _ = gate(base, synthetic(0.80), 0.15, 0.35)
    assert not ok, "20% device regression must fail the 15% gate"
    ok, _ = gate(base, synthetic(0.90), 0.15, 0.35)
    assert ok, "10% regression must pass the 15% gate"
    ok, _ = gate(base, synthetic(1.30), 0.15, 0.35)
    assert ok, "improvement must pass"
    ok, _ = gate(base, {"configs": []}, 0.15, 0.35)
    assert not ok, "dropped config must fail"
    ok, _ = gate({"configs": []}, synthetic(1.0), 0.15, 0.35)
    assert not ok, "empty baseline must fail"
    # Wall-clock currency: a 50% wall regression with healthy device
    # throughput must fail the 35% wall gate; a 20% one must pass it.
    ok, _ = gate(base, synthetic(1.0, wall_scale=0.50), 0.15, 0.35)
    assert not ok, "50% wall regression must fail the 35% wall gate"
    ok, _ = gate(base, synthetic(1.0, wall_scale=0.80), 0.15, 0.35)
    assert ok, "20% wall regression must pass the 35% wall gate"
    # A baseline without wall figures (older format) is skipped, not failed.
    no_wall = {"configs": [{"label": "executor-4w",
                            "fill": {"ops": 500, "device_seconds": 0.5},
                            "read": {"ops": 500, "device_seconds": 0.5}}]}
    ok, _ = gate(no_wall, synthetic(1.0), 0.15, 0.35)
    assert ok, "baseline without wall figures must not fail the wall gate"
    # Read currency: a read-phase-only device regression (a hit-ratio
    # collapse) must fail the read gate even though fill traffic keeps the
    # combined device figure inside its threshold.
    ok, _ = gate(base, synthetic(1.0, read_scale=0.50), 0.15, 0.35)
    assert not ok, "50% read-phase regression must fail the read gate"
    ok, _ = gate(base, synthetic(1.0, read_scale=0.90), 0.15, 0.35)
    assert ok, "10% read-phase regression must pass the 15% read gate"
    ok, _ = gate(base, synthetic(1.0, read_scale=0.50), 0.15, 0.35,
                 read_threshold=0.60)
    assert ok, "read regression within --read-threshold must pass"
    # Best-of-N: one noisy bad run must not fail when another run is fine,
    # but a regression present in every run must.
    ok, _ = gate(base, [synthetic(0.80), synthetic(0.98)], 0.15, 0.35)
    assert ok, "regression not reproduced across runs must pass"
    ok, _ = gate(base, [synthetic(0.80), synthetic(0.79)], 0.15, 0.35)
    assert not ok, "regression reproduced in every run must fail"
    # Keys the gate does not judge, such as bench_smoke's host stamp, are
    # ignored on either side.
    stamped = dict(synthetic(1.0), host={"nproc": 4, "compiler": "gcc 12",
                                         "build_type": "Release",
                                         "crc32c": "sse4.2"})
    ok, _ = gate(base, stamped, 0.15, 0.35)
    assert ok, "a host block must not affect the verdict"
    ok, _ = gate(stamped, synthetic(0.80), 0.15, 0.35)
    assert not ok, "a stamped baseline must still gate regressions"
    print("bench_gate selftest: ok")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", nargs="*",
                        help="fresh BENCH_smoke.json (repeat for best-of-N)")
    parser.add_argument("--baseline", default="bench/baseline_smoke.json")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max allowed fractional device-currency "
                             "regression (0.15 = 15%%)")
    parser.add_argument("--wall-threshold", type=float, default=0.35,
                        help="max allowed fractional wall-clock regression "
                             "(laxer: shared runners are noisy)")
    parser.add_argument("--read-threshold", type=float, default=0.15,
                        help="max allowed fractional regression in "
                             "read-phase device ops/s (buffer-pool path)")
    parser.add_argument("--selftest", action="store_true",
                        help="verify the gate fails synthetic regressions "
                             "in both currencies")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()
    if not args.current:
        parser.error("CURRENT.json is required unless --selftest")

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
        currents = []
        for path in args.current:
            with open(path) as f:
                currents.append(json.load(f))
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_gate: {e}", file=sys.stderr)
        return 2

    ok, lines = gate(baseline, currents, args.threshold, args.wall_threshold,
                     args.read_threshold)
    for line in lines:
        print(line)
    if not ok:
        print("bench_gate: regression beyond threshold "
              "(refresh bench/baseline_smoke.json only with a justified "
              "perf change)", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
