#!/usr/bin/env python3
"""SEALDB benchmark: build sealbench from this checkout and run workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                      # every workload, seed 1

Run from the root of a checkout. The first run configures and builds
perfbench/ (and the library sources under src/) into .bench_build/; later
runs only rebuild what changed. The binary prints one line per metric; this
script stamps the result with host and source metadata, keeps it under
.bench_build/results/, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced (--trace 0) the metrics are the end-to-end metrics; traced
(--trace 1) the per-layer metrics. The exit code is 0 only when every
check passed. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "perfbench"
RESULTS = BUILD / "results"
BINARY = CMAKE_DIR / "sealbench"
WORKLOADS = ["ingest", "point-read", "range-scan", "served-ycsb-a"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build sealbench; returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"SEALDB sources not found under {ROOT / 'src'}; nothing to build")
        return False
    jobs = str(os.cpu_count() or 1)
    for attempt in range(2):
        steps = []
        if not (CMAKE_DIR / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen])
        steps.append(["cmake", "--build", str(CMAKE_DIR), "--target",
                      "sealbench", "-j", jobs])
        ok = all(subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT).returncode == 0 for cmd in steps)
        if ok and BINARY.is_file():
            return True
        if attempt == 0:  # a stale cache from elsewhere: start clean once
            shutil.rmtree(CMAKE_DIR, ignore_errors=True)
    return False


def source_stamp():
    """Digest of the sources the numbers describe, and the git commit when
    the checkout is a git work tree (read from .git, no git binary)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    stamp = {"source_sha256": h.hexdigest(), "git_sha": "unknown"}
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                stamp["git_sha"] = ref_path.read_text().strip()
        else:
            stamp["git_sha"] = ref
    except OSError:
        pass
    return stamp


def run_one(workload, seed, seconds, trace, inject):
    """Runs one workload; returns its result record (None on a crash)."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    out = RESULTS / f"{stem}.json"
    out.unlink(missing_ok=True)
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--out={out}"]
    if trace:
        cmd.append(f"--spans={RESULTS / (stem + '.spans')}")
    if inject:
        cmd.append(f"--inject-wrong={inject}")
    print(f"== {workload} (seed {seed}, trace {trace})", flush=True)
    try:
        rc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    if not out.is_file():
        log(f"{workload}: exited {rc} without a result")
        return None
    rec = json.loads(out.read_text())
    rec["exit_code"] = rc
    rec.update(source_stamp())
    out.write_text(json.dumps(rec, indent=1) + "\n")
    return rec


def summary(records):
    """The contract's last line. For one workload its metrics; for several,
    each metric is prefixed with its workload."""
    ok = bool(records) and all(r is not None for r in records)
    attempted = sum(r["attempted"] for r in records if r) or 1
    failed = sum(r["failed"] for r in records if r)
    correct = ok and failed == 0 and all(
        r["correct"] and r["exit_code"] == 0 for r in records)
    metrics = {}
    for r in records:
        if r is None:
            continue
        prefix = "" if len(records) == 1 else r["workload"] + "."
        for name, m in r["metrics"].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   help="one of %s, or all" % ", ".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-wrong", type=int, default=0, metavar="K",
                   help="flip a byte of every K-th value read back; the run "
                        "must then fail")
    args = p.parse_args()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        log(f"unknown workload {args.workload}; known: {', '.join(WORKLOADS)}")
        return 2
    if not build():
        log("build failed")
        return 2
    records = [run_one(n, args.seed, args.seconds, args.trace,
                       args.inject_wrong) for n in names]
    result = summary(records)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
