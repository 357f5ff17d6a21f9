#!/usr/bin/env python3
"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks, in order:
  1. the percentile rule and the record codec (sealbench --selftest);
  2. the output schema: the last line of an untraced run carries exactly
     correct/attempted/failed/metrics, and the metrics are exactly the
     end-to-end metrics of BENCHMARK.json with their units; a traced run's
     are exactly the per-layer metrics;
  3. an injected wrong value makes the run fail with failed > 0, so it
     raises the error ratio.
Exits 0 when all pass.
"""
import json
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def last_line(args):
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          cwd=run.ROOT, capture_output=True, text=True)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(result, expected, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    names = [m["name"] for m in expected]
    assert sorted(result["metrics"]) == sorted(names), (
        label, sorted(set(names) ^ set(result["metrics"])))
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}, (label, m["name"])
        assert isinstance(got["value"], (int, float)), (label, m["name"])
        assert got["unit"] == m["unit"], (label, m["name"], got["unit"])


def main():
    assert run.build(), "build failed"
    proc = subprocess.run([str(run.BINARY), "--selftest"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    print("percentile rule and record codec: ok")

    rc, result = last_line(["--workload", "point-read", "--seconds", "1"])
    assert rc == 0 and result["correct"] and result["failed"] == 0, result
    check_schema(result, SPEC["end_to_end"], "untraced")
    print("untraced schema: ok")

    rc, result = last_line(["--workload", "ingest", "--seconds", "1",
                            "--trace", "1"])
    assert rc == 0 and result["correct"], result
    check_schema(result, SPEC["per_layer"], "traced")
    print("traced schema: ok")

    rc, result = last_line(["--workload", "point-read", "--seconds", "1",
                            "--inject-wrong", "1000"])
    assert rc != 0 and not result["correct"], result
    assert result["failed"] > 0, result
    ratio = result["failed"] / result["attempted"]
    print(f"injected wrong values: caught, error_ratio {ratio:.6f}")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
