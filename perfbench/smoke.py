"""Smoke test of the benchmark harness, kept out of the test suite.

    python3 perfbench/smoke.py

Runs every workload at a few hundred frames through ``run.py --workload
all``, untraced and traced, and checks that every output check passed and
that every metric ``BENCHMARK.json`` names is printed with its unit.  Then
checks that the benchmark refuses to run, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = "0.01"  # ~520 frames for dos-pipeline, ~120 for fuzzy-gbdt, ~500 for masq-score


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "3",
           "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(spec: dict, trace: int) -> list[str]:
    proc = run(ROOT, "--trace", str(trace), "--scale", SCALE)
    if proc.returncode != 0:
        return [f"trace {trace}: exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"trace {trace}: {result['failed']}/{result['attempted']} failed\n"
                        f"{proc.stdout}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for workload in spec["workloads"]:
        for metric in wanted:
            key = f"{workload['name']}.{metric['name']}"
            got = result["metrics"].get(key)
            if got is None:
                problems.append(f"trace {trace}: missing {key}")
            elif got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
                problems.append(f"trace {trace}: {key} = {got}")
    expected = {f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in wanted}
    extra = set(result["metrics"]) - expected
    if extra:
        problems.append(f"trace {trace}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = check_metrics(spec, 0) + check_metrics(spec, 1) + check_bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
