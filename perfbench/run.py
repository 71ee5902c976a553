"""canids benchmark: seeded workloads in fresh workers, checked and measured.

    python3 perfbench/run.py --workload dos-pipeline --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 90

A run starts three fresh worker processes per workload (``worker.py``), one
at a time, and gives each an equal share of ``--seconds``.  A worker sets
up the workload's inputs once, runs the timed region once as an untimed
warm-up, then repeats it until its share is spent.  ``run_s``,
``frames_per_s``, ``cpu_s`` and ``macro_f1`` are medians over every
repetition of the run; ``setup_s`` and ``peak_rss_mb`` are medians over its
workers.  ``--workload all`` interleaves the workloads, rotating their order
every round, so a slow phase of the host is spread across them.
``--trace 1`` alternates untraced and traced workers (two of each) and
reports the per-layer figures instead of the end-to-end ones.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Before every worker the parent times a fixed pure-Python loop
(``host.ref_s``); dividing ``run_s`` by it separates host drift from a
regression.  Scratch files live under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from tracer import COUNTS, SETUP_SPANS, SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("frames_per_s", "frames/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("macro_f1", "1"),
)

PER_LAYER = (
    *((f"{name}_s", "s") for name in SPAN_NAMES),
    *((name, "count") for name in COUNTS),
    ("detectors.tree_nodes", "count"),
    ("lccde.distinct_leader_maps", "count"),
    ("gc.collect_s", "s"),
    ("gc.gen2", "count"),
    ("io.bytes_written", "bytes"),
    ("host.ref_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
)

# Per-layer times that are not part of the timed region.
NOT_SHARES = {f"{name}_s" for name in SETUP_SPANS} | {"host.ref_s", "trace.overhead_s"}

REF_LOOP_N = 1_000_000
REF_LOOP_REPEATS = 3
RUN_LIMIT_S = 160.0  # a run must end within 180 s; workers past this are stopped
WORKER_TIMEOUT_S = 150.0
WORKERS = 3  # untraced workers per workload in a run: medians of set-up and memory
TRACED_PAIRS = 2  # untraced/traced worker pairs per workload in a traced run


def reference_loop() -> float:
    """Median seconds of a fixed pure-Python loop: the host's current speed."""
    times = []
    for _ in range(REF_LOOP_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(REF_LOOP_N):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def one_worker(workload: str, seed: int, scale: float, traced: bool, tag: str,
               deadline: float, timeout: float) -> dict:
    workdir = WORK / "work" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ref_s = reference_loop()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one worker, no extra threads
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(scale),
           "1" if traced else "0", str(workdir), repr(t0), repr(deadline)]
    stderr = ""
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
        stderr = proc.stderr
        with open(workdir / "result.json") as fh:
            out = json.load(fh)
        if proc.returncode != 0:
            out.setdefault("failures", []).append(f"worker exit code {proc.returncode}")
    except subprocess.TimeoutExpired:
        out = {"failures": [f"worker timed out after {timeout:.0f} s"]}
    except (OSError, ValueError) as exc:
        out = {"failures": [f"worker left no result ({exc}): {stderr[-2000:]}"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.setdefault("reps", [])
    out.update(workload=workload, traced=traced, ref_s=ref_s, wall_s=time.monotonic() - t0)
    return out


def plan(names: list[str], trace: bool) -> list[tuple[str, bool]]:
    """The run's workers in order: rounds of every workload, rotated each round."""
    rounds, modes = (TRACED_PAIRS, (False, True)) if trace else (WORKERS, (False,))
    slots = []
    for r in range(rounds):
        shift = r % len(names)
        slots += [(w, traced) for w in names[shift:] + names[:shift] for traced in modes]
    return slots


def measure(names: list[str], seed: int, seconds: float, trace: bool, scale: float) -> list[dict]:
    """Run the planned workers, each given an equal share of ``seconds``."""
    slots = plan(names, trace)
    share = seconds / len(slots)
    workers: list[dict] = []
    start = time.monotonic()
    for i, (workload, traced) in enumerate(slots):
        elapsed = time.monotonic() - start
        timeout = max(10.0, min(WORKER_TIMEOUT_S, RUN_LIMIT_S - elapsed))
        tag = f"{workload}-{seed}-{os.getpid()}-{i}"
        w = one_worker(workload, seed, scale, traced, tag, start + (i + 1) * share, timeout)
        workers.append(w)
        times = [r["run_s"] for r in w["reps"]]
        spread = f"{min(times):.3f}-{max(times):.3f}" if times else "-"
        print(f"  {workload:<13} {'traced' if traced else 'plain ':<6} reps={len(times):<3} "
              f"run_s={_median(times) if times else float('nan'):7.3f} ({spread}) "
              f"setup_s={w.get('setup_s', float('nan')):6.3f} ref_s={w['ref_s']:.4f} "
              f"{'FAILED' if _failures(w) else 'ok'}", flush=True)
    return workers


def _failures(worker: dict) -> list[str]:
    return worker.get("failures", []) + [f for r in worker["reps"] for f in r["failures"]]


def judge(workers: list[dict]) -> None:
    """Mark repetitions whose report differs from the first good one of the run."""
    first: dict[str, str] = {}
    for w in workers:
        for rep in w["reps"]:
            if rep["failures"]:
                continue
            ref = first.setdefault(w["workload"], rep["digest"])
            if rep["digest"] != ref:
                rep["failures"] = [f"report digest {rep['digest']} differs from the "
                                   f"run's first {ref}"]


def tally(workers: list[dict]) -> tuple[int, int]:
    """(attempted, failed) operations: every warm-up and repetition of the region.

    A worker that raised, timed out or left no result counts as one failed
    operation; its repetitions are not reported.
    """
    attempted = failed = 0
    for w in workers:
        if w.get("failures"):
            attempted += 1
            failed += 1
        else:
            attempted += 1 + len(w["reps"])
            failed += sum(1 for r in w["reps"] if r["failures"])
    return attempted, failed


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def summarize(workload: str, workers: list[dict], trace: bool) -> dict[str, dict]:
    """Median metrics of one workload's good repetitions, as {name: {value, unit}}."""
    mine = [w for w in workers if w["workload"] == workload and not w.get("failures")]
    plain = [w for w in mine if not w["traced"]]
    plain_reps = [r for w in plain for r in w["reps"] if not r["failures"]]
    if not plain_reps:
        raise RuntimeError(f"{workload}: no repetition passed its checks")
    if not trace:
        values = {
            "setup_s": _median([w["setup_s"] for w in plain]),
            "run_s": _median([r["run_s"] for r in plain_reps]),
            "frames_per_s": _median([r["frames"] / r["run_s"] for r in plain_reps]),
            "cpu_s": _median([r["cpu_s"] for r in plain_reps]),
            "peak_rss_mb": _median([w["peak_rss_mb"] for w in plain]),
            "macro_f1": _median([r["macro_f1"] for r in plain_reps]),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    traced = [w for w in mine if w["traced"]]
    traced_reps = [r for w in traced for r in w["reps"] if not r["failures"]]
    if not traced_reps:
        raise RuntimeError(f"{workload}: no traced repetition passed its checks")
    values = {name: _median([r["layers"][name] for r in traced_reps])
              for name in traced_reps[0]["layers"]}
    for name in traced[0]["setup_layers"]:
        values[name] = _median([w["setup_layers"][name] for w in traced])
    leader_maps = {tuple(r["leaders"]) for w in mine for r in w["reps"][:1]
                   if r.get("leaders") is not None}
    values["lccde.distinct_leader_maps"] = len(leader_maps)
    values["host.ref_s"] = _median([w["ref_s"] for w in workers if w["workload"] == workload])
    values["trace.overhead_s"] = (_median([r["run_s"] for r in traced_reps])
                                  - _median([r["run_s"] for r in plain_reps]))
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def print_table(workload: str, workers: list[dict], metrics: dict[str, dict]) -> None:
    mine = [w for w in workers if w["workload"] == workload]
    attempted, failed = tally(mine)
    print(f"{workload}: {attempted - failed}/{attempted} operations passed their checks "
          f"({len(mine)} workers)")
    for w in mine:
        for failure in _failures(w):
            print(f"  failure: {failure.strip()}")
    plain = [r["run_s"] / w["ref_s"] for w in mine if not w["traced"]
             for r in w["reps"] if not r["failures"]]
    if plain:
        print(f"  {'run_s / host.ref_s':<34} {_median(plain):14.2f}  (diagnostic)")
    leaders = {tuple(r["leaders"]) for w in mine for r in w["reps"][:1]
               if r.get("leaders") is not None}
    if leaders:
        print(f"  {'lccde leader maps seen':<34} {sorted(leaders)}")
    traced = [r["run_s"] for w in mine if w["traced"] for r in w["reps"] if not r["failures"]]
    region = _median(traced) if traced else None
    if region:
        print(f"  {'traced run_s':<34} {region:14.6g} s  (shares below are of this)")
    for name, m in metrics.items():
        share = ""
        if region and name.endswith("_s") and name not in NOT_SHARES:
            share = f"  {100 * m['value'] / region:5.1f}%"
        print(f"  {name:<34} {m['value']:14.6g} {m['unit']}{share}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier; below 1 only for smoke tests")
    args = parser.parse_args(argv)
    if not (SRC / "canids" / "__init__.py").is_file():
        print(f"benchmark: no canids sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workers = measure(names, args.seed, args.seconds, bool(args.trace), args.scale)
    judge(workers)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(WORK / "results" / f"{label}.json", "w") as fh:
        json.dump(workers, fh)
    try:
        summaries = {w: summarize(w, workers, bool(args.trace)) for w in names}
    except RuntimeError as exc:
        for w in names:
            print_table(w, workers, {})
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    for w in names:
        print_table(w, workers, summaries[w])
    if len(names) == 1:
        metrics = summaries[names[0]]
    else:
        metrics = {f"{w}.{name}": m for w in names for name, m in summaries[w].items()}
    attempted, failed = tally(workers)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
