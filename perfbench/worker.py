"""One benchmark worker: set up once, then repeat the timed region.

Usage (``run.py`` starts it; it is not meant to be run by hand):

    python3 perfbench/worker.py WORKLOAD SEED SCALE TRACE WORKDIR T0 DEADLINE

``T0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports and building the
inputs.  After set-up the worker runs the timed region once untimed as a
warm-up, then times it again and again until the next repetition would end
past ``DEADLINE`` (a ``time.monotonic()`` value), with at least one timed
repetition.  Every repetition's outputs are checked.  The result goes to
``WORKDIR/result.json``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback

import workloads


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _bytes_written() -> int:
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _repetition(workload: str, inputs: dict, tracer) -> dict:
    """One timed repetition of the region, with its checks."""
    workloads.reset(workload, inputs)
    gc.collect()
    if tracer is not None:
        tracer.start_run()
    written0 = _bytes_written()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    result = workloads.run(workload, inputs)
    run_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu0
    written = _bytes_written() - written0
    if tracer is not None:
        tracer.phase = None
    rep = {"run_s": run_s, "cpu_s": cpu_s, **workloads.check(workload, inputs, result)}
    if tracer is not None:
        rep["layers"] = {**tracer.metrics(run_s), "io.bytes_written": written,
                         "detectors.tree_nodes": rep["tree_nodes"]}
    return rep


def sample(workload: str, seed: int, scale: float, trace: bool, workdir: str,
           t0: float, deadline: float) -> dict:
    import canids

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    if not os.path.realpath(canids.__file__).startswith(src + os.sep):
        raise RuntimeError(f"canids imported from {canids.__file__}, not from {src}")
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.phase = "setup"
    inputs = workloads.setup(workload, seed, scale, workdir)
    setup_s = time.monotonic() - t0
    if tracer is not None:
        tracer.phase = None
    warmup = workloads.run(workload, inputs)  # untimed: lazy imports, page cache, heap
    checked = workloads.check(workload, inputs, warmup)
    if checked["failures"]:
        raise RuntimeError("warm-up failed its checks: " + "; ".join(checked["failures"]))
    reps: list[dict] = []
    while True:
        rep = _repetition(workload, inputs, tracer)
        if not rep["failures"] and rep["digest"] != checked["digest"]:
            rep["failures"] = [f"report digest {rep['digest']} differs from the "
                               f"warm-up's {checked['digest']} in the same worker"]
        reps.append(rep)
        if time.monotonic() + rep["run_s"] > deadline:
            break
    out = {
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "reps": reps,
    }
    if tracer is not None:
        out["setup_layers"] = tracer.setup_metrics()
        out["spans"] = tracer.dump_spans()
    return out


def main(argv: list[str]) -> int:
    workload, seed, scale, trace, workdir, t0, deadline = argv
    try:
        out = sample(workload, int(seed), float(scale), trace == "1", workdir,
                     float(t0), float(deadline))
    except Exception:  # noqa: BLE001 - a failed worker is reported, not fatal
        out = {"failures": [traceback.format_exc()]}
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
