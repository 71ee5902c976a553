"""Spans around the calls into each canids module, recorded from outside.

``Tracer.install`` replaces functions with timing shims at the places
their callers look them up: module attributes such as
``canids.cli.generate_ambient`` (``cli`` imported the name into its own
namespace, so the shim goes there) and methods such as
``GradientBoosting.fit``.  Nothing in the library changes.  Spans (name,
start, end, parent) stay in memory; the worker writes out the set-up's and
the last repetition's when it ends.  ``gc.callbacks`` times the collector.

A span's self time is its duration minus its direct children's
durations.  Every span starts inside exactly one parent or at top level,
because the program is single-threaded.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from collections import Counter
from typing import Any, Callable

import numpy as np

# (module, attribute or Class.method, span name).  The same library function
# may be looked up from several places; each lookup site gets a shim.
SHIMS = (
    ("canids.cli", "cmd_pipeline", "cli.pipeline"),
    ("canids.cli", "generate_ambient", "synth.generate_ambient"),
    ("canids.cli", "run_scenario", "synth.run_scenario"),
    ("canids.cli", "sidecar_metadata", "synth.sidecar_metadata"),
    ("canids.cli", "apply_metadata_labels", "ingest.apply_metadata_labels"),
    ("canids.cli", "serialize_candump", "ingest.serialize_candump"),
    ("canids.cli", "save_labels", "ingest.save_labels"),
    ("canids.cli", "save_metadata", "ingest.save_metadata"),
    ("canids.ingest", "parse_candump_log", "ingest.parse_candump_log"),
    ("canids.ingest", "load_labels", "ingest.load_labels"),
    ("canids.cli", "build_bit_grids", "windows.build_bit_grids"),
    ("canids.cli", "save_bit_grids", "windows.save_bit_grids"),
    ("canids.cli", "build_id_sequences", "windows.build_id_sequences"),
    ("canids.cli", "save_id_sequences", "windows.save_id_sequences"),
    ("canids.cli", "log_to_dataset", "features.log_to_dataset"),
    ("canids.features", "log_to_dataset", "features.log_to_dataset"),
    ("canids.features", "split_train_test", "features.split_train_test"),
    ("canids.cli", "save_dataset_csv", "features.save_dataset_csv"),
    ("canids.detectors", "DecisionTree.fit", "detectors.fit"),
    ("canids.detectors", "RandomForest.fit", "detectors.fit"),
    ("canids.detectors", "GradientBoosting.fit", "detectors.fit"),
    ("canids.detectors", "DecisionTree.predict_scores", "detectors.predict_scores"),
    ("canids.detectors", "RandomForest.predict_scores", "detectors.predict_scores"),
    ("canids.detectors", "GradientBoosting.predict_scores", "detectors.predict_scores"),
    ("canids.cli", "save_model", "detectors.save_model"),
    ("canids.detectors", "save_model", "detectors.save_model"),
    ("canids.detectors", "load_model", "detectors.load_model"),
    ("canids.detectors", "FrequencyDetector.fit", "detectors.frequency"),
    ("canids.detectors", "FrequencyDetector.predict_frames", "detectors.frequency"),
    ("canids.lccde", "LccdeEnsemble.fit", "lccde.fit"),
    ("canids.lccde", "measure_latency", "lccde.measure_latency"),
    ("canids.lccde", "select_leaders", "lccde.select_leaders"),
    ("canids.lccde", "lccde_predict", "lccde.predict"),
    ("canids.cli", "evaluate_pipeline", "evaluate.evaluate_pipeline"),
    ("canids.evaluate", "evaluate_pipeline", "evaluate.evaluate_pipeline"),
    ("canids.cli", "compute_metrics", "evaluate.compute_metrics"),
    ("canids.evaluate", "compute_metrics", "evaluate.compute_metrics"),
    ("canids.cli", "emit_report", "evaluate.emit_report"),
    ("canids.evaluate", "emit_report", "evaluate.emit_report"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SHIMS))

# The LCCDE fit runs only in masq-score's set-up, so these self times are
# taken from set-up spans; every other self time is from the timed region.
SETUP_SPANS = ("lccde.fit", "lccde.measure_latency", "lccde.select_leaders")

COUNTS = ("ingest.frames", "lccde.rows", "lccde.case_unanimous",
          "lccde.case_majority", "lccde.case_split")


class Tracer:
    """Records spans and counts while ``phase`` is "setup" or "run"."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent, phase]
        self.setup_spans: list[list[Any]] | None = None
        self.stack: list[int] = []
        self.phase: str | None = None
        self.counts: Counter[str] = Counter()
        self.lccde_labels: dict[int, list[np.ndarray]] = {}
        self.gc_seconds = 0.0
        self.gc_gen2 = 0
        self._gc_start: float | None = None

    def start_run(self) -> None:
        """Start recording one repetition of the timed region.

        The set-up spans are kept aside the first time; the spans and
        counts of an earlier repetition are dropped.
        """
        if self.setup_spans is None:
            self.setup_spans = [s for s in self.spans if s[4] == "setup"]
        self.spans = []
        self.stack = []
        self.counts.clear()
        self.lccde_labels.clear()
        self.gc_seconds = 0.0
        self.gc_gen2 = 0
        self._gc_start = None
        self.phase = "run"

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "ingest.serialize_candump": self._count_serialized,
            "ingest.parse_candump_log": self._count_parsed,
            "detectors.predict_scores": self._keep_base_labels,
            "lccde.predict": self._count_cases,
        }
        for module, path, name in SHIMS:
            owner = importlib.import_module(module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            setattr(owner, attr, self._shim(name, getattr(owner, attr), hooks.get(name)))
        gc.callbacks.append(self._on_gc)

    def _shim(self, name: str, fn: Callable, on_exit: Callable | None) -> Callable:
        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            if self.phase is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, self.phase])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if on_exit is not None and self.phase == "run":
                on_exit(idx, args, result)
            return result

        return shim

    # -- counters -----------------------------------------------------------

    def _count_serialized(self, idx: int, args: tuple, result: Any) -> None:
        self.counts["ingest.frames"] += len(args[0])

    def _count_parsed(self, idx: int, args: tuple, result: Any) -> None:
        self.counts["ingest.frames"] += len(result)

    def _keep_base_labels(self, idx: int, args: tuple, result: Any) -> None:
        parent = self.spans[idx][3]
        if parent >= 0 and self.spans[parent][0] == "lccde.predict":
            self.lccde_labels.setdefault(parent, []).append(np.asarray(result).argmax(axis=1))

    def _count_cases(self, idx: int, args: tuple, result: Any) -> None:
        """Arbitration cases of every row, from the base models' own labels."""
        labels = self.lccde_labels.pop(idx, [])
        if len(labels) != 3:
            return
        a, b, c = labels
        unanimous = int(np.count_nonzero((a == b) & (b == c)))
        split = int(np.count_nonzero((a != b) & (b != c) & (a != c)))
        self.counts["lccde.rows"] += len(a)
        self.counts["lccde.case_unanimous"] += unanimous
        self.counts["lccde.case_split"] += split
        self.counts["lccde.case_majority"] += len(a) - unanimous - split

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if self.phase != "run":
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- results ------------------------------------------------------------

    @staticmethod
    def self_times(spans: list[list[Any]]) -> Counter[str]:
        """Self time per span name."""
        child_time = [0.0] * len(spans)
        for name, start, end, parent, phase in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Counter[str] = Counter()
        for (name, start, end, parent, phase), inner in zip(spans, child_time):
            totals[name] += (end - start) - inner
        return totals

    def setup_metrics(self) -> dict[str, float]:
        """Self times of the spans that run only in set-up (the LCCDE fit)."""
        own = self.self_times(self.setup_spans or [])
        return {f"{name}_s": own.get(name, 0.0) for name in SETUP_SPANS}

    def metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer figures of one traced repetition whose region took ``run_s``."""
        own = self.self_times(self.spans)
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            if name not in SETUP_SPANS:
                out[f"{name}_s"] = own.get(name, 0.0)
        attributed = sum(own.values())
        out["trace.unattributed_s"] = run_s - attributed
        for name in COUNTS:
            out[name] = self.counts[name]
        out["gc.collect_s"] = self.gc_seconds
        out["gc.gen2"] = self.gc_gen2
        return out

    def dump_spans(self) -> dict[str, list[dict[str, Any]]]:
        """The set-up spans and the last repetition's spans, by phase."""
        return {
            phase: [{"name": name, "start": start, "end": end, "parent": parent}
                    for name, start, end, parent, _ in spans]
            for phase, spans in (("setup", self.setup_spans or []), ("run", self.spans))
        }
