"""Confusion-matrix metrics, timing capture, and report emission.

Every figure comes from the confusion matrix with array operations:
per-class precision is the diagonal over the column sums, recall the
diagonal over the row sums, and F1 their harmonic mean.  A metric whose
denominator is zero is reported as 0 and flagged as undefined rather
than omitted, so never-predicted classes still show up as explicit zero
rows.  Macro averages are the mean over the attack classes, in class
order, unless asked to include Normal.  Single-label scoring pools as
many false positives as false negatives, so micro precision and recall
are the accuracy.  Wall-clock timings live in a separate block so
reports can be compared byte-for-byte across runs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import IO, Any, Sequence

import numpy as np

from .core import NORMAL_LABEL, _class_indices
from .windows import _window_labels, _window_layout

REPORT_SCHEMA_VERSION = 1

# The metrics a class's `undefined` flags can name, in the order they are listed.
_METRICS = ("precision", "recall", "f1")


class Timer:
    """Context manager capturing elapsed wall-clock seconds."""

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        self.seconds = 0.0
        return self

    def __exit__(self, *exc: object) -> None:
        self.seconds = time.perf_counter() - self._start


@dataclass
class ClassMetrics:
    name: str
    precision: float
    recall: float
    f1: float
    support: int
    undefined: tuple[str, ...] = ()

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "class": self.name,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "support": self.support,
            "undefined": list(self.undefined),
        }


@dataclass
class EvalReport:
    classes: tuple[str, ...]
    confusion: np.ndarray
    per_class: list[ClassMetrics]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    macro_classes: tuple[str, ...]
    micro_precision: float
    micro_recall: float
    micro_f1: float
    mode: str = "frame"
    model: dict[str, Any] = field(default_factory=dict)
    dataset: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None
    timings: dict[str, float] = field(default_factory=dict)

    def metrics_for(self, name: str) -> ClassMetrics:
        for m in self.per_class:
            if m.name == name:
                return m
        raise KeyError(name)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "mode": self.mode,
            "model": self.model,
            "dataset": self.dataset,
            "seed": self.seed,
            "classes": list(self.classes),
            "confusion": self.confusion.tolist(),
            "per_class": [m.to_json_obj() for m in self.per_class],
            "accuracy": self.accuracy,
            "macro": {
                "precision": self.macro_precision,
                "recall": self.macro_recall,
                "f1": self.macro_f1,
                "classes": list(self.macro_classes),
            },
            "micro": {
                "precision": self.micro_precision,
                "recall": self.micro_recall,
                "f1": self.micro_f1,
            },
            "timings": dict(self.timings),
        }


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> np.ndarray:
    """Counts indexed [true, predicted]; labels are read by `core._class_indices`."""
    flat = _class_indices(y_true, n_classes) * n_classes + _class_indices(y_pred, n_classes)
    return np.bincount(flat, minlength=n_classes * n_classes).reshape(n_classes, n_classes)


def compute_metrics(
    y_true: Sequence[int] | np.ndarray,
    y_pred: Sequence[int] | np.ndarray,
    classes: Sequence[str],
    include_normal_in_macro: bool = False,
) -> EvalReport:
    """Score predicted class indices against truth.

    A zero-denominator precision, recall or F1 is reported as 0.0 with
    the metric name listed in the class's `undefined` flags.
    """
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("truth and prediction lengths differ")
    if y_true.size == 0:
        raise ValueError("cannot score an empty label vector")
    n_classes = len(classes)
    try:
        cm = confusion_matrix(y_true, y_pred, n_classes)
    except ValueError as exc:
        raise ValueError(f"label index out of range for the class list: {exc}") from None
    tp = np.diag(cm)
    predicted = cm.sum(axis=0)
    support = cm.sum(axis=1)
    precision = np.divide(tp, predicted, out=np.zeros(n_classes), where=predicted > 0)
    recall = np.divide(tp, support, out=np.zeros(n_classes), where=support > 0)
    either = precision + recall
    f1 = np.divide(2 * precision * recall, either, out=np.zeros(n_classes), where=either > 0)
    flags = np.array([predicted == 0, support == 0, either == 0]).T.tolist()
    undefined = map(tuple, map(compress, repeat(_METRICS), flags))
    per_class = list(map(ClassMetrics, classes, precision.tolist(), recall.tolist(), f1.tolist(),
                         support.tolist(), undefined))

    accuracy = float(tp.sum() / len(y_true))
    member = np.array(list(map(NORMAL_LABEL.__ne__, classes))) | bool(include_normal_in_macro)
    if not member.any():
        member[:] = True
    # Micro precision and recall are the accuracy (see the module docstring).
    micro_f1 = 2 * accuracy * accuracy / (accuracy + accuracy) if accuracy else 0.0
    return EvalReport(
        classes=tuple(classes),
        confusion=cm,
        per_class=per_class,
        accuracy=accuracy,
        macro_precision=float(np.mean(precision[member])),
        macro_recall=float(np.mean(recall[member])),
        macro_f1=float(np.mean(f1[member])),
        macro_classes=tuple(compress(classes, member)),
        micro_precision=accuracy,
        micro_recall=accuracy,
        micro_f1=micro_f1,
    )


def window_binary_labels(
    frame_flags: Sequence[bool] | np.ndarray, window: int, step: int
) -> np.ndarray:
    """Aggregate per-frame attack flags into per-window any-attack labels."""
    flags = np.asarray(frame_flags, dtype=bool)
    starts = _window_layout(len(flags), window, step)
    return _window_labels(flags, starts, window).astype(np.int64)


WINDOW_EVAL_CLASSES = (NORMAL_LABEL, "Attack")


def evaluate_pipeline(
    model: Any,
    test: Any,
    window_mode: str = "frame",
    window: int = 29,
    step: int = 29,
) -> EvalReport:
    """Score a fitted model on a tabular test set.

    Frame mode scores every frame against its own class.  Window mode
    collapses truth and predictions to binary any-attack labels over
    sliding windows of the (time-ordered) test set, which mirrors
    per-attack binary scoring setups.
    """
    if window_mode not in ("frame", "window"):
        raise ValueError(f"unknown evaluation mode {window_mode!r}")
    with Timer() as timer:
        pred = model.predict_labels(test.X)
    if window_mode == "frame":
        report = compute_metrics(test.y, pred, test.classes)
    else:
        attack_class = np.array([name != NORMAL_LABEL for name in test.classes])
        truth_flags = attack_class[test.y]
        pred_flags = attack_class[pred]
        w_truth = window_binary_labels(truth_flags, window, step)
        w_pred = window_binary_labels(pred_flags, window, step)
        if w_truth.size == 0:
            raise ValueError("test set shorter than one window")
        report = compute_metrics(w_truth, w_pred, WINDOW_EVAL_CLASSES)
        report.mode = "window"
        report.dataset["window"] = window
        report.dataset["step"] = step
    report.mode = window_mode
    report.timings["predict_seconds"] = timer.seconds
    report.model = dict(getattr(model, "descriptor", lambda: {})() or {})
    return report


def emit_report(report: EvalReport, fmt: str = "json") -> str:
    """Render a report as a JSON document, per-class CSV, or text table."""
    if fmt == "json":
        return json.dumps(report.to_json_obj(), indent=2) + "\n"
    if fmt == "csv":
        model_name = report.model.get("kind", "model")
        lines = ["model,class,precision,recall,f1,support,undefined"]
        for m in report.per_class:
            flags = "|".join(m.undefined)
            lines.append(
                f"{model_name},{m.name},{m.precision:.6f},{m.recall:.6f},"
                f"{m.f1:.6f},{m.support},{flags}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "text_table":
        model_name = report.model.get("kind", "model")
        width = max([len(m.name) for m in report.per_class] + [len("class")])
        header = f"{'class':<{width}}  precision  recall  f1      support"
        rule = "-" * len(header)
        lines = [f"model: {model_name} ({report.mode} mode)", header, rule]
        for m in report.per_class:
            lines.append(
                f"{m.name:<{width}}  {m.precision:9.4f}  {m.recall:6.4f}  "
                f"{m.f1:6.4f}  {m.support:7d}"
            )
        lines.append(rule)
        lines.append(
            f"accuracy {report.accuracy:.4f}  macro-f1 {report.macro_f1:.4f} "
            f"over {len(report.macro_classes)} class(es)"
        )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def write_report(report: EvalReport, stream: IO[str], fmt: str = "json") -> None:
    stream.write(emit_report(report, fmt))
