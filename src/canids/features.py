"""Tabular feature extraction, train/test splitting, and SMOTE rebalancing.

Frames become fixed-width numeric vectors: the identifier, optionally the
DLC, and the data field padded to eight single-byte features.  Splits are
stratified by class or chronological by timestamp.  SMOTE raises each
attack class to a fixed target count by interpolating toward same-class
nearest neighbors; the majority (Normal) class is never touched.

`log_to_dataset` stacks the log's id, dlc and data columns.
`save_dataset_csv` writes through the block text encoder in `core`, which
formats each distinct cell text of a block of rows once, so the file is
the one a row-by-row csv.writer would write.
"""

from __future__ import annotations

import csv
import io
import logging
import numbers
from dataclasses import dataclass, replace
from itertools import chain
from typing import IO, Sequence

import numpy as np

from .core import (
    NORMAL_LABEL,
    CanFrame,
    LabeledFrame,
    TrafficLog,
    _csv_rows,
    _data_rows,
    _decimal_cells,
    _each_followed_by,
    _float64_cells,
    _float_cells,
    _int64_table,
    _text_cells,
    _write_rows,
)

logger = logging.getLogger(__name__)

PROVENANCE_ORIGINAL = "original"
PROVENANCE_SYNTHETIC = "synthetic"
_PROVENANCES = (PROVENANCE_ORIGINAL, PROVENANCE_SYNTHETIC)
_RESERVED_COLUMNS = ("label", "provenance", "timestamp_us")

SPLIT_MODES = ("stratified_random", "chronological")


def frame_to_features(frame: CanFrame | LabeledFrame, include_dlc: bool = False) -> np.ndarray:
    """Convert one frame to a numeric vector [id, (dlc,) b0..b7].

    The data field is padded with zeros to eight byte features.  Without
    the DLC feature the mapping cannot distinguish true trailing zero
    bytes from padding; pass include_dlc=True where that matters.
    """
    return _feature_matrix(TrafficLog((frame,)), include_dlc)[0]


def _feature_matrix(log: TrafficLog, include_dlc: bool) -> np.ndarray:
    columns = [log.can_id[:, None]] + ([log.dlc[:, None]] if include_dlc else []) + [log.data]
    return np.hstack(columns, dtype=np.float64)


def feature_names(include_dlc: bool = False) -> tuple[str, ...]:
    names = ["id"]
    if include_dlc:
        names.append("dlc")
    names.extend(f"b{i}" for i in range(8))
    return tuple(names)


@dataclass
class TabularDataset:
    """A feature matrix with integer class labels and provenance flags.

    y holds indices into `classes`.  `synthetic` marks rows produced by
    oversampling; originals carry their frame timestamps when known.
    """

    X: np.ndarray
    y: np.ndarray
    classes: tuple[str, ...]
    timestamps_us: np.ndarray | None = None
    synthetic: np.ndarray | None = None
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("y length must match X rows")
        if len(self.y) and (self.y.min() < 0 or self.y.max() >= len(self.classes)):
            raise ValueError("label index out of range")
        if self.synthetic is None:
            self.synthetic = np.zeros(len(self.y), dtype=bool)
        else:
            self.synthetic = np.asarray(self.synthetic, dtype=bool)
            if self.synthetic.shape != self.y.shape:
                raise ValueError("synthetic mask length must match y")
        if self.timestamps_us is not None:
            self.timestamps_us = np.asarray(self.timestamps_us, dtype=np.int64)
            if self.timestamps_us.shape != self.y.shape:
                raise ValueError("timestamps length must match y")
        if self.names is not None and len(self.names) != self.X.shape[1]:
            raise ValueError("names length must match feature count")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def class_counts(self) -> dict[str, int]:
        counts = np.bincount(self.y, minlength=len(self.classes))
        return {name: int(counts[i]) for i, name in enumerate(self.classes)}

    def subset(self, indices: np.ndarray) -> "TabularDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return TabularDataset(
            X=self.X[indices],
            y=self.y[indices],
            classes=self.classes,
            timestamps_us=None if self.timestamps_us is None else self.timestamps_us[indices],
            synthetic=self.synthetic[indices],
            names=self.names,
        )


def log_to_dataset(log: TrafficLog, include_dlc: bool = False) -> TabularDataset:
    """Vectorize a labeled log into a TabularDataset, preserving order."""
    if not log.is_labeled:
        raise ValueError("log must be labeled")
    return TabularDataset(X=_feature_matrix(log, include_dlc), y=log.label.copy(),
                          classes=tuple(log.label_space.names()),
                          timestamps_us=log.ts_us.copy(), names=feature_names(include_dlc))


@dataclass(frozen=True)
class SplitSpec:
    ratio: float = 0.8
    mode: str = "stratified_random"
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.ratio, bool) or not isinstance(self.ratio, numbers.Real):
            raise ValueError(f"split ratio must be a number in (0, 1), got {self.ratio!r}")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"split ratio must be in (0, 1), got {self.ratio}")
        if self.mode not in SPLIT_MODES:
            raise ValueError(f"unknown split mode {self.mode!r}")


def _stratified_counts(counts: np.ndarray, ratio: float, total_train: int) -> np.ndarray:
    """Per-class train counts: floor allocation plus largest-remainder top-up.

    Classes with a single sample are forced whole into train.
    """
    n_classes = len(counts)
    train_counts = np.zeros(n_classes, dtype=np.int64)
    forced = (counts > 0) & (counts < 2)
    for c in np.flatnonzero(forced):
        logger.warning(
            "class index %d has %d sample(s); kept whole in the training split", c, counts[c]
        )
    train_counts[forced] = counts[forced]
    budget = total_train - int(train_counts.sum())
    open_classes = np.flatnonzero((counts >= 2))
    ideal = counts[open_classes] * ratio
    base = np.floor(ideal).astype(np.int64)
    train_counts[open_classes] = base
    leftover = budget - int(base.sum())
    if leftover > 0:
        remainder = ideal - base
        order = np.lexsort((open_classes, -remainder))
        for pos in order:
            if leftover == 0:
                break
            c = open_classes[pos]
            if train_counts[c] < counts[c]:
                train_counts[c] += 1
                leftover -= 1
    elif leftover < 0:
        remainder = ideal - base
        order = np.lexsort((-open_classes, remainder))
        for pos in order:
            if leftover == 0:
                break
            c = open_classes[pos]
            if train_counts[c] > 0:
                train_counts[c] -= 1
                leftover += 1
    return train_counts


def split_train_test(data: TabularDataset, spec: SplitSpec) -> tuple[TabularDataset, TabularDataset]:
    """Split into train/test with |train| = round(ratio * N).

    Stratified mode draws per class with an independent substream per
    class index, so the assignment of one class never depends on
    another.  Chronological mode cuts the time-sorted order.
    """
    n = len(data)
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    total_train = int(round(spec.ratio * n))
    total_train = min(max(total_train, 1), n - 1)
    if spec.mode == "chronological":
        if data.timestamps_us is None:
            raise ValueError("chronological split requires timestamps")
        order = np.argsort(data.timestamps_us, kind="stable")
        train_idx = order[:total_train]
        test_idx = order[total_train:]
        return data.subset(train_idx), data.subset(test_idx)

    counts = np.bincount(data.y, minlength=len(data.classes))
    train_counts = _stratified_counts(counts, spec.ratio, total_train)
    train_parts = []
    test_parts = []
    for c in range(len(data.classes)):
        members = np.flatnonzero(data.y == c)
        if len(members) == 0:
            continue
        rng = np.random.default_rng([spec.seed, c])
        perm = rng.permutation(len(members))
        k = int(train_counts[c])
        train_parts.append(members[perm[:k]])
        test_parts.append(members[perm[k:]])
    train_idx = np.sort(np.concatenate(train_parts)) if train_parts else np.empty(0, np.int64)
    test_idx = np.sort(np.concatenate(test_parts)) if test_parts else np.empty(0, np.int64)
    return data.subset(train_idx), data.subset(test_idx)


def _knn_indices(points: np.ndarray, k: int, chunk: int = 512) -> np.ndarray:
    """Indices of the k nearest same-set neighbors (Euclidean, self excluded).

    Neighbor lists are ordered by (distance, index) so the result is
    fully specified even under distance ties.
    """
    n = len(points)
    sq = np.einsum("ij,ij->i", points, points)
    out = np.zeros((n, k), dtype=np.int64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = points[start:stop]
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (block @ points.T)
        np.maximum(d2, 0.0, out=d2)
        rows = np.arange(start, stop)
        d2[np.arange(stop - start), rows] = np.inf
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        part_d = np.take_along_axis(d2, part, axis=1)
        order = np.lexsort((part, part_d), axis=1)
        out[start:stop] = np.take_along_axis(part, order, axis=1)
    return out


def smote_oversample(
    train: TabularDataset,
    target_count: int = 100_000,
    k: int = 5,
    seed: int = 0,
) -> TabularDataset:
    """Raise every attack class below target_count to exactly that count.

    Synthetic rows are x + u * (nn - x) with u uniform on [0, 1] and nn
    one of the k nearest same-class neighbors of x.  Parents cycle
    through the class so every original seeds its share.  The Normal
    class and any class already at or above the target are untouched.
    A single-sample class falls back to duplication with a warning.
    """
    if target_count < 1:
        raise ValueError("target_count must be positive")
    if k < 1:
        raise ValueError("k must be positive")
    new_X = [train.X]
    new_y = [train.y]
    new_synth = [train.synthetic]
    for c, name in enumerate(train.classes):
        if name == NORMAL_LABEL:
            continue
        members = np.flatnonzero(train.y == c)
        count = len(members)
        if count == 0 or count >= target_count:
            continue
        missing = target_count - count
        Xc = train.X[members]
        if count == 1:
            logger.warning(
                "class %r has a single sample; duplicating it %d times", name, missing
            )
            synth = np.tile(Xc[0], (missing, 1))
        else:
            k_eff = min(k, count - 1)
            neighbors = _knn_indices(Xc, k_eff)
            rng = np.random.default_rng([seed, c])
            parents = np.arange(missing, dtype=np.int64) % count
            picks = rng.integers(0, k_eff, size=missing)
            u = rng.random(missing)
            base = Xc[parents]
            nn = Xc[neighbors[parents, picks]]
            synth = base + u[:, None] * (nn - base)
        new_X.append(synth)
        new_y.append(np.full(missing, c, dtype=np.int64))
        new_synth.append(np.ones(missing, dtype=bool))
    if len(new_X) == 1:
        return replace(train)
    return TabularDataset(
        X=np.vstack(new_X),
        y=np.concatenate(new_y),
        classes=train.classes,
        timestamps_us=None,
        synthetic=np.concatenate(new_synth),
        names=train.names,
    )


def save_dataset_csv(data: TabularDataset, stream: IO[str]) -> None:
    """Write the dataset as CSV with a header and a provenance column.

    The text is that of csv.writer over rows of repr(float) features, the
    class name, the provenance and str(int) timestamps.  Each block of rows
    formats every distinct cell once: whole features below 2**53 in a short
    range as the decimal range plus ".0", other features as the repr of
    each distinct bit pattern, class names as csv.writer quotes them."""
    names = data.names or tuple(f"f{i}" for i in range(data.n_features))
    if set(names) & set(_RESERVED_COLUMNS):
        raise ValueError(f"feature names may not be any of {_RESERVED_COLUMNS}: {names}")
    header = list(names) + ["label", "provenance"]
    has_ts = data.timestamps_us is not None
    if has_ts:
        header.append("timestamp_us")
    csv.writer(stream, lineterminator="\n").writerow(header)
    classes = [_csv_cell(name) for name in data.classes]

    def encode_block(lo: int, hi: int) -> list:
        pieces = [_each_followed_by(_float_cells(data.X[lo:hi]), b","),
                  _text_cells(classes, data.y[lo:hi]), b",",
                  _text_cells(_PROVENANCES, data.synthetic[lo:hi].astype(np.intp))]
        if has_ts:
            pieces += [b",", _decimal_cells(data.timestamps_us[lo:hi])]
        return pieces + [b"\n"]

    _write_rows(stream, len(data), encode_block)


def _csv_cell(text: str) -> str:
    """The text csv.writer writes for one field of a multi-field row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def load_dataset_csv(stream: IO[str], classes: Sequence[str] | None = None) -> TabularDataset:
    """Read a dataset written by save_dataset_csv.

    When `classes` is omitted the class list is rebuilt in order of
    first appearance, so pass the original list to keep indices stable
    across related files.  Features are float cells and timestamps integer
    cells (`core`), provenance `original` or `synthetic`.  Any other cell,
    or a NaN feature, raises ValueError naming its data row and column, as
    does a header that names a reserved column twice.
    """
    reader = _csv_rows(stream)
    header = next(reader, [])
    for name in _RESERVED_COLUMNS:
        if header.count(name) > 1:
            raise ValueError(f"dataset header names {name!r} {header.count(name)} times")
    if "label" not in header:
        raise ValueError("dataset file lacks a label column")
    label_col = header.index("label")
    names = tuple(header[:label_col])
    table = [row for _, row in _data_rows(reader, len(header))]
    cells = list(chain.from_iterable(row[:label_col] for row in table))
    X = _float64_cells(cells)
    if X is None:
        k = next(k for k, cell in enumerate(cells) if _float64_cells([cell]) is None)
        raise ValueError(f"data row {k // label_col + 1}: feature {names[k % label_col]!r} "
                         f"is not a number: {cells[k]!r}")
    X = X.reshape(len(table), label_col)
    nan_rows, nan_cols = np.nonzero(np.isnan(X))
    if len(nan_rows):
        raise ValueError(f"data row {nan_rows[0] + 1}: feature {names[nan_cols[0]]!r} is NaN")
    labels = [row[label_col] for row in table]
    class_list = tuple(dict.fromkeys(labels) if classes is None else classes)
    index = {name: i for i, name in enumerate(class_list)}
    try:
        y = np.array(list(map(index.__getitem__, labels)), dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"data row {labels.index(exc.args[0]) + 1}: label {exc.args[0]!r} "
                         "not in provided class list") from None
    synth = None
    if "provenance" in header:
        col = header.index("provenance")
        provenance = [row[col] for row in table]
        if not set(provenance) <= set(_PROVENANCES):
            k = next(k for k, p in enumerate(provenance) if p not in _PROVENANCES)
            raise ValueError(f"data row {k + 1}: provenance {provenance[k]!r} not in {_PROVENANCES}")
        synth = np.array(list(map(PROVENANCE_SYNTHETIC.__eq__, provenance)), dtype=bool)
    ts_col = header.index("timestamp_us") if "timestamp_us" in header else None
    timestamps = (None if ts_col is None
                  else _int64_table([row[ts_col] for row in table], ["timestamp_us"])[:, 0])
    return TabularDataset(
        X=X,
        y=y,
        classes=class_list,
        timestamps_us=timestamps,
        synthetic=synth,
        names=names,
    )
