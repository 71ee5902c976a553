"""Sliding-window builders over labeled traffic.

Two window shapes are produced: w x 29 binary grids of stacked
identifier bits, and plain identifier sequences.  Windows are taken from
a sliding-window view of the log's columns, with no index matrix; the id
sequences' `ids` is that view itself, read-only, so a dense stride holds
the log's ids once rather than once per window.  A window is labeled 1
if any frame inside it carries an attack label, 0 otherwise.  The grid
builder supports both the coarse stride (step = window, no overlap) and
the dense stride (step 1), which guarantees that any attack run no
longer than the window is fully contained in at least one window.

Grids are saved packed with one np.packbits call over all of them.  Id
sequences are saved as CSV through the block text encoder in `core`: when
a block's ids, starts or labels span a range shorter than their count,
each value of the range is formatted once and the cells are gathered
from those texts.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from typing import IO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    EXTENDED_ID_BITS,
    TrafficLog,
    _csv_rows,
    _data_rows,
    _decimal_cells,
    _each_followed_by,
    _int64_table,
    _read_field,
    _write_rows,
    id_bits_matrix,
)

logger = logging.getLogger(__name__)

DEFAULT_GRID_WINDOW = 29
DEFAULT_SEQUENCE_WINDOW = 16

_GRID_MAGIC = b"IDBG"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class BitGridSet:
    """Stacked id-bit windows: grids[g, i, j] is bit j of the id of the
    i-th frame in window g."""

    grids: np.ndarray
    labels: np.ndarray
    starts: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.grids.ndim != 3 or self.grids.shape[2] != EXTENDED_ID_BITS:
            raise ValueError("grids must have shape (count, window, 29)")
        if self.labels.shape != (self.grids.shape[0],):
            raise ValueError("labels length must match grid count")
        if self.starts is not None and self.starts.shape != self.labels.shape:
            raise ValueError("starts length must match grid count")

    def __len__(self) -> int:
        return self.grids.shape[0]

    @property
    def window(self) -> int:
        return self.grids.shape[1]


@dataclass(frozen=True)
class IdSequenceSet:
    """Windows of raw identifiers with binary any-attack labels."""

    ids: np.ndarray
    labels: np.ndarray
    starts: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.ids.ndim != 2:
            raise ValueError("ids must have shape (count, window)")
        if self.labels.shape != (self.ids.shape[0],):
            raise ValueError("labels length must match sequence count")
        if self.starts is not None and self.starts.shape != self.labels.shape:
            raise ValueError("starts length must match sequence count")

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def window(self) -> int:
        return self.ids.shape[1]


def _window_layout(n: int, window: int, step: int) -> np.ndarray:
    window = _read_field("windows", "window", window, "integer from 1")
    step = _read_field("windows", "step", step, "integer from 1")
    if n < window:
        return np.empty(0, dtype=np.int64)
    return np.arange(0, n - window + 1, step, dtype=np.int64)


def window_count(n: int, window: int, step: int) -> int:
    """Number of full windows over n frames: floor((n - window)/step) + 1,
    or zero when n < window."""
    return len(_window_layout(n, window, step))


def _window_labels(attack: np.ndarray, starts: np.ndarray, window: int) -> np.ndarray:
    cum = np.concatenate([[0], np.cumsum(attack)])
    return (cum[starts + window] - cum[starts] > 0).astype(np.uint8)


def _windows(log: TrafficLog, window: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    """The any-attack label and the start row of each full window of a
    labeled log."""
    attack = log.attack_flags()
    starts = _window_layout(len(log), window, step)
    if len(starts) == 0 and len(log):
        logger.warning("log of %d frames is shorter than window %d", len(log), window)
    return _window_labels(attack, starts, window), starts


def _window_view(values: np.ndarray, window: int, step: int) -> np.ndarray:
    """values[s:s + window] for each window start s of `_window_layout`, as
    one read-only view of shape (count, window, *values.shape[1:])."""
    if len(values) < window:
        view = np.empty((0, window) + values.shape[1:], dtype=values.dtype)
        view.flags.writeable = False
        return view
    # sliding_window_view puts the window axis last.
    return np.moveaxis(sliding_window_view(values, window, axis=0)[::step], -1, 1)


def build_bit_grids(
    log: TrafficLog, window: int = DEFAULT_GRID_WINDOW, step: int = DEFAULT_GRID_WINDOW
) -> BitGridSet:
    """Stack consecutive frame ids into w x 29 bit grids over the
    time-ordered log.  Trailing frames that do not fill a window are
    dropped."""
    labels, starts = _windows(log, window, step)
    grids = _window_view(id_bits_matrix(log.can_id), window, step).copy()
    return BitGridSet(grids=grids, labels=labels, starts=starts)


def build_id_sequences(
    log: TrafficLog, window: int = DEFAULT_SEQUENCE_WINDOW, step: int = 1
) -> IdSequenceSet:
    """Group consecutive identifiers into fixed-length sequences.  `ids` is
    a read-only view of one int64 copy of the log's ids, so overlapping
    windows share their memory."""
    labels, starts = _windows(log, window, step)
    ids = _window_view(log.can_id.astype(np.int64), window, step)
    return IdSequenceSet(ids=ids, labels=labels, starts=starts)


def save_bit_grids(grids: BitGridSet, grid_stream: IO[bytes], label_stream: IO[bytes]) -> None:
    """Persist grids as packed bitmaps plus a label vector file.

    Grid file layout: 4-byte magic, u32 version, u32 count, u32 window,
    then ceil(window*29/8) bytes per grid, rows packed MSB-first.
    Label file layout: u32 count, then one byte per grid.
    """
    count, window = len(grids), grids.window
    header = np.array([_FORMAT_VERSION, count, window], dtype="<u4")
    grid_stream.write(_GRID_MAGIC)
    grid_stream.write(header.tobytes())
    flat = grids.grids.reshape(count, window * EXTENDED_ID_BITS)
    grid_stream.write(np.packbits(flat, axis=1).tobytes())
    label_stream.write(np.array([count], dtype="<u4").tobytes())
    label_stream.write(grids.labels.astype(np.uint8).tobytes())


def load_bit_grids(grid_stream: IO[bytes], label_stream: IO[bytes]) -> BitGridSet:
    """Read grids written by save_bit_grids.  Window start offsets are
    not part of the on-disk format."""
    magic = grid_stream.read(4)
    if magic != _GRID_MAGIC:
        raise ValueError("not a packed bit-grid file")
    version, count, window = np.frombuffer(grid_stream.read(12), dtype="<u4").tolist()
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported bit-grid format version {version}")
    # Sizes come from the header, so the rest of each file is read and
    # measured rather than read by a size that may not fit in memory.
    per_grid = (window * EXTENDED_ID_BITS + 7) // 8
    raw = grid_stream.read()[:per_grid * count]
    if len(raw) != per_grid * count:
        raise ValueError("truncated bit-grid file")
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(count, per_grid)
    bits = np.unpackbits(packed, axis=1)[:, : window * EXTENDED_ID_BITS]
    grids = bits.reshape(count, window, EXTENDED_ID_BITS)
    (label_count,) = np.frombuffer(label_stream.read(4), dtype="<u4").tolist()
    if label_count != count:
        raise ValueError("label file count does not match grid file")
    labels = np.frombuffer(label_stream.read()[:count], dtype=np.uint8)
    if len(labels) != count:
        raise ValueError("truncated label file")
    return BitGridSet(grids=grids, labels=labels.copy(), starts=None)


def save_id_sequences(seqs: IdSequenceSet, stream: IO[str]) -> None:
    """Persist sequences as CSV: start, id0..id{w-1}, label.

    Windows without start offsets are written with start -1."""
    header = ["start"] + [f"id{i}" for i in range(seqs.window)] + ["label"]
    stream.write(",".join(header) + "\n")
    starts = seqs.starts if seqs.starts is not None else np.full(len(seqs), -1, dtype=np.int64)

    def encode_block(lo: int, hi: int) -> list:
        return [_decimal_cells(starts[lo:hi]), b",",
                _each_followed_by(_decimal_cells(seqs.ids[lo:hi]), b","),
                _decimal_cells(seqs.labels[lo:hi]), b"\n"]

    _write_rows(stream, len(seqs), encode_block)


def load_id_sequences(stream: IO[str]) -> IdSequenceSet:
    """Read sequences written by save_id_sequences: cells are signed integer
    cells (`core`), and labels 0..255."""
    header = stream.readline().strip().split(",")
    if len(header) < 3 or header[0] != "start" or header[-1] != "label":
        raise ValueError("not an id-sequence file")
    cells = chain.from_iterable(row for _, row in _data_rows(_csv_rows(stream), len(header)))
    values = _int64_table(list(cells), header)
    labels = values[:, -1].astype(np.uint8)
    bad = np.flatnonzero(labels != values[:, -1])
    if len(bad):
        raise ValueError(f"data row {bad[0] + 1}: label {values[bad[0], -1]} outside 0..255")
    return IdSequenceSet(ids=values[:, 1:-1], labels=labels, starts=values[:, 0])
