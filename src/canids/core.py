"""Domain types for CAN traffic: frames, labels, and identifier bit utilities.

Every other module builds on these. All types are immutable after
construction and safe to share between threads.  A `TrafficLog` holds a
capture as read-only numpy columns (timestamps, ids, id format, dlc,
zero-padded payloads, channel codes and label codes), checked once when the
log is built; `CanFrame` and `LabeledFrame` objects are a view built from
the columns on demand.
"""

from __future__ import annotations

import csv
import math
import re
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

STANDARD_ID_BITS = 11
EXTENDED_ID_BITS = 29
MAX_STANDARD_ID = (1 << STANDARD_ID_BITS) - 1
MAX_EXTENDED_ID = (1 << EXTENDED_ID_BITS) - 1
MAX_DLC = 8

US_PER_SECOND = 1_000_000

NORMAL_LABEL = "Normal"


def to_us(seconds: float) -> int:
    """Convert a seconds value to integer microseconds (round half away handled by round())."""
    return round(seconds * US_PER_SECOND)


# The microseconds past int64: a seconds value is held below them by its product
# with US_PER_SECOND, compared in float (round(inf) raises OverflowError).
_INT64_US = float(1 << 63)


def to_seconds(us: int) -> float:
    return us / US_PER_SECOND


def format_timestamp(us: int) -> str:
    """Render integer microseconds as seconds with exactly 6 fractional digits."""
    return f"{us // US_PER_SECOND}.{us % US_PER_SECOND:06d}"


@dataclass(frozen=True)
class CanFrame:
    """One CAN data frame as captured on the bus.

    Timestamps are integer microseconds internally so serialization round-trips
    are bit-exact; the `timestamp` property exposes float seconds.
    """

    timestamp_us: int
    channel: str
    can_id: int
    data: bytes
    extended: bool = False

    def __post_init__(self):
        if not 0 <= self.timestamp_us < 1 << 63:
            raise ValueError(f"timestamp outside 0..2**63-1 us: {self.timestamp_us}")
        limit = MAX_EXTENDED_ID if self.extended else MAX_STANDARD_ID
        if not 0 <= self.can_id <= limit:
            raise ValueError(
                f"CAN id 0x{self.can_id:X} out of range for "
                f"{'extended' if self.extended else 'standard'} format"
            )
        if not isinstance(self.data, bytes):
            object.__setattr__(self, "data", bytes(self.data))
        if len(self.data) > MAX_DLC:
            raise ValueError(f"data field of {len(self.data)} bytes exceeds {MAX_DLC}")

    @property
    def timestamp(self) -> float:
        return to_seconds(self.timestamp_us)

    @property
    def dlc(self) -> int:
        return len(self.data)

    @property
    def id_format(self) -> str:
        return "extended" if self.extended else "standard"


@dataclass(frozen=True)
class AttackClass:
    """A ground-truth class label. `Normal` is the unique non-attack label."""

    name: str
    is_attack: bool = True

    def __post_init__(self):
        if (self.name == NORMAL_LABEL) == self.is_attack:
            raise ValueError(
                f"label {self.name!r}: is_attack={self.is_attack} conflicts with "
                f"the convention that {NORMAL_LABEL!r} is the only benign label"
            )


NORMAL = AttackClass(NORMAL_LABEL, is_attack=False)


class LabelSpace:
    """Registry of the AttackClass set in force for one dataset.

    `Normal` is always a member. Names are unique; registration order is the
    canonical class order used by feature matrices and reports.
    """

    def __init__(self, attack_names: Iterable[str] = ()):
        self._classes: dict[str, AttackClass] = {NORMAL_LABEL: NORMAL}
        for name in attack_names:
            self.register(name)

    def register(self, name: str) -> AttackClass:
        if name in self._classes:
            raise ValueError(f"label {name!r} already registered")
        cls = AttackClass(name)
        self._classes[name] = cls
        return cls

    def get(self, name: str) -> AttackClass:
        try:
            return self._classes[name]
        except KeyError:
            raise KeyError(f"label {name!r} not in label space {self.names()}") from None

    def names(self) -> list[str]:
        return list(self._classes)

    def attack_names(self) -> list[str]:
        return [n for n, c in self._classes.items() if c.is_attack]

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __len__(self) -> int:
        return len(self._classes)

    def __iter__(self) -> Iterator[AttackClass]:
        return iter(self._classes.values())


def binary_label_space(attack_name: str) -> LabelSpace:
    return LabelSpace([attack_name])


@dataclass(frozen=True)
class LabeledFrame:
    frame: CanFrame
    label: AttackClass

    @property
    def timestamp_us(self) -> int:
        return self.frame.timestamp_us

    @property
    def is_attack(self) -> bool:
        return self.label.is_attack


# _PAST_DLC[d] is 0xFF on the payload bytes past a data length of d, else 0.
_PAST_DLC = (np.arange(MAX_DLC) >= np.arange(MAX_DLC + 1)[:, None]).astype(np.uint8) * 0xFF
_MAX_STANDARD_ID = np.array(MAX_STANDARD_ID)  # numpy compares with an array faster than an int
_COLUMN_NAMES = ("timestamp", "CAN id", "id format", "dlc", "channel code", "label code")


class TrafficLog:
    """An ordered CAN capture, optionally labeled, held as read-only columns.

    Row i of each column is frame i: `ts_us` int64 microseconds, non-negative
    and non-decreasing; `can_id` uint32, within its format's range;
    `extended` bool (29-bit format); `dlc` uint8, at most 8; `data` uint8
    (n, 8), zero past `dlc`; `channel` int64 indices into the `channels`
    name tuple; `label` int64 indices into `label_space.names()`, or None
    when unlabeled (an empty log is labeled when it has a label space).

    `TrafficLog(frames, label_space)` takes CanFrame or LabeledFrame objects
    (with no label space given, one is built from the labels in order of
    appearance); the library's stages build logs from arrays, and every
    log's columns are checked in one place, `_from_columns`.  Indexing,
    iteration, `frames` and `can_frames()` build frame objects on demand;
    none is stored.
    """

    def __init__(self, frames: Iterable = (), label_space: LabelSpace | None = None):
        frames = tuple(frames)
        labeled = [isinstance(f, LabeledFrame) for f in frames]
        if any(labeled) and not all(labeled):
            raise ValueError("a log cannot mix labeled and unlabeled frames")
        label = None
        if all(labeled) if frames else label_space is not None:
            if label_space is None:
                label_space = LabelSpace(dict.fromkeys(
                    f.label.name for f in frames if f.label.is_attack))
            codes = {name: i for i, name in enumerate(label_space.names())}
            label = [codes.get(f.label.name, -1) for f in frames]
            frames = tuple(f.frame for f in frames)
        channels: dict[str, int] = {}
        self.__dict__.update(TrafficLog._from_columns(
            [f.timestamp_us for f in frames], [f.can_id for f in frames],
            [f.extended for f in frames], [len(f.data) for f in frames],
            np.frombuffer(b"".join(f.data.ljust(MAX_DLC, b"\0") for f in frames),
                          dtype=np.uint8).reshape(-1, MAX_DLC),
            [channels.setdefault(f.channel, len(channels)) for f in frames],
            tuple(channels), label, label_space).__dict__)

    @classmethod
    def _from_columns(cls, ts_us, can_id, extended, dlc, data, channel, channels: Sequence[str],
                      label=None, label_space: LabelSpace | None = None) -> "TrafficLog":
        """A log over copies of the given integer columns (see the class
        docstring); columns that break a rule raise ValueError naming the
        first bad frame."""
        if label is not None and label_space is None:
            raise ValueError("a labeled log needs a label space")
        log = cls.__new__(cls)
        log.channels, log.label_space = tuple(channels), label_space
        # The one-row columns are stacked and range-checked together: viewed
        # as uint64, a negative value is past any bound.
        rows = [ts_us, can_id, extended, dlc, channel]
        bounds = [1 << 63, 1 << EXTENDED_ID_BITS, 2, MAX_DLC + 1, len(log.channels)]
        if label is not None:
            rows.append(label)
            bounds.append(len(label_space))
        try:
            ints, data = np.array(rows), np.asarray(data)
        except ValueError:
            ints = None
        # Only integer (or bool) columns are taken: a cast would truncate
        # floats.  Unsigned 64-bit columns promote to float with signed ones.
        if ints is None or ints.ndim != 2 or data.shape != (ints.shape[1], MAX_DLC) or (
                ints.dtype.kind not in "biu" and ints.size) or (
                data.dtype.kind not in "biu" and data.size):
            raise ValueError("columns must be equally long sequences of 64-bit integers, "
                             f"data as (rows, {MAX_DLC}) bytes")
        ints = ints.astype(np.int64, copy=False)
        out = ints.view(np.uint64) >= np.array(bounds, dtype=np.uint64)[:, None]
        if np.count_nonzero(out):
            k = int(np.argmax(out.any(axis=1)))
            raise ValueError(f"frame {np.argmax(out[k])}: {_COLUMN_NAMES[k]} outside "
                             f"0..{bounds[k] - 1}")
        log.ts_us, log.channel = ints[0].copy(), ints[4].copy()
        log.label = None if label is None else ints[5].copy()
        log.can_id, log.extended = ints[1].astype(np.uint32), ints[2].astype(bool)
        log.dlc, log.data = ints[3].astype(np.uint8), data.astype(np.uint8)
        for bad, what in ((log.ts_us[:-1] > log.ts_us[1:], "timestamp above the next frame's"),
                          ((log.can_id > _MAX_STANDARD_ID) > log.extended,
                           "standard CAN id past 11 bits"),
                          (log.data != data, "data byte outside 0..255"),
                          (log.data & _PAST_DLC.take(log.dlc, axis=0),
                           "nonzero data byte past dlc")):
            if np.count_nonzero(bad):
                raise ValueError(f"frame {np.argmax(bad.reshape(len(bad), -1).any(1))}: {what}")
        for column in (log.ts_us, log.can_id, log.extended, log.dlc, log.data, log.channel):
            column.setflags(write=False)
        if log.label is not None:
            log.label.setflags(write=False)
        return log

    def _columns(self, rows=slice(None)) -> dict[str, np.ndarray]:
        """The unlabeled columns of some rows, as _from_columns takes them."""
        return dict(ts_us=self.ts_us[rows], can_id=self.can_id[rows],
                    extended=self.extended[rows], dlc=self.dlc[rows], data=self.data[rows],
                    channel=self.channel[rows])

    def _frames(self, rows, labeled: bool) -> list:
        raw = self.data[rows].tobytes()
        frames = [CanFrame(t, self.channels[c], i, raw[8 * k:8 * k + d], e)
                  for k, (t, c, i, d, e) in enumerate(zip(
                      self.ts_us[rows].tolist(), self.channel[rows].tolist(),
                      self.can_id[rows].tolist(), self.dlc[rows].tolist(),
                      self.extended[rows].tolist()))]
        if not labeled or self.label is None:
            return frames
        classes = list(self.label_space)
        return [LabeledFrame(f, classes[c]) for f, c in zip(frames, self.label[rows].tolist())]

    def __len__(self) -> int:
        return len(self.ts_us)

    def __iter__(self):
        return iter(self._frames(slice(None), True))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._frames(i, True))
        i = range(len(self))[i]
        return self._frames(slice(i, i + 1), True)[0]

    @property
    def frames(self) -> tuple:
        """The frames as CanFrame, or LabeledFrame when the log is labeled."""
        return tuple(self._frames(slice(None), True))

    @property
    def is_labeled(self) -> bool:
        return self.label is not None

    def can_frames(self) -> list[CanFrame]:
        return self._frames(slice(None), False)

    def labels(self) -> list[str]:
        if not self.is_labeled:
            raise ValueError("log is not labeled")
        names = self.label_space.names()
        return [names[c] for c in self.label.tolist()]

    def attack_flags(self) -> np.ndarray:
        """True for each frame whose label is an attack class."""
        if not self.is_labeled:
            raise ValueError("log is not labeled")
        return np.array([c.is_attack for c in self.label_space], dtype=bool)[self.label]


# Checks shared by the JSON document readers: a bad document raises a
# ValueError that names what is wrong with it.


def _require_fields(doc: Any, fields: Iterable[str], what: str) -> None:
    """Raise ValueError unless doc is a JSON object holding every field."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    missing = [name for name in fields if name not in doc]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")


# The one field reader: every document and constructor reads its scalar and
# list fields through it, settings within their ranges, and stores what it
# returns, plain JSON values, so everything a constructor accepts can be
# written back.
_KINDS = {"integer": "an integer", "number": "a number", "flag": "true or false",
          "text": "a string", "object": "an object", "list": "a list",
          "id": "a CAN id (an integer or 1 to 8 hex digits, in 29 bits)",
          "seed": "an integer from 0", "hex": "hex text",
          "pattern": f"a pattern of up to {2 * MAX_DLC} nibbles of hex or X"}
_PLAIN = {"integer": int, "number": float, "flag": bool, "text": str, "object": dict, "hex": bytes,
          "integer or null": int, "number or null": float, "text or null": str}
_HEX_ID = re.compile(r"[0-9A-Fa-f]{1,8}")
_PATTERN = re.compile(rf"[0-9A-FX]{{0,{2 * MAX_DLC}}}")
# Range kinds: a value of the base kind that passes the test, returned as the
# base kind returns it.  Each but "seed", an integer from 0, is named for its
# values; "us" ones are seconds, held in microseconds as to_us rounds them.
_RANGES = {"seed": ("integer", lambda v: v >= 0),
           "integer from 1": ("integer", lambda v: v >= 1),
           "number in (0, 1]": ("number", lambda v: 0 < v <= 1),
           "number in (0, 1)": ("number", lambda v: 0 < v < 1),
           "number in [0, inf)": ("number", lambda v: 0 <= v < math.inf),
           "number within int64 us": ("number", lambda v: abs(v * US_PER_SECOND) < _INT64_US),
           "number in [0, int64 us)": ("number", lambda v: 0 <= v * US_PER_SECOND < _INT64_US),
           "number in (0, int64 us)": ("number", lambda v: 0 < v * US_PER_SECOND < _INT64_US),
           "number rounding to [1 us, int64 us)": (
               "number", lambda v: 0.5 < v * US_PER_SECOND < _INT64_US),
           "text other than Normal": ("text", lambda v: v != NORMAL_LABEL),
           "hex of up to 8 bytes": ("hex", lambda v: len(v) <= MAX_DLC)}
_KINDS.update((kind, f"{_KINDS[base]}{kind.removeprefix(base)}")
              for kind, (base, _) in _RANGES.items() if kind != "seed")


def _plain(value: Any, kind: str) -> Any:
    """value as a plain value of kind (see _read_field), else TypeError."""
    if type(value) is _PLAIN.get(kind):
        return value
    if kind.endswith(" or null"):
        return None if value is None else _plain(value, kind.removesuffix(" or null"))
    if kind in _RANGES:
        base, test = _RANGES[kind]
        try:
            if test(plain := _plain(value, base)):  # NaN passes no test
                return plain
        except TypeError:
            pass
    elif kind.startswith("list of "):
        if isinstance(value, (list, tuple)):
            return tuple(_plain(v, kind.removeprefix("list of ")) for v in value)
        kind = "list"
    elif isinstance(value, (bool, np.bool_)):
        if kind == "flag":
            return bool(value)
    elif kind == "hex" and isinstance(value, str):
        return bytes.fromhex(value)
    elif kind == "pattern" and isinstance(value, str) and _PATTERN.fullmatch(value.upper()):
        return value.upper()
    elif kind in ("text", "object"):
        if isinstance(value, _PLAIN[kind]):
            return _PLAIN[kind](value)
    elif isinstance(value, (int, np.integer)) or (
            kind == "id" and isinstance(value, str) and _HEX_ID.fullmatch(value)):
        whole = int(value, 16) if isinstance(value, str) else int(value)
        if (kind == "integer" or kind == "number" and abs(whole) <= sys.float_info.max
                or kind == "id" and 0 <= whole <= MAX_EXTENDED_ID):
            return whole
    elif kind == "number" and isinstance(value, (float, np.floating)):
        return float(value)
    raise TypeError(f"{value!r} is not {_KINDS[kind]}")


def _read_field(what: str, name: str, value: Any, kind: str | Callable[[Any], Any]) -> Any:
    """`value`, field `name` of the document `what`, as a plain value of `kind`.

    The kinds are "integer", "number", "flag", "text", "object" (a dict),
    "id" (a CAN id: an integer or hex text), "hex" (bytes, or hex text read
    as bytes), "pattern" (a payload pattern: up to 16 nibbles of hex or X,
    returned upper-case), the range kinds of _RANGES,
    "<kind> or null" and "list of <kind>" (a tuple).  A bool is never a
    number, nor is a string, nor an int beyond float64, nor NaN in a range;
    a numpy scalar comes back as the Python int, float or bool, and an int
    stays an int.  Any other value raises ValueError
    "<what> field '<name>': <value> is not <kind>" ("<name>: ..." when
    `what` is empty).  A callable kind converts the value; its TypeError or
    ValueError is reworded the same way.
    """
    try:
        return kind(value) if callable(kind) else _plain(value, kind)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} field {name!r}: {exc}" if what else f"{name}: {exc}") from None


def _read_fields(obj: Any, what: str, **kinds: str) -> None:
    """Read the named attributes of obj (a frozen dataclass too) as their
    kinds, and store the plain values in their place."""
    for name, kind in kinds.items():
        value = getattr(obj, name)
        if type(value) is not _PLAIN.get(kind):  # a plain value is stored as it is
            object.__setattr__(obj, name, _read_field(what, name, value, kind))


def _id_format(what: str, can_id: int | None, extended: bool | None) -> bool:
    """Whether a CAN id (None: any id) is extended: `extended`, or, where it
    is None, the id's value (past 11 bits: extended).  An id past 11 bits is
    never standard, nor is any id extended: either raises ValueError naming
    the field 'extended'."""
    past = can_id is not None and can_id > MAX_STANDARD_ID
    if extended is None or extended == past:
        return past
    if can_id is None or past:
        ident = "any id" if can_id is None else f"id 0x{can_id:X}"
        raise ValueError(f"{what} field 'extended': {ident} cannot be "
                         f"{'standard' if past else 'extended'}")
    return extended


def _present_fields(doc: dict, what: str, **kinds: str | Callable[[Any], Any]) -> dict[str, Any]:
    """The named fields that doc holds, each read as its kind; absent ones
    are left to the constructor's defaults.  A document holds no null where
    a constructor takes None for "absent": "<kind> or null" reads as <kind>."""
    return {name: _read_field(what, name, doc[name],
                              kind if callable(kind) else kind.removesuffix(" or null"))
            for name, kind in kinds.items() if name in doc}


def _class_indices(labels: Any, n_classes: int | None = None) -> np.ndarray:
    """labels, numbers, as int64 class indices: each a whole number from 0,
    and below n_classes when it is given.  A bool counts as 0 or 1; any
    other label raises ValueError naming its row."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "biuf":
        raise ValueError(f"labels must be integer class indices, not {labels.dtype}")
    good = (labels >= 0) & (labels < (np.inf if n_classes is None else n_classes))
    if labels.dtype.kind == "f":
        good &= labels == np.floor(labels)  # NaN fails every comparison, so it is bad too
    if not good.all():
        row = int(np.argmin(good))
        allowed = "0 or more" if n_classes is None else f"0..{n_classes - 1}"
        raise ValueError(f"label {labels[row].item()!r} in row {row} is not a class index ({allowed})")
    return labels.astype(np.int64, copy=False)


def _csv_rows(lines: Iterable[str], error: type[ValueError] = ValueError) -> Iterator[list[str]]:
    """The rows csv.reader reads from lines; a line it cannot read raises
    `error` naming the line, instead of csv.Error."""
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        raise error(f"line {reader.line_num}: {exc}") from None


# The CSV readers share one row loop and one ASCII cell grammar (int() and
# float() alone also read spaces, '_' and other scripts' digits).  Columns
# are tested and converted at once; single cells are read only to word errors.
_DIGITS = {10: b"0123456789", 16: b"0123456789ABCDEFabcdef"}


def _data_rows(rows: Iterable[list[str]], width: int | None = None) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows (a blank row is an empty line), numbered from 1;
    with a `width`, a row of another length raises ValueError naming it."""
    for number, row in enumerate(filter(None, rows), 1):
        if width is not None and len(row) != width:
            raise ValueError(f"data row {number}: {len(row)} fields, expected {width}")
        yield number, row


def _int_cell(text: str, base: int = 10) -> int | None:
    """The value of an unsigned integer cell, ASCII digits of `base`, or None."""
    if not text.isascii() or text.encode().translate(None, _DIGITS[base]):
        return None
    try:
        return int(text, base)
    except ValueError:  # no digits, or more than int() converts
        return None


def _int64_table(cells: list[str], names: Sequence[str]) -> np.ndarray:
    """The int64 values of signed integer cells (an unsigned one after an
    optional '-') laid out len(names) to a data row; a cell that is not
    one, or is past int64, raises ValueError naming its row and column."""
    text = "".join(cells)
    if text.isascii() and not text.encode().translate(None, b"-" + _DIGITS[10]):
        try:
            return np.array(cells, dtype=np.int64).reshape(-1, len(names))
        except (ValueError, OverflowError):
            pass  # int() refused a misplaced '-', or a value is past int64
    for k, cell in enumerate(cells):
        value = _int_cell(cell.removeprefix("-"))
        if value is None or value > (1 << 63) - (not cell.startswith("-")):
            where = f"data row {k // len(names) + 1}: {names[k % len(names)]}"
            raise ValueError(f"{where} {cell!r} is not an integer" if value is None
                             else f"{where} {cell} is beyond 64 bits")
    raise AssertionError("numpy refused int64 cells")


def _float64_cells(cells: list[str]) -> np.ndarray | None:
    """The float64 values of float cells, printable ASCII without spaces or
    '_' that float() reads, spelling any infinity as a word; None if any
    cell is not one."""
    text = "".join(cells)
    if not text.isascii() or not text.isprintable() or " " in text or "_" in text:
        return None
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError:
        return None
    infinite = np.isinf(values).nonzero()[0]
    return values if all(cells[k].lstrip("+-").isalpha() for k in infinite) else None


def id_bits(frame: CanFrame) -> np.ndarray:
    """Return the 29-bit identifier as a uint8 vector, most-significant bit first.

    Standard 11-bit identifiers are zero-padded in the 18 high-order positions,
    which preserves numeric value and arbitration order.
    """
    return id_bits_matrix([frame.can_id])[0]


def id_bits_matrix(ids: Sequence[int]) -> np.ndarray:
    """Vectorized id_bits for a sequence of identifiers; shape (n, 29), MSB
    first: the last 29 of the 32 bits each id's big-endian bytes unpack to."""
    arr = np.asarray(ids, dtype=">u4")
    bits = np.unpackbits(arr.view(np.uint8).reshape(len(arr), 4), axis=1)
    return bits[:, 32 - EXTENDED_ID_BITS:]


# ---------------------------------------------------------------------------
# Block text encoder shared by the candump, id-sequence and dataset writers.
#
# A writer describes one block of rows as a list of pieces: a bytes literal
# repeated on every row, or a cell piece, a uint8 table of text bytes that
# fills what its cells do not show with _PAD.  No UTF-8 text holds 0xFF, nor
# does a lone surrogate passed through, so the block's bytes in row-major
# order, less every _PAD, are its text.  A piece is either direct, of shape
# (rows, ..., width), or a dictionary `(table, codes)` whose (k, width) table
# holds each of k distinct texts once and whose integer `codes`, of shape
# (rows, ...), pick a text for every cell.  Cells take few distinct texts
# (ids, bytes, labels), so a dictionary formats each text once, and
# `_write_rows` expands it with a row gather.  Rows are encoded _BLOCK_ROWS
# at a time so that the tables stay small whatever the length of the log.

_BLOCK_ROWS = 8192
_PAD = 0xFF
_PAD_BYTE = bytes([_PAD])
# _HEX_PAIRS[b] is the two uppercase hex digits of byte b as one uint16.
_HEX_PAIRS = np.frombuffer("".join(f"{b:02X}" for b in range(256)).encode(), dtype=np.uint16)
# _DIGITS4[10,000 p + v] is the four ASCII digits of v < 10,000 as one
# uint32, with those of its leading zeros among the first p (<= 4) padded.
_DIGITS4 = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
_DIGITS4 = np.where((np.arange(4) < np.arange(5)[:, None, None]) & (_DIGITS4.cumsum(1) == 0),
                    _PAD, _DIGITS4 + ord("0")).astype(np.uint8).view(np.uint32).ravel()
# Whole floats of smaller magnitude are repr'd as their decimal digits + ".0".
_WHOLE_FLOAT_LIMIT = float(2**53)


def _decimal_table(values, digits: int = 1) -> np.ndarray:
    """Direct cells holding the decimal text of an integer array, zero-padded
    to at least `digits` digits, with a leading '-' on negative values: the
    text of str(int(v)) (or f"{v:0{digits}d}" for non-negative v)."""
    v = np.asarray(values, dtype=np.int64)
    mag = np.abs(v).view(np.uint64)  # abs(-2**63) wraps to 2**63 as uint64
    width = max(digits, len(str(int(mag.max()))) if mag.size else 1)
    # Four digits at a time, least significant first, each group one
    # lookup; a group with nothing above it pads its leading zeros but for
    # the number's lowest `digits`.  The sign takes the byte before the
    # `width` digit columns, which is otherwise padded.
    groups = np.empty(v.shape + (1 + -(-width // 4),), dtype=np.uint32)
    groups[..., 0] = 0xFFFF_FFFF
    for i, low_digits in zip(range(groups.shape[-1] - 1, 0, -1), range(0, width, 4)):
        mag, low = np.divmod(mag, np.uint64(10_000))
        pads = 4 - min(max(digits - low_digits, 0), 4)
        if pads:
            low += (mag == 0) * np.uint64(10_000 * pads)
        groups[..., i] = _DIGITS4.take(low)
    table = groups.view(np.uint8)[..., -1 - width:]
    np.copyto(table[..., 0], ord("-"), where=v < 0)
    return table


def _range_cells(lo: int, hi: int) -> np.ndarray:
    """Dictionary table of the decimal texts of lo..hi, in order."""
    return _decimal_table(np.arange(hi - lo + 1, dtype=np.int64) + lo)


def _decimal_cells(values):
    """Cells holding str(int(v)) for each entry of an integer array: a
    dictionary over min..max when that range is shorter than the array,
    else a direct table."""
    v = np.asarray(values, dtype=np.int64)
    if v.size:
        lo, hi = int(v.min()), int(v.max())
        if hi - lo < v.size:
            return _range_cells(lo, hi), v - lo
    return _decimal_table(v)


def _hex_cells(byte_table) -> np.ndarray:
    """Uppercase hex digits of a (..., k) uint8 table, two per byte: shape
    (..., 2k).  The caller pads the ones it hides."""
    return _HEX_PAIRS[byte_table].view(np.uint8)


def _text_cells(texts: Sequence[str], codes):
    """Dictionary cells holding texts[code] for each entry of an integer
    code array; lone surrogates pass through, as csv.writer lets them."""
    encoded = [t.encode("utf-8", "surrogatepass") for t in texts]
    width = max(map(len, encoded), default=0)
    table = np.frombuffer(b"".join(t.ljust(width, _PAD_BYTE) for t in encoded), dtype=np.uint8)
    return table.reshape(len(encoded), width), codes


def _each_followed_by(cells, sep: bytes):
    """Append `sep` after every cell of a direct (rows, k, width) table, or
    after every text of a dictionary."""
    table, *codes = cells if isinstance(cells, tuple) else (cells,)
    shape = table.shape[:-1] + (len(sep),)
    table = np.concatenate([table, np.broadcast_to(np.frombuffer(sep, np.uint8), shape)], -1)
    return (table, *codes) if codes else table


def _short_whole_range(v: np.ndarray) -> tuple[int, int, np.ndarray] | None:
    """(lo, hi, v as int64) when the float64 array v holds whole numbers
    below 2**53 in magnitude spanning a range lo..hi shorter than the array,
    with bit patterns equal to those of their int64 casts, which keeps -0.0
    out; otherwise None.  The cast comes after the range test, so it never
    meets a value out of int64's range."""
    if v.size:
        lo, hi = v.min(), v.max()  # nan if any entry is nan, which fails the test
        if -_WHOLE_FLOAT_LIMIT < lo and hi < _WHOLE_FLOAT_LIMIT and hi - lo < v.size:
            whole = v.astype(np.int64)
            if np.array_equal(whole.astype(np.float64).view(np.uint64), v.view(np.uint64)):
                return int(lo), int(hi), whole
    return None


def _float_cells(values):
    """Dictionary cells holding repr(float(v)) for each entry of a float array.

    An array that `_short_whole_range` accepts is formatted as the decimal
    range with ".0" appended.  Any other array has each distinct bit pattern
    formatted once, by Python itself; keying on bits keeps -0.0 apart from
    0.0."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    whole = _short_whole_range(v)
    if whole is not None:
        lo, hi, ints = whole
        return _each_followed_by(_range_cells(lo, hi), b".0"), ints - lo
    bits, codes = np.unique(v.view(np.uint64).ravel(), return_inverse=True)
    return _text_cells([repr(x) for x in bits.view(np.float64).tolist()],
                       codes.reshape(v.shape))


def _write_rows(stream, n: int, encode_block) -> None:
    """Write n rows of text, one stream.write per block of _BLOCK_ROWS rows.

    encode_block(start, stop) returns the pieces of rows start..stop-1."""
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        m = stop - start
        # The literals form a template row shown on every row; each cell
        # piece then fills its own columns of the table.  A dictionary is
        # gathered by its codes one piece at a time, so that only one
        # gathered piece is held at once.
        template, cells = bytearray(), []
        for piece in encode_block(start, stop):
            if isinstance(piece, bytes):
                template += piece
                continue
            width = (piece[1].size * piece[0].shape[-1] if isinstance(piece, tuple)
                     else piece.size) // m
            cells.append((len(template), width, piece))
            template += bytes(width)
        table = np.empty((m, len(template)), dtype=np.uint8)
        table[:] = np.frombuffer(template, dtype=np.uint8)
        for lo, width, piece in cells:
            if isinstance(piece, tuple):
                piece = piece[0].take(piece[1], axis=0)
            table[:, lo:lo + width] = piece.reshape(m, width)
        stream.write(table.tobytes().translate(None, _PAD_BYTE).decode("utf-8", "surrogatepass"))
