"""Domain types for CAN traffic: frames, labels, and identifier bit utilities.

Every other module builds on these. All types are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence, Union

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
        if self.timestamp_us < 0:
            raise ValueError(f"negative timestamp: {self.timestamp_us}")
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


# Built-in label spaces for the three dataset families the workbench parses.
ROAD_CLASSES = [
    "Correlated Signal Fabrication Attack",
    "Correlated Signal Masquerade Attack",
    "Fuzzing Attack",
    "Max Engine Coolant Temp Fabrication Attack",
    "Max Engine Coolant Temp Masquerade Attack",
    "Max Speedometer Fabrication Attack",
    "Max Speedometer Masquerade Attack",
    "Reverse Light Off Fabrication Attack",
    "Reverse Light Off Masquerade Attack",
    "Reverse Light On Fabrication Attack",
    "Reverse Light On Masquerade Attack",
]
HCRL_CLASSES = ["DoS Attack", "Fuzzing Attack", "Gear Spoofing Attack", "RPM Spoofing Attack"]
IVN_CLASSES = ["Flooding", "Fuzzy", "Malfunction"]


def road_label_space() -> LabelSpace:
    return LabelSpace(ROAD_CLASSES)


def hcrl_label_space() -> LabelSpace:
    return LabelSpace(HCRL_CLASSES)


def ivn_label_space() -> LabelSpace:
    return LabelSpace(IVN_CLASSES)


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


AnyFrame = Union[CanFrame, LabeledFrame]


def _frame_of(f: AnyFrame) -> CanFrame:
    return f.frame if isinstance(f, LabeledFrame) else f


@dataclass(frozen=True)
class TrafficLog:
    """An ordered CAN capture, optionally labeled, with non-decreasing timestamps."""

    frames: tuple
    label_space: LabelSpace | None = None

    def __post_init__(self):
        if not isinstance(self.frames, tuple):
            object.__setattr__(self, "frames", tuple(self.frames))
        prev = -1
        for f in self.frames:
            ts = f.timestamp_us
            if ts < prev:
                raise ValueError("timestamps are not non-decreasing")
            prev = ts

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)

    def __getitem__(self, i):
        return self.frames[i]

    @property
    def is_labeled(self) -> bool:
        """True when the frames carry labels; an empty log is labeled when it
        has a label space."""
        if not self.frames:
            return self.label_space is not None
        return isinstance(self.frames[0], LabeledFrame)

    def can_frames(self) -> list[CanFrame]:
        return [_frame_of(f) for f in self.frames]

    def labels(self) -> list[str]:
        if not self.is_labeled:
            raise ValueError("log is not labeled")
        return [f.label.name for f in self.frames]


# Checks shared by the JSON document readers: a bad document raises a
# ValueError that names what is wrong with it.


def _require_fields(doc: Any, fields: Iterable[str], what: str) -> None:
    """Raise ValueError unless doc is a JSON object holding every field."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    missing = [name for name in fields if name not in doc]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")


def _name_list(value: Any, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{what} must be a list of names")
    return value


def id_bits(frame: CanFrame) -> np.ndarray:
    """Return the 29-bit identifier as a uint8 vector, most-significant bit first.

    Standard 11-bit identifiers are zero-padded in the 18 high-order positions,
    which preserves numeric value and arbitration order.
    """
    return id_bits_matrix([frame.can_id])[0]


def id_bits_matrix(ids: Sequence[int]) -> np.ndarray:
    """Vectorized id_bits for a sequence of identifiers; shape (n, 29), MSB first."""
    arr = np.asarray(ids, dtype=np.uint32)
    shifts = np.arange(EXTENDED_ID_BITS - 1, -1, -1, dtype=np.uint32)
    return ((arr[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def id_from_bits(bits: np.ndarray) -> int:
    """Inverse of id_bits: reconstruct the integer identifier from a 29-bit vector."""
    if len(bits) != EXTENDED_ID_BITS:
        raise ValueError(f"expected {EXTENDED_ID_BITS} bits, got {len(bits)}")
    v = 0
    for b in bits:
        v = (v << 1) | int(b)
    return v


# ---------------------------------------------------------------------------
# Block text encoder shared by the candump, id-sequence and dataset writers.
#
# A writer describes one block of rows as a list of pieces: a bytes literal
# repeated on every row, or a cell table `(table, mask)` whose uint8 `table`
# has shape (rows, ..., width) and whose bool `mask` marks the bytes that
# belong to each cell.  `_write_rows` lays the pieces side by side and
# keeps the masked bytes in row-major order, which is the text of the
# block.  Rows are encoded _BLOCK_ROWS at a time so that the tables stay
# small whatever the length of the log.

_BLOCK_ROWS = 8192
_HEX_DIGITS = np.frombuffer(b"0123456789ABCDEF", dtype=np.uint8)


def _decimal_cells(values, digits: int = 1):
    """Decimal text of an integer array, zero-padded to at least `digits`
    digits, with a leading '-' on negative values: the text of str(int(v))
    (or f"{v:0{digits}d}" for non-negative v)."""
    v = np.asarray(values).astype(np.int64)
    mag = np.abs(v).astype(np.uint64)
    width = max(digits, len(str(int(mag.max()))) if mag.size else 1)
    table = np.empty(v.shape + (1 + width,), dtype=np.uint8)
    table[..., 0] = ord("-")
    used = np.zeros(v.shape, dtype=np.int64)
    # Least significant digit first; a scalar divisor keeps numpy's
    # integer division fast.
    for i in range(width, 0, -1):
        used += mag > 0
        quotient = mag // 10
        table[..., i] = mag - quotient * 10 + ord("0")
        mag = quotient
    mask = np.arange(-1, width) >= width - np.maximum(used, digits)[..., None]
    mask[..., 0] = v < 0
    return table, mask


def _hex_digits(values, digits: int) -> np.ndarray:
    """Uppercase hex digits of non-negative integers, most significant first;
    shape values.shape + (digits,).  The caller masks the ones it shows."""
    shifts = np.arange(4 * (digits - 1), -1, -4, dtype=np.uint64)
    v = np.asarray(values).astype(np.uint64)
    return _HEX_DIGITS[(v[..., None] >> shifts) & np.uint64(0xF)]


def _text_cells(texts: Sequence[str], codes):
    """Cells holding texts[code] for each entry of an integer code array."""
    encoded = [t.encode() for t in texts]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    mask = np.arange(int(lengths.max(initial=0))) < lengths[:, None]
    table = np.zeros(mask.shape, dtype=np.uint8)
    table[mask] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return table[codes], mask[codes]


def _float_cells(values):
    """Cells holding repr(float(v)) for each entry of a float array.

    Each distinct bit pattern is formatted once, by Python itself; keying on
    bits keeps -0.0 apart from 0.0."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    bits, codes = np.unique(v.view(np.uint64).ravel(), return_inverse=True)
    return _text_cells([repr(x) for x in bits.view(np.float64).tolist()],
                       codes.reshape(v.shape))


def _each_followed_by(cells, sep: bytes):
    """Append `sep` after every cell of a (rows, k, width) cell table."""
    table, mask = cells
    shape = table.shape[:-1] + (len(sep),)
    return (np.concatenate([table, np.broadcast_to(np.frombuffer(sep, np.uint8), shape)], -1),
            np.concatenate([mask, np.ones(shape, dtype=bool)], -1))


def _write_rows(stream, n: int, encode_block) -> None:
    """Write n rows of text, one stream.write per block of _BLOCK_ROWS rows.

    encode_block(start, stop) returns the pieces of rows start..stop-1."""
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        m = stop - start
        tables, masks = [], []
        for piece in encode_block(start, stop):
            if isinstance(piece, bytes):
                piece = (np.broadcast_to(np.frombuffer(piece, np.uint8), (m, len(piece))),
                         np.ones((m, len(piece)), dtype=bool))
            tables.append(piece[0].reshape(m, -1))
            masks.append(piece[1].reshape(m, -1))
        text = np.concatenate(tables, axis=1)[np.concatenate(masks, axis=1)]
        stream.write(text.tobytes().decode())


def arbitration_winner(frames: Iterable[AnyFrame]) -> AnyFrame:
    """Return the frame that wins bus arbitration: numerically smallest id.

    Lower ids carry more dominant bits and win under wired-AND signalling.
    Ties are broken by earliest timestamp.
    """
    best = None
    best_key = None
    for f in frames:
        cf = _frame_of(f)
        key = (cf.can_id, cf.timestamp_us)
        if best_key is None or key < best_key:
            best, best_key = f, key
    if best is None:
        raise ValueError("empty arbitration set")
    return best
