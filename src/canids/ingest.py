"""Parsers and serializers for CAN capture formats, plus metadata-driven labeling.

Supported inputs: candump text logs ("(ts) channel ID#DATA"), CSV-style IDS
datasets with a configurable column schema, and per-capture JSON metadata
describing injection campaigns (interval + id + payload nibble pattern).

`serialize_candump` writes through the block text encoder in `core`: it
gathers the timestamp, id, format, channel and data of a block of frames
into arrays once and formats them column by column; each line is the text
of `serialize_candump_line`.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from canids.core import (
    MAX_DLC,
    MAX_EXTENDED_ID,
    MAX_STANDARD_ID,
    NORMAL_LABEL,
    US_PER_SECOND,
    CanFrame,
    LabeledFrame,
    LabelSpace,
    TrafficLog,
    _decimal_cells,
    _hex_digits,
    _text_cells,
    _name_list,
    _require_fields,
    _write_rows,
    format_timestamp,
)

logger = logging.getLogger(__name__)

ID_WILDCARD = "XXX"
NIBBLE_WILDCARD = "X"

_CANDUMP_RE = re.compile(
    r"^\((?P<ts>\d+(?:\.\d+)?)\)\s+(?P<channel>\S+)\s+(?P<id>[0-9A-Fa-f]+)#(?P<data>[0-9A-Fa-f]*)\s*$"
)


class ParseError(ValueError):
    """Malformed input line or row; message carries location and reason."""


class LabelAmbiguityError(ValueError):
    """Two metadata entries assign different classes to the same frame."""


def _parse_timestamp_us(text: str, where: str) -> int:
    if "." in text:
        secs, frac = text.split(".", 1)
    else:
        secs, frac = text, ""
    if len(frac) > 6:
        raise ParseError(f"{where}: timestamp {text!r} has sub-microsecond precision")
    return int(secs) * 1_000_000 + int(frac.ljust(6, "0") or "0")


def parse_candump_line(line: str, lineno: int | None = None) -> CanFrame:
    """Parse one candump record of shape "(TIMESTAMP) CHANNEL ID#DATAHEX".

    The id field is 3 hex digits for standard frames or 8 for extended ones,
    matching what candump emits; data is hex byte pairs, up to 8 bytes.
    """
    where = f"line {lineno}" if lineno is not None else "line"
    m = _CANDUMP_RE.match(line)
    if not m:
        raise ParseError(f"{where}: not a candump record: {line.rstrip()!r}")
    ts_us = _parse_timestamp_us(m.group("ts"), where)
    id_text = m.group("id")
    if len(id_text) == 3:
        extended = False
    elif len(id_text) == 8:
        extended = True
    else:
        raise ParseError(f"{where}: id field {id_text!r} must be 3 or 8 hex digits")
    can_id = int(id_text, 16)
    limit = MAX_EXTENDED_ID if extended else MAX_STANDARD_ID
    if can_id > limit:
        raise ParseError(f"{where}: id 0x{id_text} exceeds the {'29' if extended else '11'}-bit space")
    data_text = m.group("data")
    if len(data_text) % 2:
        raise ParseError(f"{where}: odd-length data hex {data_text!r}")
    if len(data_text) // 2 > MAX_DLC:
        raise ParseError(f"{where}: data field of {len(data_text) // 2} bytes exceeds {MAX_DLC}")
    data = bytes.fromhex(data_text)
    return CanFrame(timestamp_us=ts_us, channel=m.group("channel"), can_id=can_id, data=data, extended=extended)


def parse_candump_log(
    lines: Iterable[str],
    strict: bool = True,
    errors: list[str] | None = None,
) -> TrafficLog:
    """Parse a candump stream into a TrafficLog, preserving input order.

    Blank lines are permitted. In strict mode (the default, since labeling
    correctness depends on complete logs) the first malformed line aborts the
    parse; in lenient mode malformed lines are skipped, counted, and reported
    through `errors` when a list is supplied.
    """
    frames = []
    skipped = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            frames.append(parse_candump_line(line, lineno))
        except ParseError as exc:
            if strict:
                raise
            skipped += 1
            if errors is not None:
                errors.append(str(exc))
    if skipped:
        logger.warning("skipped %d malformed candump lines", skipped)
    return TrafficLog(frames=tuple(frames))


def serialize_candump_line(frame: CanFrame) -> str:
    id_text = f"{frame.can_id:08X}" if frame.extended else f"{frame.can_id:03X}"
    return f"({format_timestamp(frame.timestamp_us)}) {frame.channel} {id_text}#{frame.data.hex().upper()}"


def serialize_candump(log: TrafficLog, stream: IO[str]) -> None:
    """Write a log in candump text form; parse_candump_log inverts it field-for-field.

    Each line is the text of serialize_candump_line.  Frames are encoded a
    block at a time: their fields are gathered into arrays once per block
    and formatted column by column."""

    def encode_block(lo: int, hi: int) -> list:
        frames = [f.frame if isinstance(f, LabeledFrame) else f for f in log.frames[lo:hi]]
        m = len(frames)
        ts = np.fromiter((f.timestamp_us for f in frames), dtype=np.int64, count=m)
        can_id = np.fromiter((f.can_id for f in frames), dtype=np.int64, count=m)
        extended = np.fromiter((f.extended for f in frames), dtype=bool, count=m)
        dlc = np.fromiter((len(f.data) for f in frames), dtype=np.int64, count=m)
        data = np.frombuffer(b"".join(f.data.ljust(MAX_DLC, b"\0") for f in frames),
                             dtype=np.uint8).reshape(m, MAX_DLC)
        channels: dict[str, int] = {}
        channel = [channels.setdefault(f.channel, len(channels)) for f in frames]
        id_digits = np.where(extended, 8, 3)
        return [
            b"(", _decimal_cells(ts // US_PER_SECOND), b".",
            _decimal_cells(ts % US_PER_SECOND, digits=6), b") ",
            _text_cells(list(channels), channel), b" ",
            (_hex_digits(can_id, 8), np.arange(8) >= 8 - id_digits[:, None]), b"#",
            (_hex_digits(data, 2).reshape(m, 2 * MAX_DLC),
             np.arange(2 * MAX_DLC) < 2 * dlc[:, None]),
            b"\n",
        ]

    _write_rows(stream, len(log), encode_block)


# ---------------------------------------------------------------------------
# CSV-style IDS datasets (HCRL / IVN-challenge layouts)

@dataclass
class CsvSchema:
    """Column layout for CSV datasets: positional indices into each row.

    `data_cols` lists up to 8 byte columns in order. When `label_after_data`
    is set, the label occupies the column right after the last present data
    byte (the HCRL layout for rows with dlc < 8) instead of a fixed position.
    """

    timestamp_col: int
    id_col: int
    data_cols: Sequence[int] = ()
    dlc_col: int | None = None
    label_col: int | None = None
    label_after_data: bool = False
    id_hex: bool = True
    data_hex: bool = True
    label_map: dict[str, str] = field(default_factory=dict)
    has_header: bool = False

    def __post_init__(self):
        if len(self.data_cols) > MAX_DLC:
            raise ValueError(f"schema declares {len(self.data_cols)} data columns, max is {MAX_DLC}")


def hcrl_schema() -> CsvSchema:
    """Schema of the HCRL car-hacking CSVs: ts, id, dlc, 8 data bytes, R/T flag."""
    return CsvSchema(
        timestamp_col=0,
        id_col=1,
        dlc_col=2,
        data_cols=tuple(range(3, 11)),
        label_col=11,
        label_after_data=True,
        label_map={"R": NORMAL_LABEL},
    )


def _parse_cell_int(cell: str, hex_flag: bool, where: str, what: str) -> int:
    try:
        return int(cell, 16 if hex_flag else 10)
    except ValueError:
        raise ParseError(f"{where}: unparseable {what} {cell!r}") from None


def parse_csv_dataset(
    lines: Iterable[str],
    schema: CsvSchema,
    label_space: LabelSpace | None = None,
) -> TrafficLog:
    """Parse a labeled CSV dataset into a TrafficLog of LabeledFrame.

    Data bytes beyond the row's dlc are dropped. Unknown labels and rows of
    the wrong arity raise ParseError with the row index.
    """
    import csv as _csv

    rows: list[tuple[CanFrame, str]] = []
    seen_labels: set[str] = set()
    reader = _csv.reader(lines)
    for rowno, row in enumerate(reader, start=1):
        if schema.has_header and rowno == 1:
            continue
        if not row or all(not c.strip() for c in row):
            continue
        where = f"row {rowno}"
        row = [c.strip() for c in row]
        needed = max(
            [schema.timestamp_col, schema.id_col]
            + ([schema.dlc_col] if schema.dlc_col is not None else [])
        )
        if len(row) <= needed:
            raise ParseError(f"{where}: expected at least {needed + 1} columns, got {len(row)}")

        ts_us = _parse_timestamp_us(row[schema.timestamp_col], where)
        can_id = _parse_cell_int(row[schema.id_col], schema.id_hex, where, "id")
        if can_id > MAX_EXTENDED_ID:
            raise ParseError(f"{where}: id {can_id:#x} exceeds the 29-bit space")
        extended = can_id > MAX_STANDARD_ID

        if schema.dlc_col is not None:
            dlc = _parse_cell_int(row[schema.dlc_col], False, where, "dlc")
            if not 0 <= dlc <= MAX_DLC:
                raise ParseError(f"{where}: dlc {dlc} out of range")
        else:
            dlc = min(len(schema.data_cols), len(row) - 1)
        if dlc > len(schema.data_cols):
            raise ParseError(f"{where}: dlc {dlc} exceeds the {len(schema.data_cols)} schema data columns")

        data = bytearray()
        for k in range(dlc):
            col = schema.data_cols[k]
            if col >= len(row) or not row[col]:
                raise ParseError(f"{where}: missing data byte {k} for dlc {dlc}")
            v = _parse_cell_int(row[col], schema.data_hex, where, f"data byte {k}")
            if not 0 <= v <= 0xFF:
                raise ParseError(f"{where}: data byte {k} value {v} out of range")
            data.append(v)

        label_name = NORMAL_LABEL
        if schema.label_col is not None or schema.label_after_data:
            label_idx = schema.label_col
            if schema.label_after_data and schema.data_cols:
                # HCRL layout: on short rows the flag sits right after the
                # dlc-th data byte instead of at its fixed column
                if label_idx is None or label_idx >= len(row) or not row[label_idx]:
                    label_idx = schema.data_cols[0] + dlc
            if label_idx is None or label_idx >= len(row) or not row[label_idx]:
                raise ParseError(f"{where}: missing label column")
            raw = row[label_idx]
            label_name = schema.label_map.get(raw, raw)
            if label_space is not None and label_name not in label_space:
                raise ParseError(f"{where}: unknown label {raw!r}")
        seen_labels.add(label_name)

        frame = CanFrame(timestamp_us=ts_us, channel="csv", can_id=can_id, data=bytes(data), extended=extended)
        rows.append((frame, label_name))

    if label_space is None:
        label_space = LabelSpace(sorted(n for n in seen_labels if n != NORMAL_LABEL))
    labeled = tuple(LabeledFrame(f, label_space.get(n)) for f, n in rows)
    return TrafficLog(frames=labeled, label_space=label_space)


# ---------------------------------------------------------------------------
# Metadata-driven labeling

@dataclass(frozen=True)
class AttackMetadata:
    """One injection campaign: when it ran, which id it used, what it wrote.

    `can_id` None means any id (fuzzing captures cycle their injected ids).
    `pattern` is up to 16 hex nibbles, 'X' meaning "any value here"; a
    non-wildcard nibble beyond the frame's data length never matches.
    """

    start_us: int
    end_us: int
    attack_class: str
    can_id: int | None = None
    pattern: str = ""

    def __post_init__(self):
        if self.start_us > self.end_us:
            raise ValueError("injection interval start exceeds end")
        pat = self.pattern.upper()
        object.__setattr__(self, "pattern", pat)
        if len(pat) > 2 * MAX_DLC:
            raise ValueError(f"pattern {pat!r} longer than 16 nibbles")
        if any(c not in "0123456789ABCDEF" + NIBBLE_WILDCARD for c in pat):
            raise ValueError(f"pattern {pat!r} has characters outside hex + {NIBBLE_WILDCARD!r}")

    def matches(self, frame: CanFrame) -> bool:
        if not (self.start_us <= frame.timestamp_us <= self.end_us):
            return False
        if self.can_id is not None and frame.can_id != self.can_id:
            return False
        nibbles = frame.data.hex().upper()
        for i, p in enumerate(self.pattern):
            if p == NIBBLE_WILDCARD:
                continue
            if i >= len(nibbles) or nibbles[i] != p:
                return False
        return True

    def to_json_obj(self) -> dict:
        return {
            "injection_interval": [self.start_us / 1e6, self.end_us / 1e6],
            "injection_id": ID_WILDCARD if self.can_id is None else f"{self.can_id:03X}",
            "injection_data_str": self.pattern,
            "attack_class": self.attack_class,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "AttackMetadata":
        start, end = obj["injection_interval"]
        raw_id = obj["injection_id"]
        can_id = None if str(raw_id).upper() == ID_WILDCARD else int(str(raw_id), 16)
        return cls(
            start_us=round(float(start) * 1e6),
            end_us=round(float(end) * 1e6),
            can_id=can_id,
            pattern=obj.get("injection_data_str", ""),
            attack_class=obj["attack_class"],
        )


def load_metadata(stream: IO[str]) -> list[AttackMetadata]:
    doc = json.load(stream)
    if isinstance(doc, dict):
        doc = doc.get("attacks", [])
    return [AttackMetadata.from_json_obj(o) for o in doc]


def save_metadata(metadata: Sequence[AttackMetadata], stream: IO[str]) -> None:
    json.dump([m.to_json_obj() for m in metadata], stream, indent=2)
    stream.write("\n")


def apply_metadata_labels(
    log: TrafficLog,
    metadata: Sequence[AttackMetadata],
    label_space: LabelSpace | None = None,
) -> TrafficLog:
    """Label every frame: the matching campaign's class, or Normal.

    A frame matches a campaign when its timestamp falls in the (closed)
    injection interval, its id matches, and every non-wildcard pattern nibble
    equals the frame's. Two campaigns claiming one frame with different
    classes raise LabelAmbiguityError.
    """
    if label_space is None:
        names: list[str] = []
        for m in metadata:
            if m.attack_class not in names:
                names.append(m.attack_class)
        label_space = LabelSpace(names)

    # bucket campaigns by id so per-frame matching only scans candidates
    by_id: dict[int, list[AttackMetadata]] = {}
    wildcard_id: list[AttackMetadata] = []
    for m in metadata:
        if m.can_id is None:
            wildcard_id.append(m)
        else:
            by_id.setdefault(m.can_id, []).append(m)

    labeled = []
    for idx, f in enumerate(log):
        frame = f.frame if isinstance(f, LabeledFrame) else f
        candidates = by_id.get(frame.can_id, ())
        hits = {m.attack_class for m in candidates if m.matches(frame)}
        hits.update(m.attack_class for m in wildcard_id if m.matches(frame))
        if len(hits) > 1:
            raise LabelAmbiguityError(
                f"frame {idx} at {format_timestamp(frame.timestamp_us)} id 0x{frame.can_id:03X} "
                f"matches conflicting classes {sorted(hits)}"
            )
        name = hits.pop() if hits else NORMAL_LABEL
        labeled.append(LabeledFrame(frame, label_space.get(name)))
    return TrafficLog(frames=tuple(labeled), label_space=label_space)


def save_labels(log: TrafficLog, stream: IO[str]) -> None:
    """Write frame labels as a JSON document: the class list in label
    space order plus one class index per frame."""
    if not log.is_labeled:
        raise ValueError("log is not labeled")
    classes = log.label_space.names()
    index = {name: i for i, name in enumerate(classes)}
    doc = {
        "format_version": 1,
        "classes": classes,
        "labels": [index[f.label.name] for f in log],
    }
    stream.write(json.dumps(doc) + "\n")


def load_labels(log: TrafficLog, stream: IO[str]) -> TrafficLog:
    """Attach labels from a save_labels document to a log of equal length.

    A malformed document raises ValueError: not an object, a missing
    field, or a label that is not an index into `classes`."""
    doc = json.load(stream)
    _require_fields(doc, (), "label document")
    if doc.get("format_version") != 1:
        raise ValueError(f"unsupported label document version {doc.get('format_version')!r}")
    _require_fields(doc, ("classes", "labels"), "label document")
    classes = _name_list(doc["classes"], "label document classes")
    indices = doc["labels"]
    if not isinstance(indices, list):
        raise ValueError("label document labels must be a list of class indices")
    frames = log.can_frames()
    if len(indices) != len(frames):
        raise ValueError(
            f"label document covers {len(indices)} frames, log has {len(frames)}"
        )
    for frame_no, i in enumerate(indices):
        if type(i) is not int or not 0 <= i < len(classes):
            raise ValueError(
                f"label document frame {frame_no}: label {i!r} is not a class index "
                f"from 0 to {len(classes) - 1}"
            )
    space = LabelSpace([name for name in classes if name != NORMAL_LABEL])
    labeled = tuple(
        LabeledFrame(frame, space.get(classes[i])) for frame, i in zip(frames, indices)
    )
    return TrafficLog(frames=labeled, label_space=space)
