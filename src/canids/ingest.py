"""Parsers and serializers for CAN capture formats, plus metadata-driven labeling.

Supported inputs: candump text logs ("(ts) channel ID#DATA"), CSV-style IDS
datasets with a configurable column schema, and per-capture JSON metadata
describing injection campaigns (interval + id + payload nibble pattern).

Every reader fills the columns of a `TrafficLog` and every writer reads
them.  `parse_candump_log` reads a text stream in blocks of characters,
split into lines at "\\n", or an iterable in blocks of items, one line per
item with each inner "\\n" read as a space; either block becomes one text
in which every line ends in "\\n", and `_decode_records` decodes it with
array operations (one byte-class translate, token edges, per-shape tables
for the timestamp and id#data fields, and channel names coded by word keys
when a block has one name, else by one split and a dict); the per-line
regex parser (`_candump_fields`) reads only the lines the block decoder
refuses, to skip blank ones and to word the error of the rest.  The CSV
parser collects each row's fields into column lists.  `serialize_candump`
formats slices of the columns through the block text encoder in `core`, and
labels are per-frame class codes.  Campaigns are a table of columns too, and
`apply_metadata_labels` tests each only on the rows inside its interval,
found by binary search over the sorted timestamps.
"""

from __future__ import annotations

import json
import logging
import re
from itertools import islice
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from canids.core import (
    MAX_DLC,
    MAX_EXTENDED_ID,
    MAX_STANDARD_ID,
    NORMAL_LABEL,
    US_PER_SECOND,
    LabelSpace,
    TrafficLog,
    _BLOCK_ROWS,
    _INT64_US,
    _PAD,
    _PAD_BYTE,
    _csv_rows,
    _data_rows,
    _decimal_cells,
    _decimal_table,
    _float_cells,
    _hex_cells,
    _id_format,
    _int_cell,
    _text_cells,
    _read_field,
    _read_fields,
    _require_fields,
    _write_rows,
    format_timestamp,
)

logger = logging.getLogger(__name__)

ID_WILDCARD = "XXX"
NIBBLE_WILDCARD = "X"

_CANDUMP_RE = re.compile(
    r"^\((?P<ts>\d+(?:\.\d+)?)\)\s+(?P<channel>\S+)\s+(?P<id>[0-9A-Fa-f]+)#(?P<data>[0-9A-Fa-f]*)\s*$",
    re.ASCII,
)


class ParseError(ValueError):
    """Malformed input line or row; message carries location and reason."""


class LabelAmbiguityError(ValueError):
    """Two metadata entries assign different classes to the same frame."""


def _parse_timestamp_us(text: str, where: str) -> int:
    """Microseconds of "SECONDS[.FRACTION]" in ASCII digits, as candump writes."""
    secs, dot, frac = text.partition(".")
    if _int_cell(secs) is None or (dot and _int_cell(frac) is None):
        raise ParseError(f"{where}: unparseable timestamp {text!r}")
    if len(frac) > 6:
        raise ParseError(f"{where}: timestamp {text!r} has sub-microsecond precision")
    ts_us = int(secs) * 1_000_000 + int(frac.ljust(6, "0"))
    if ts_us >= 1 << 63:
        raise ParseError(f"{where}: timestamp {text!r} is past 2**63-1 us")
    return ts_us


def _candump_fields(line: str, where: str) -> tuple[int, str, int, bool, str]:
    """The timestamp (us), channel, id, extended flag and data hex of one
    candump record."""
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
    return ts_us, m.group("channel"), can_id, extended, data_text


def parse_candump_log(
    lines: Iterable[str] | IO[str],
    strict: bool = True,
    errors: list[str] | None = None,
) -> TrafficLog:
    """Parse a candump stream into a TrafficLog, preserving input order.

    `lines` is a text stream (anything with `read`: a file, `io.StringIO`,
    `sys.stdin`), read in blocks and split into lines at "\\n" only (a file
    opened with `open()` reads "\\r\\n" and "\\r" endings as "\\n", one
    opened with newline="" keeps them, and a lone "\\r" does not end a
    line), or an iterable of lines, one line per item with or without its
    newline (an item's inner "\\n" does not end it: it is read as a space).
    Blank lines are permitted. In strict mode (the default, since labeling
    correctness depends on complete logs) the first malformed line aborts the
    parse; in lenient mode malformed lines are skipped, counted, and reported
    through `errors` when a list is supplied.  Then a record whose timestamp
    is below the previous record's raises ParseError naming both lines.

    A stream is read _BLOCK_ROWS * 32 characters at a time, through the end
    of a line, and an iterable _BLOCK_ROWS items at a time; either block
    becomes one text in which every line ends in "\\n", and
    `_decode_records` decodes it with array operations.  The per-line parser
    runs only on the lines it refuses, to skip the blank ones and to word
    the error of the rest, quoting an item as it was passed.
    """
    channels: dict[bytes, int] = {}
    parts, masks = [], []  # per block: its columns, and which of its lines are records
    skipped = read = 0
    for text, items in _text_blocks(lines):
        ok, columns = _decode_records(text, channels)
        if len(columns[0]) < len(ok):  # a line that is no record
            block = text.split("\n") if items is None else items
            for k in (~ok).nonzero()[0].tolist():
                line, where = block[k], f"line {read + k + 1}"
                if not line.strip():
                    continue
                try:
                    _candump_fields(line, where)
                except ParseError as exc:
                    if strict:
                        raise
                    skipped += 1
                    if errors is not None:
                        errors.append(str(exc))
                else:
                    raise AssertionError(f"{where}: the block decoder refused a candump record")
        parts.append(columns)
        masks.append(ok)
        read += len(ok)
    if skipped:
        logger.warning("skipped %d malformed candump lines", skipped)
    columns = parts[0] if len(parts) == 1 else [np.concatenate(c) for c in zip(*parts)]
    # The decoder's tables prove every other rule of a log; the timestamp
    # order is checked here, to word its error by the two lines out of order.
    ts_us = columns[0]
    down = (ts_us[1:] < ts_us[:-1]).nonzero()[0]
    if len(down):
        k = down[0]
        line = np.concatenate(masks).nonzero()[0][k:k + 2] + 1
        raise ParseError(f"line {line[1]}: timestamp {format_timestamp(int(ts_us[k + 1]))} "
                         f"is below line {line[0]}'s {format_timestamp(int(ts_us[k]))}")
    return TrafficLog._assemble(*columns, [name.decode("utf-8", "surrogatepass")
                                           for name in channels])


def _text_blocks(lines: Iterable[str] | IO[str]) -> Iterator[tuple[str, list[str] | None]]:
    """Each block of the input as text in which every line ends in "\\n"
    (the first even for no input, as ""), and an iterable's items (None for
    a stream).  An item's "\\n" is written as a space: both are white space
    to the decoder and to the per-line regex, so the item stays one line."""
    if hasattr(lines, "read"):
        text = lines.read(_BLOCK_ROWS * 32)
        while True:
            if text and not text.endswith("\n"):  # on through the line, ended by "\n"
                text += lines.readline().removesuffix("\n") + "\n"
            yield text, None
            if not (text := lines.read(_BLOCK_ROWS * 32)):
                return
    lines = iter(lines)
    items = list(islice(lines, _BLOCK_ROWS))
    while True:
        yield "\n".join([item.replace("\n", " ") for item in items] + [""]), items
        if not (items := list(islice(lines, _BLOCK_ROWS))):
            return


# The block decoder.
#
# A block's text, each line ending in "\n", goes between a front pad and a
# tail of spaces (the tail also holds four one-byte sentinel tokens), and a
# gap of spaces after each newline, the front's too; the pads keep every
# fixed-width read in bounds and put only white space before a line's first
# byte.  One translate maps each byte to its class: its kind (decimal digit,
# hex letter, each punctuation mark of a record, ASCII whitespace as the
# regex's \s, or other) and a hex digit's value.  Tokens are the runs of non-space bytes, found where a space
# and a non-space byte meet: two edges per token, the byte before its first
# byte and its last byte.  A record is a line of exactly three tokens whose
# first starts the line.  The line bounds are the last bytes of the gaps,
# found from the newlines: UTF-8 holds "\n" only as the byte 0x0A.  The
# channel names are the records' middle tokens, coded by `_channel_codes`.
#
# The timestamp token is read as the _WINDOW classes that end at its ")",
# and the id#data token as the _WINDOW classes that start at its first
# byte.  Each window has a shape: its token's length (26 for any longer)
# and the column of its highest-ranked class, which is its first "." or "#"
# when it has one.  For every shape, tables give the kinds of byte each
# column may hold (_FORM), the place value of each column's digit in
# the timestamp, the id or the payload (_WEIGHT), the largest value allowed
# (_LIMIT), the dlc and the id format.  So a record is decoded by table
# lookups and one multiply-and-sum per window, whatever its shape.  A
# timestamp with more than 13 digits of seconds must begin with zeros,
# which are checked apart (_LEAD).

# Byte classes: a kind in the high four bits, ranked so that a window's
# argmax is its first ".", else its first "#", else its first other byte,
# space or "(", in that order; and a hex digit's value in the low four.
_DIGIT, _HEX, _CLOSE, _OPEN, _SPACE, _OTHER, _HASH, _DOT = range(8)
_WINDOW = 25  # 24 timestamp bytes and ")"; or 8 id digits, "#" and 16 data digits
_GAP = " " * 24
_FRONT = " " * 7 + "\n"  # 32 bytes with the gap after its newline
_TAIL = _GAP + " ~" * 4 + " " * 32
_SHAPES = 27 * _WINDOW  # shapes of one token: lengths 0..26 times columns


def _byte_classes() -> bytes:
    """The translate table of byte classes: kind << 4 | hex digit value."""
    table = bytearray([_OTHER << 4]) * 256
    for value, char in enumerate(b"0123456789"):
        table[char] = value
    for value, char in enumerate(b"abcdef", 10):
        table[char] = table[char - 32] = _HEX << 4 | value
    for char, kind in zip(b".#() \t\n\r\v\f", (_DOT, _HASH, _OPEN, _CLOSE) + (_SPACE,) * 6):
        table[char] = kind << 4
    return bytes(table)


# A _FORM cell is the set of kinds its column may hold, bit k for kind k.
_DIGIT_BIT, _HEX_BIT, _CLOSE_BIT, _OPEN_BIT, _HASH_BIT, _DOT_BIT = (
    1 << kind for kind in (_DIGIT, _HEX, _CLOSE, _OPEN, _HASH, _DOT))


def _shape_tables():
    """The per-shape tables: timestamp shapes first, then id#data shapes
    (then, in the weights and limits, the id#data shapes for the payload)."""
    form = np.zeros((2, 27, _WINDOW, _WINDOW), dtype=np.uint8)
    # The place values of the timestamp's, the id's and the payload's digits.
    weight = np.zeros((3, 27, _WINDOW, _WINDOW), dtype=np.uint64)
    limit = np.full((3, 27, _WINDOW), (1 << 64) - 1, dtype=np.uint64)
    limit[:2] = 0
    # Of the log's dtypes, so a log stores what they give without a cast.
    dlc = np.zeros((2, 27, _WINDOW), dtype=np.uint8)
    extended = np.zeros((2, 27, _WINDOW), dtype=bool)
    lead = np.zeros((27, _WINDOW), dtype=bool)
    # Timestamps: "(" at column 25 - size (left of the window from 26 on);
    # a window without "." has its argmax on its first space or "(", or on
    # ")" from 26 on.
    for size in range(3, 27):
        for dot in [None] + [d for d in range(17, 23) if d >= 27 - size]:
            at = dot if dot is not None else (0 if size < 26 else 24)
            end = 24 if dot is None else dot  # the column after the seconds
            first = max(26 - size, 0)
            row = form[0, size, at]
            row[:] = 0xFF
            if size < 26:
                row[25 - size] = _OPEN_BIT
            row[first:24] = _DIGIT_BIT
            row[24] = _CLOSE_BIT
            for j in range(first, 24):
                power = 5 + end - j if j < end else 6 + end - j
                if j == dot:
                    row[j] = _DOT_BIT
                elif power <= 18:
                    weight[0, size, at, j] = 10**power
            limit[0, size, at] = (1 << 63) - 1
            lead[size, at] = size == 26 or end - first > 13
    # id#data: a 3- or 8-digit id, "#" and an even number of up to 16 digits.
    for at in (3, 8):
        for size in range(at + 1, min(at + 18, 26), 2):
            row = form[1, size, at]
            row[:] = 0xFF
            row[:size] = _DIGIT_BIT | _HEX_BIT
            row[at] = _HASH_BIT
            weight[1, size, at, :at] = 16 ** np.arange(at - 1, -1, -1, dtype=np.uint64)
            weight[2, size, at, at + 1:size] = 16 ** np.arange(15, at + 16 - size, -1,
                                                               dtype=np.uint64)
            limit[1, size, at] = MAX_STANDARD_ID if at == 3 else MAX_EXTENDED_ID
            dlc[1, size, at] = (size - at - 1) // 2
            extended[1, size, at] = at == 8
    return (form.reshape(-1, _WINDOW), weight.reshape(-1, _WINDOW), limit.reshape(-1),
            dlc.reshape(-1), extended.reshape(-1), lead.reshape(-1))


_CLASS = _byte_classes()
_FORM, _WEIGHT, _LIMIT, _DLC, _EXTENDED, _LEAD = _shape_tables()
# _LEAD_SHIFT[at] + length: the seconds digits before the last 13.
_LEAD_SHIFT = np.array([24 - 39] + [0] * 16 + list(range(17 - 39, 23 - 39)) + [0, 24 - 39])
# _SHAPE_ROW[length] is the first shape of that length (any longer reads as 26).
_SHAPE_ROW = np.arange(27) * _WINDOW
# Operands as arrays: numpy takes an array faster than a Python scalar.
_SIX_EDGES, _ONE, _THREE_TOKENS, _GAP_SIZE = np.arange(6), np.array(1), np.array(6), np.array(len(_GAP))
# What each newline becomes, and its byte.
_NEWLINE_GAP, _NEWLINE = ("\n" + _GAP).encode(), np.array(ord("\n"), dtype=np.uint8)
# Channel-name keys: the little-endian word at a name, its first n bytes
# kept by _KEY_MASK[n].
_KEY_BYTES, _KEY_DTYPE = 8, np.dtype("<u8")
_KEY_MASK = np.array([(1 << 8 * n) - 1 for n in range(_KEY_BYTES + 1)], dtype=np.uint64)
_SPACE_CLASS, _ZERO_CLASS, _KIND_SHIFT, _VALUE_BITS, _BIT = (
    np.array(v, dtype=np.uint8) for v in (_SPACE << 4, 0, 4, 0xF, 1))
# Three windows: the timestamp's, ending at ")"; the id#data token's, read
# once for the id and once for the payload.
_CELL_EDGES, _CELL_SHIFT, _SHAPE_BASE = np.array([[1, 4, 4], [-24, 1, 1], [0, 1, 2]])
_SHAPE_BASE *= _SHAPES
_CELL_SIZE, _CELL_AT = np.array([[0, 2, 2], [0, 1, 1]])


def _runs(stop: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The positions of runs of count[i] positions that end before stop[i],
    one run after another."""
    taken = (stop - np.add.accumulate(count)).repeat(count)
    taken += np.arange(len(taken))
    return taken


def _decode_records(text: str, channels: dict[bytes, int]) -> tuple[np.ndarray, list]:
    """Which lines of a block hold a candump record (as `_candump_fields`
    would decide), as a mask, and the columns of those records: timestamp
    (us), id, extended flag, dlc, zero-padded payload and channel code,
    each contiguous and of the log's dtype.  `text` is the block, every line
    ending in "\\n" (see `_text_blocks`).  New channel names join
    `channels`, as UTF-8 bytes."""
    raw = (_FRONT + text + _TAIL).encode("utf-8", "surrogatepass").replace(b"\n", _NEWLINE_GAP)
    # The edges before each line's first byte and after the last line.
    bound = (np.frombuffer(raw, dtype=np.uint8) == _NEWLINE).nonzero()[0] + _GAP_SIZE
    lines = len(bound) - 1
    classes = raw.translate(_CLASS)
    space = np.frombuffer(classes, dtype=np.uint8) == _SPACE_CLASS
    edges = (space[1:] != space[:-1]).nonzero()[0]
    # A gap holds no edge, so a line has two edges per token.
    first = edges.searchsorted(bound)
    pos = edges.take(first[:-1, None] + _SIX_EDGES)  # of the first three tokens
    size = pos[:, 1::2] - pos[:, 0::2]
    window = np.ndarray((len(classes) - _WINDOW + 1, _WINDOW), np.uint8, classes, 0, (1, 1))
    cells = window[pos.take(_CELL_EDGES, axis=1) + _CELL_SHIFT]  # (n, 3, _WINDOW)
    at = cells[:, :2].argmax(axis=2).take(_CELL_AT, axis=1)
    shape = _SHAPE_ROW.take(size.take(_CELL_SIZE, axis=1), mode="clip") + at + _SHAPE_BASE
    value = np.einsum("nck,nck->nc", cells & _VALUE_BITS, _WEIGHT.take(shape, axis=0))
    fits = value <= _LIMIT.take(shape)
    allowed = _FORM.take(shape[:, :2], axis=0) >> (cells[:, :2] >> _KIND_SHIFT) & _BIT
    ok = np.logical_and.reduce(allowed.reshape(lines, 2 * _WINDOW), axis=1)
    ok &= fits[:, 0] & fits[:, 1] & (pos[:, 0] == bound[:-1]) & (
        first[1:] - first[:-1] == _THREE_TOKENS)
    # Seconds of more than 13 digits: the digits before the last 13 are zeros.
    long = _LEAD.take(shape[:, 0]).nonzero()[0]
    if len(long):
        count = size[long, 0] + _LEAD_SHIFT.take(at[long, 0])
        offset = count.cumsum() - count
        where = _runs(pos[long, 0] + 2 + count, count)
        cls = np.frombuffer(classes, dtype=np.uint8)
        ok[long] &= ~np.logical_or.reduceat(cls.take(where) != _ZERO_CLASS, offset) & (
            cls.take(pos[long, 0] + 1) == _OPEN << 4)

    rows = ok.nonzero()[0]
    if len(rows) < lines:
        pos, value, shape = (a.take(rows, axis=0) for a in (pos, value, shape))
    record = shape[:, 1]
    return ok, [value[:, 0].astype(np.int64), value[:, 1].astype(np.uint32),
                _EXTENDED.take(record), _DLC.take(record),
                value[:, 2:].astype(">u8").view(np.uint8),
                _channel_codes(raw, pos[:, 2] + _ONE, pos[:, 3] - pos[:, 2], channels)]


def _channel_codes(raw: bytes, start: np.ndarray, length: np.ndarray,
                   channels: dict[bytes, int]) -> np.ndarray:
    """The codes of the name tokens at `start` of `raw`, `length` bytes
    each; names not in `channels` join it in order of first appearance.

    A block of one name of up to 8 bytes is found by its names' lengths and
    the words that start at them, masked to that length.  Any other block
    splits the names out of the text on ASCII whitespace, exactly the
    _SPACE bytes, and codes them by a dict."""
    if len(start) and (length == length[0]).all() and length[0] <= _KEY_BYTES:
        word = np.ndarray((len(raw) - _KEY_BYTES + 1,), _KEY_DTYPE, raw, 0, (1,))
        key = word.take(start) & _KEY_MASK[length[0]]
        if (key == key[0]).all():
            name = raw[start[0]:start[0] + length[0]]
            return np.full(len(key), channels.setdefault(name, len(channels)), dtype=np.int64)
    byte = np.frombuffer(raw, dtype=np.uint8)
    names = byte.take(_runs(start + length, length + _ONE)).tobytes().split()
    for name in dict.fromkeys(names):
        channels.setdefault(name, len(channels))
    return np.fromiter(map(channels.__getitem__, names), dtype=np.int64, count=len(names))


# Pad bytes over the hex digits hidden of a standard (row 0) or extended
# (row 1) id, and of each payload length.  A cell ORs its row in: the pad
# byte has every bit set, and 0 leaves a digit as it is.
_ID_PAD = (np.arange(8) < np.array([[5], [0]])).astype(np.uint8) * _PAD
_DATA_PAD = (np.arange(2 * MAX_DLC) >= 2 * np.arange(MAX_DLC + 1)[:, None]).astype(np.uint8) * _PAD


def serialize_candump(log: TrafficLog, stream: IO[str]) -> None:
    """Write a log in candump text form; parse_candump_log inverts it field-for-field.

    Each line is "(SECONDS.MICROS) CHANNEL ID#DATA" in upper-case hex, the
    id 3 digits wide or 8 for an extended frame.  Rows are encoded a block at
    a time from slices of the log's columns."""

    def encode_block(lo: int, hi: int) -> list:
        # One decimal table of at least 7 digits holds the whole timestamp;
        # its last six digits are the microseconds.
        stamp = _decimal_table(log.ts_us[lo:hi], digits=7)
        can_id = _hex_cells(log.can_id[lo:hi].astype(">u4").view(np.uint8).reshape(-1, 4))
        can_id |= _ID_PAD.take(log.extended[lo:hi].view(np.uint8), axis=0)
        data = _hex_cells(log.data[lo:hi])
        data |= _DATA_PAD.take(log.dlc[lo:hi], axis=0)
        return [b"(", stamp[:, :-6], b".", stamp[:, -6:], b") ",
                _text_cells(log.channels, log.channel[lo:hi]), b" ", can_id, b"#", data, b"\n"]

    _write_rows(stream, len(log), encode_block)


# ---------------------------------------------------------------------------
# CSV-style IDS datasets (the HCRL layout and other fixed column schemas)

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
    label_map: dict[str, str] = field(default_factory=dict)

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


def parse_csv_dataset(
    lines: Iterable[str],
    schema: CsvSchema,
    label_space: LabelSpace | None = None,
) -> TrafficLog:
    """Parse a labeled CSV dataset into a labeled TrafficLog on channel "csv".

    Rows and cells are read as by the other CSV readers (`core`). Data
    bytes beyond the row's dlc are dropped. Unknown labels and rows of the
    wrong arity raise ParseError with the row index.
    """
    needed = max([schema.timestamp_col, schema.id_col]
                 + ([schema.dlc_col] if schema.dlc_col is not None else []))
    ts_col, id_col, dlc_col, data_col, label_col = [], [], [], [], []
    for rowno, row in _data_rows(_csv_rows(lines, ParseError)):
        where = f"row {rowno}"
        if len(row) <= needed:
            raise ParseError(f"{where}: expected at least {needed + 1} columns, got {len(row)}")

        ts_us = _parse_timestamp_us(row[schema.timestamp_col], where)
        can_id = _int_cell(row[schema.id_col], 16)
        if can_id is None:
            raise ParseError(f"{where}: unparseable id {row[schema.id_col]!r}")
        if can_id > MAX_EXTENDED_ID:
            raise ParseError(f"{where}: id {can_id:#x} exceeds the 29-bit space")

        if schema.dlc_col is not None:
            dlc = _int_cell(row[schema.dlc_col])
            if dlc is None:
                raise ParseError(f"{where}: unparseable dlc {row[schema.dlc_col]!r}")
        else:  # the data columns the row holds, less a trailing label cell
            held = len(row) - schema.label_after_data
            dlc = sum(col < held for col in schema.data_cols)
        if dlc > len(schema.data_cols):
            raise ParseError(f"{where}: dlc {dlc} exceeds the {len(schema.data_cols)} schema data columns")

        cells = [row[col] if col < len(row) else "" for col in schema.data_cols[:dlc]]
        data = [_int_cell(cell, 16) for cell in cells]
        bad = [k for k, v in enumerate(data) if v is None or v > 0xFF]
        if bad:
            raise ParseError(f"{where}: unparseable data byte {bad[0]} {cells[bad[0]]!r} (dlc {dlc})")

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
        ts_col.append(ts_us)
        id_col.append(can_id)
        dlc_col.append(dlc)
        data_col.append(bytes(data).ljust(MAX_DLC, b"\0"))
        label_col.append(label_name)

    if label_space is None:
        label_space = LabelSpace(sorted(set(label_col) - {NORMAL_LABEL}))
    codes = {name: i for i, name in enumerate(label_space.names())}
    ids = np.array(id_col, dtype=np.int64)
    return TrafficLog._from_columns(
        ts_col, ids, ids > MAX_STANDARD_ID, dlc_col,
        np.frombuffer(b"".join(data_col), dtype=np.uint8).reshape(-1, MAX_DLC),
        np.zeros(len(ids), dtype=np.int64), ("csv",), [codes[n] for n in label_col], label_space)


# ---------------------------------------------------------------------------
# Metadata-driven labeling


def _pattern_bytes(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For pattern cells: uint8 (n, 8) tables of the payload bits each
    pattern fixes and of their values (zero where not fixed), and the
    payload length each needs to reach its last fixed byte."""
    chars = cells.reshape(-1, MAX_DLC, 2)
    fixed = (chars != ord(NIBBLE_WILDCARD)) & (chars != _PAD)
    nibble = np.where(chars >= ord("A"), chars - (ord("A") - 10), chars - ord("0")) * fixed
    mask = fixed[..., 0] * np.uint8(0xF0) | fixed[..., 1] * np.uint8(0x0F)
    need = (np.arange(1, MAX_DLC + 1) * (mask > 0)).max(axis=1, initial=0)
    return mask, nibble[..., 0] << 4 | nibble[..., 1], need


@dataclass(frozen=True)
class AttackMetadata:
    """One injection campaign: when it ran, which id it used, what it wrote.

    `can_id` None means any id, of either format; `extended` None takes the format
    from the id (past 11 bits: extended).  `pattern` is up to 16 hex nibbles, 'X'
    meaning "any value here"; a fixed nibble past the frame's data length never matches.
    """

    start_us: int
    end_us: int
    attack_class: str
    can_id: int | None = None
    pattern: str = ""
    extended: bool | None = None

    def __post_init__(self):
        _read_fields(self, "attack metadata", start_us="integer", end_us="integer",
                     attack_class="text other than Normal", can_id="integer or null",
                     pattern="pattern", extended="flag or null")
        if not -(1 << 63) <= self.start_us <= self.end_us < 1 << 63:
            raise ValueError("injection interval must run forward within 64-bit microseconds")
        if self.can_id is not None and not 0 <= self.can_id <= MAX_EXTENDED_ID:
            raise ValueError(f"injection id {self.can_id!r} is outside the 29-bit space")
        object.__setattr__(self, "extended", _id_format("attack metadata", self.can_id, self.extended))

    def to_json_obj(self) -> dict:
        return {
            "injection_interval": [self.start_us / 1e6, self.end_us / 1e6],
            "injection_id": ID_WILDCARD if self.can_id is None
            else f"{self.can_id:0{8 if self.extended else 3}X}",  # as candump writes ids
            "injection_data_str": self.pattern,
            "attack_class": self.attack_class,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "AttackMetadata":
        """The campaign an entry describes (an id of 8 hex digits is extended); a
        malformed entry raises ValueError naming the field."""
        _require_fields(obj, ("injection_interval", "injection_id", "attack_class"), "entry")
        # Fields are named alone: load_metadata names the entry.
        interval = _read_field("", "injection_interval", obj["injection_interval"],
                               "list of number within int64 us")
        if len(interval) != 2:
            raise ValueError(f"injection_interval {obj['injection_interval']!r} is not [start, end] "
                             "in seconds")
        can_id = _read_field("", "injection_id", obj["injection_id"], "text")
        return cls(
            start_us=round(interval[0] * 1e6),
            end_us=round(interval[1] * 1e6),
            can_id=None if can_id.upper() == ID_WILDCARD else _read_field("", "injection_id", can_id, "id"),
            pattern=_read_field("", "injection_data_str", obj.get("injection_data_str", ""), "pattern"),
            attack_class=_read_field("", "attack_class", obj["attack_class"], "text other than Normal"),
            extended=len(can_id) == 8 or None,
        )


class _Campaigns(Sequence):
    """Campaigns as columns, rows viewed as AttackMetadata: int64 (n, 2) `us`, int64 `cls` codes
    into `classes` (by first appearance), int64 `can_id` (-1: any), bool `extended`, `pattern` cells."""

    def __init__(self, us, cls, classes: list[str], can_id, extended, pattern):
        self.us, self.cls, self.classes = us, cls, classes
        self.can_id, self.extended, self.pattern = can_id, extended, pattern

    def __len__(self) -> int:
        return len(self.us)

    def __getitem__(self, i):
        rows = i if isinstance(i, slice) else [range(len(self))[i]]
        views = [AttackMetadata(s, e, self.classes[c], None if ident < 0 else ident,
                                p.tobytes().translate(None, _PAD_BYTE).decode(), x)
                 for (s, e), c, ident, x, p in zip(*[column[rows].tolist() for column in (
                     self.us, self.cls, self.can_id, self.extended)], self.pattern[rows])]
        return views if isinstance(rows, slice) else views[0]

    def __eq__(self, other):
        return self[:] == list(other) if isinstance(other, Sequence) else NotImplemented

    def __repr__(self) -> str:
        return f"_Campaigns({self[:]!r})"


def _pattern_cells(patterns: Iterable[str]) -> np.ndarray:
    """Checked patterns as uint8 (n, 16) cells: one character per nibble, the pad byte past the end."""
    cells = "".join(p.ljust(2 * MAX_DLC) for p in patterns).encode().replace(b" ", _PAD_BYTE)
    return np.frombuffer(cells, dtype=np.uint8).reshape(-1, 2 * MAX_DLC)


def _campaigns(metadata: Sequence[AttackMetadata]) -> _Campaigns:
    """The table of campaigns: the one place the library reads AttackMetadata objects."""
    if isinstance(metadata, _Campaigns):
        return metadata
    classes = list(dict.fromkeys(m.attack_class for m in metadata))
    code = {name: i for i, name in enumerate(classes)}
    return _Campaigns(
        np.array([(m.start_us, m.end_us) for m in metadata], dtype=np.int64).reshape(-1, 2),
        np.array([code[m.attack_class] for m in metadata], dtype=np.int64),
        classes,
        np.array([-1 if m.can_id is None else m.can_id for m in metadata], dtype=np.int64),
        np.array([m.extended for m in metadata], dtype=bool),
        _pattern_cells(m.pattern for m in metadata))


def load_metadata(stream: IO[str]) -> Sequence[AttackMetadata]:
    """Read campaigns from a JSON list of entries, or from the "attacks"
    list of a JSON object, as a read-only sequence of AttackMetadata (a
    list before 0.2.0).  A malformed document raises ValueError naming
    the entry and field."""
    doc = json.load(stream)
    if isinstance(doc, dict):
        doc = doc.get("attacks", [])
    if not isinstance(doc, list):
        raise ValueError("metadata must be a list of attack entries")
    campaigns = []
    for k, obj in enumerate(doc):
        try:
            campaigns.append(AttackMetadata.from_json_obj(obj))
        except ValueError as exc:
            raise ValueError(f"metadata entry {k}: {exc}") from None
    return _campaigns(campaigns)


def save_metadata(metadata: Sequence[AttackMetadata], stream: IO[str]) -> None:
    """Write campaigns as the text of json.dump(entries, indent=2) + "\\n",
    each entry a campaign's `to_json_obj()`, by the block encoder in `core`.

    A campaign whose interval would not read back as the same microseconds
    raises ValueError naming it, before anything is written."""
    table = _campaigns(metadata)
    seconds = table.us / 1e6
    ok = np.abs(seconds * US_PER_SECOND) < _INT64_US
    # Compared as int64: float64 would read 2**53 + 1 us as 2**53.
    ok &= np.rint(np.where(ok, seconds, 0) * 1e6).astype(np.int64) == table.us
    bad = np.flatnonzero(~ok.all(axis=1))
    if len(bad):
        start_us, end_us = table.us[bad[0]]
        raise ValueError(f"campaign {bad[0]}: injection interval [{start_us}, {end_us}] "
                         "us does not read back from seconds")
    stream.write("[\n" if len(table) else "[]\n")
    bounds, codes = _float_cells(seconds)
    ident = _hex_cells(table.can_id.astype(">u4").view(np.uint8).reshape(-1, 4))
    ident |= _ID_PAD.take(table.extended.view(np.uint8), axis=0)
    ident[table.can_id < 0] = np.frombuffer(_PAD_BYTE * 5 + ID_WILDCARD.encode(), dtype=np.uint8)
    classes = _text_cells([json.dumps(name) for name in table.classes], None)[0]
    ends = _text_cells([",\n", "\n]\n"], None)[0]  # after each entry, and after the last
    _write_rows(stream, len(table), lambda lo, hi: [
        b'  {\n    "injection_interval": [\n      ', (bounds, codes[lo:hi, 0]), b",\n      ",
        (bounds, codes[lo:hi, 1]), b'\n    ],\n    "injection_id": "', ident[lo:hi],
        b'",\n    "injection_data_str": "', table.pattern[lo:hi], b'",\n    "attack_class": ',
        (classes, table.cls[lo:hi]), b"\n  }", (ends, np.arange(lo + 1, hi + 1) // len(table))])


def apply_metadata_labels(
    log: TrafficLog,
    metadata: Sequence[AttackMetadata],
    label_space: LabelSpace | None = None,
) -> TrafficLog:
    """Label every frame: the matching campaign's class, or Normal.

    A frame matches a campaign when its timestamp falls in the (closed)
    injection interval, its id matches in value and format (a wildcard in
    either), and every non-wildcard pattern nibble equals the frame's. Two
    campaigns claiming one frame with different classes raise LabelAmbiguityError.

    Each campaign's interval is a row range of the time-sorted log, found
    by binary search; only the (campaign, row) pairs inside those ranges
    are tested, by comparing masked payload bytes against each campaign's
    fixed nibbles.
    """
    table = _campaigns(metadata)
    if label_space is None:
        label_space = LabelSpace(table.classes)
    lo = np.searchsorted(log.ts_us, table.us[:, 0], side="left")
    sizes = np.searchsorted(log.ts_us, table.us[:, 1], side="right") - lo
    ends = np.cumsum(sizes)

    # The pairs are numbered campaign after campaign; pair p is of campaign k.
    pair = np.arange(sizes.sum())
    k = np.searchsorted(ends, pair, side="right")
    row = lo[k] + pair - (ends[k] - sizes[k])
    want_id = table.can_id[k]
    id_ok = (want_id < 0) | (log.can_id[row] == want_id) & (log.extended[row] == table.extended[k])
    byte_mask, byte_value, need = _pattern_bytes(table.pattern)
    # A fixed nibble past the frame's dlc never matches.
    match = id_ok & (log.dlc[row] >= need[k]) & (
        (log.data[row] & byte_mask[k]) == byte_value[k]).all(axis=1)
    # (row, class) pairs as one key: a 1-D unique is several times faster than one by rows.
    n_classes = max(len(table.classes), 1)
    rows, classes = np.divmod(np.unique(row[match] * n_classes + table.cls[k[match]]), n_classes)
    conflict = np.flatnonzero(rows[1:] == rows[:-1])
    if len(conflict):
        idx = int(rows[conflict[0]])
        names = sorted(table.classes[c] for c in classes[rows == idx])
        raise LabelAmbiguityError(f"frame {idx} at {format_timestamp(int(log.ts_us[idx]))} "
                                  f"id 0x{int(log.can_id[idx]):03X} matches conflicting classes {names}")
    codes = {name: i for i, name in enumerate(label_space.names())}
    label = np.full(len(log), codes[NORMAL_LABEL], dtype=np.int64)
    label[rows] = np.array([codes.get(name, -1) for name in table.classes], dtype=np.int64)[classes]
    return TrafficLog._from_columns(**log._columns(), channels=log.channels, label=label,
                                    label_space=label_space)


def save_labels(log: TrafficLog, stream: IO[str]) -> None:
    """Write frame labels as a JSON document: the class list in label
    space order plus one class index per frame."""
    if not log.is_labeled:
        raise ValueError("log is not labeled")
    # The text of json.dumps(doc) + "\n": the document with no labels up to
    # the opening bracket of "labels", its last field, then the first label
    # and the others, each after ", ", through the block writer.
    doc = {"format_version": 1, "classes": log.label_space.names(), "labels": []}
    head, labels = json.dumps(doc).removesuffix("]}"), log.label
    stream.write(head + (str(int(labels[0])) if len(labels) else ""))
    _write_rows(stream, max(len(labels) - 1, 0),
                lambda lo, hi: [b", ", _decimal_cells(labels[lo + 1 : hi + 1])])
    stream.write("]}\n")


def load_labels(log: TrafficLog, stream: IO[str]) -> TrafficLog:
    """Attach labels from a save_labels document to a log of equal length.

    A malformed document raises ValueError: not an object, a missing
    field, a class named twice, or a label that is not an index into
    `classes`."""
    doc = json.load(stream)
    _require_fields(doc, (), "label document")
    if doc.get("format_version") != 1:
        raise ValueError(f"unsupported label document version {doc.get('format_version')!r}")
    _require_fields(doc, ("classes", "labels"), "label document")
    classes = _read_field("label document", "classes", doc["classes"], "list of text")
    names = sorted(classes)
    repeated = [a for a, b in zip(names, names[1:]) if a == b]
    if repeated:
        raise ValueError(f"label document field 'classes': {repeated[0]!r} is named more than once")
    indices = doc["labels"]
    if not isinstance(indices, list):
        raise ValueError("label document labels must be a list of class indices")
    if len(indices) != len(log):
        raise ValueError(
            f"label document covers {len(indices)} frames, log has {len(log)}"
        )
    labels = np.zeros(0, dtype=np.int64)
    if indices:
        # Whole-list checks (numpy reads an int past int64 as another
        # dtype); the scan for the first bad label only words the error.
        if set(map(type, indices)) == {int}:
            labels = np.array(indices)
        if (len(labels) < len(indices) or labels.dtype.kind != "i" or labels.min() < 0
                or labels.max() >= len(classes)):
            bad = next(k for k, i in enumerate(indices)
                       if type(i) is not int or not 0 <= i < len(classes))
            raise ValueError(
                f"label document frame {bad}: label {indices[bad]!r} is not a class index "
                f"from 0 to {len(classes) - 1}"
            )
    space = LabelSpace([name for name in classes if name != NORMAL_LABEL])
    codes = np.array([space.names().index(name) for name in classes], dtype=np.int64)
    # The labels are checked above and the log's columns were checked when
    # it was built, so they are shared, not copied or checked again.
    return TrafficLog._assemble(**log._columns(), channels=log.channels, label=codes[labels],
                                label_space=space)
