import io
import json
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids.core import _BLOCK_ROWS, CanFrame, LabeledFrame, LabelSpace, TrafficLog, format_timestamp
from canids import core, ingest
from canids.ingest import (
    AttackMetadata,
    CsvSchema,
    LabelAmbiguityError,
    ParseError,
    apply_metadata_labels,
    hcrl_schema,
    load_labels,
    load_metadata,
    parse_candump_line,
    parse_candump_log,
    parse_csv_dataset,
    save_labels,
    save_metadata,
    serialize_candump,
    serialize_candump_line,
)

EXAMPLE_LINE = "(1040000000.000682) can0 0BA#04B7EC04000602C8"


class TestCandumpLine:
    def test_reference_line(self):
        f = parse_candump_line(EXAMPLE_LINE)
        assert f.timestamp_us == 1_040_000_000_000_682
        assert f.timestamp == 1040000000.000682
        assert f.channel == "can0"
        assert f.can_id == 0x0BA
        assert not f.extended
        assert f.dlc == 8
        assert f.data == bytes.fromhex("04B7EC04000602C8")

    def test_empty_payload(self):
        f = parse_candump_line("(0.000000) can0 000#")
        assert f.timestamp_us == 0
        assert f.can_id == 0
        assert f.dlc == 0
        assert f.data == b""

    def test_extended_id_roundtrip(self):
        f = parse_candump_line("(1.5) vcan0 1FFFFFFF#FF")
        assert f.extended
        assert f.can_id == 0x1FFFFFFF
        assert f.dlc == 1
        line = serialize_candump_line(f)
        again = parse_candump_line(line)
        assert again == f

    @pytest.mark.parametrize(
        "bad",
        [
            "1040000000.000682 can0 0BA#04",  # missing parens
            "(abc) can0 0BA#04",  # bad timestamp
            "(1.0) can0 0BA#0",  # odd data hex
            "(1.0) can0 0BAF#00",  # 4-digit id
            "(1.0) can0 FFF#00",  # 3 digits but beyond 11 bits
            "(1.0) can0 0BA#000102030405060708",  # 9 bytes
            "(1.0) can0 0BA!00",  # no hash
            "(1.0.0) can0 0BA#00",  # mangled timestamp
            "(1.1234567) can0 0BA#00",  # sub-microsecond precision
            "(1040000000.00068\u0663) can0 123#0102",  # Arabic-Indic digit three
            "(\uff11040000000.000682) can0 123#0102",  # fullwidth digit one
            "(9223372036854.775808) can0 0BA#00",  # past a 64-bit microsecond count
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_candump_line(bad, lineno=7)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 42"):
            parse_candump_line("garbage", lineno=42)

    def test_seconds_past_the_int_string_limit_are_a_parse_error(self):
        """int() refuses more than 4,300 digits with a ValueError that names
        no line."""
        with pytest.raises(ParseError, match="line 1: unparseable timestamp"):
            parse_candump_log(io.StringIO(f"({'9' * 5000}.000000) can0 123#00\n"))
        with pytest.raises(ParseError, match="row 1: unparseable timestamp"):
            parse_csv_dataset([f"{'9' * 5000}.0,010,00"], CsvSchema(0, 1, data_cols=(2,)))


class TestCandumpLog:
    def test_order_preserved_and_blank_lines(self):
        text = "(1.0) can0 100#AA\n\n(2.0) can0 200#BB\n"
        log = parse_candump_log(io.StringIO(text))
        assert len(log) == 2
        assert [f.can_id for f in log] == [0x100, 0x200]

    def test_strict_mode_aborts(self):
        text = "(1.0) can0 100#AA\nbroken\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_candump_log(io.StringIO(text))

    def test_lenient_mode_skips_and_counts(self):
        text = "(1.0) can0 100#AA\nbroken\n(2.0) can0 200#BB\n"
        errs = []
        log = parse_candump_log(io.StringIO(text), strict=False, errors=errs)
        assert len(log) == 2
        assert len(errs) == 1
        assert "line 2" in errs[0]

    def test_serialize_parse_identity(self):
        frames = (
            CanFrame(0, "can0", 0x000, b""),
            CanFrame(1_500_000, "vcan0", 0x1FFFFFFF, b"\xff", extended=True),
            CanFrame(1_040_000_000_000_682, "can0", 0x0BA, bytes.fromhex("04B7EC04000602C8")),
        )
        log = TrafficLog(frames=frames)
        buf = io.StringIO()
        serialize_candump(log, buf)
        again = parse_candump_log(io.StringIO(buf.getvalue()))
        assert again.frames == log.frames


@st.composite
def can_frames(draw, max_ts_us=10**13):
    extended = draw(st.booleans())
    can_id = draw(st.integers(0, 0x1FFFFFFF if extended else 0x7FF))
    data = draw(st.binary(min_size=0, max_size=8))
    ts = draw(st.integers(0, max_ts_us))
    channel = draw(st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True))
    return CanFrame(ts, channel, can_id, data, extended=extended)


@st.composite
def traffic_logs(draw, max_frames=8):
    frames = draw(st.lists(can_frames(), min_size=0, max_size=max_frames))
    frames.sort(key=lambda f: f.timestamp_us)
    return TrafficLog(frames=tuple(frames))


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(traffic_logs())
    def test_serialize_then_parse_is_identity(self, log):
        buf = io.StringIO()
        serialize_candump(log, buf)
        again = parse_candump_log(io.StringIO(buf.getvalue()))
        assert again.frames == log.frames


def reference_serialize_candump(log, stream):
    """The per-frame writer that serialize_candump replaced, kept as its oracle."""
    for f in log:
        cf = f.frame if isinstance(f, LabeledFrame) else f
        stream.write(serialize_candump_line(cf) + "\n")


def candump_text(writer, log):
    buf = io.StringIO()
    writer(log, buf)
    return buf.getvalue()


def mixed_log(n, seed):
    """n frames over three channels, standard and extended ids, every dlc."""
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.integers(0, 3_000_000, size=n))
    extended = rng.random(n) < 0.3
    ids = np.where(extended, rng.integers(0, 1 << 29, size=n), rng.integers(0, 1 << 11, size=n))
    payload = rng.integers(0, 256, size=(n, 8), dtype=np.uint8)
    dlc = rng.integers(0, 9, size=n)
    channels = ["can0", "vcan12", "x"]
    return TrafficLog(tuple(
        CanFrame(int(ts[i]), channels[i % 3], int(ids[i]), payload[i, : dlc[i]].tobytes(),
                 extended=bool(extended[i]))
        for i in range(n)
    ))


class TestBlockCandumpWriter:
    """serialize_candump writes exactly serialize_candump_line per frame."""

    @settings(max_examples=200, deadline=None)
    @given(traffic_logs(max_frames=20), st.booleans())
    def test_matches_line_serializer(self, log, labeled):
        if labeled:
            space = LabelSpace(["A"])
            log = TrafficLog(tuple(LabeledFrame(f, space.get("A")) for f in log), space)
        assert candump_text(serialize_candump, log) == candump_text(
            reference_serialize_candump, log
        )

    @settings(max_examples=300, deadline=None)
    @given(st.booleans(), st.binary(max_size=8),
           st.one_of(st.just(0), st.integers(0, 10**13), st.integers(10**16, 2**63 - 1)))
    def test_one_frame_log_is_the_line(self, extended, data, ts_us):
        """Timestamps of 0 and of 1e10 s and more, extended ids, empty payloads."""
        frame = CanFrame(ts_us, "can0", 0x1ABCDEF0 if extended else 0x7F0, data, extended=extended)
        text = candump_text(serialize_candump, TrafficLog((frame,)))
        assert text == serialize_candump_line(frame) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 10) | st.integers(2**63 - 10, 2**63 - 1) | st.integers(0, 2**63 - 1),
        st.text(alphabet="c0\u00e9\u4e2d", min_size=1, max_size=3), can_frames()), max_size=12),
        st.sampled_from([1, 2, 3, 5]))
    def test_matches_line_serializer_at_any_block_size(self, rows, block_rows):
        """Timestamps at both ends of their range, non-ASCII channel names,
        blocks of a few rows."""
        log = TrafficLog(tuple(CanFrame(ts, channel, f.can_id, f.data, f.extended)
                               for ts, channel, f in sorted(rows, key=lambda r: r[0])))
        with mock.patch.object(core, "_BLOCK_ROWS", block_rows):
            assert candump_text(serialize_candump, log) == candump_text(
                reference_serialize_candump, log)

    @pytest.mark.parametrize("n", [0, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_across_block_boundaries(self, n):
        log = mixed_log(n, seed=n)
        text = candump_text(serialize_candump, log)
        assert text == candump_text(reference_serialize_candump, log)
        assert parse_candump_log(io.StringIO(text)).frames == log.frames

    def test_lone_surrogate_channel_round_trips(self):
        """The parser takes a channel name holding a lone surrogate, so the
        block writer must write it as serialize_candump_line does."""
        text = "(1.000000) can\udc80 123#00\n(2.000000) can0 1ABCDEF0#\n"
        log = parse_candump_log(io.StringIO(text))
        assert log.channels == ("can\udc80", "can0")
        written = candump_text(serialize_candump, log)
        assert written == text
        assert parse_candump_log(io.StringIO(written)).frames == log.frames


def reference_parse_candump_log(lines, strict=True, errors=None):
    """The per-line parse that the block decoder replaced, kept as its
    oracle: every non-blank line through _candump_fields, in order; then
    the records' timestamps must not fall."""
    rows, numbers, skipped = [], [], 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rows.append(ingest._candump_fields(line, f"line {lineno}"))
            numbers.append(lineno)
        except ParseError as exc:
            if strict:
                raise
            skipped += 1
            if errors is not None:
                errors.append(str(exc))
    if skipped:
        ingest.logger.warning("skipped %d malformed candump lines", skipped)
    for k in range(1, len(rows)):
        if rows[k][0] < rows[k - 1][0]:
            raise ParseError(f"line {numbers[k]}: timestamp {format_timestamp(rows[k][0])} "
                             f"is below line {numbers[k - 1]}'s {format_timestamp(rows[k - 1][0])}")
    return TrafficLog(tuple(CanFrame(ts, channel, can_id, bytes.fromhex(data), extended=extended)
                            for ts, channel, can_id, extended, data in rows))


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def parse_outcome(parse, lines, strict):
    """Everything a caller can observe of one parse: the columns and
    channel names or the exception text, the errors list and the warnings."""
    errors, records = [], _Records()
    ingest.logger.addHandler(records)
    try:
        log = parse(lines, strict=strict, errors=errors)
        result = (tuple(log._columns()[name].tolist() for name in
                        ("ts_us", "can_id", "extended", "dlc", "data", "channel")), log.channels)
    except ValueError as exc:
        result = (type(exc).__name__, str(exc))
    finally:
        ingest.logger.removeHandler(records)
    return result, errors, records.messages


SPACES = " \t\n\r\f\v"


def often(draw, valid, *odd):
    """valid, or one of the odd cases one time in four."""
    return draw(st.sampled_from(odd)) if odd and draw(st.integers(0, 3)) == 0 else valid


@st.composite
def stamp_texts(draw, ts_us):
    """ts_us as candump writes it or as the regex still reads it (leading
    zeros, a short or missing fraction), or an edge case."""
    secs, frac = divmod(ts_us, 1_000_000)
    secs = "0" * draw(st.sampled_from([0, 0, 1, 14, 40])) + str(secs)
    frac = f"{frac:06d}"
    return often(draw, f"{secs}.{frac}", f"{secs}.{frac[:draw(st.integers(1, 5))]}", secs,
                 f"{secs}.{frac}0", f"{secs}.", f".{frac}", f"{secs}..{frac}", f"{secs}.{frac}.1",
                 "", "9223372036854.775807", "9223372036854.775808", "9223372036855",
                 "09223372036854.7758", "10000000000000", "9999999999999.999999")


@st.composite
def candump_lines(draw, ts_us):
    """A record with each field drawn from valid and odd values; one time in
    four a character is then replaced, inserted or cut, or the line is cut."""
    extended = draw(st.booleans())
    can_id = f"{draw(st.integers(0, 0x1FFFFFFF if extended else 0x7FF)):0{8 if extended else 3}X}"
    can_id = often(draw, draw(st.sampled_from([can_id, can_id.lower()])), "800", "fff",
                   "20000000", "1fffffff", "12", "1234", "123456789", "", "0x1")
    data = draw(st.binary(max_size=8)).hex()
    data = often(draw, draw(st.sampled_from([data, data.upper()])), data + "A", "00" * 9, "0g")
    # Names the decoder must not cut or merge: long ones that differ only in
    # their last byte, and bytes (0x85 of U+0145's UTF-8, and 0x1c) that a
    # split of decoded text would take for whitespace, unlike the regex.
    channel = often(draw, "can0", "vcan12", "can0" * 3, "abcdefgh", "abcdefgi", "c", "c\x00",
                    "c\x00\x00", "\u00e9t\u00e9", "\ud800", "x#(", "\u3000", "\x1c",
                    "channel_name_17_a", "channel_name_17_b", "\u0145\x1c")
    line = "".join([
        f"({draw(stamp_texts(ts_us))})", often(draw, " ", "\t", "  ", "\n", " \v"), channel,
        often(draw, " ", "\t", " \f ", "\r", "\v"), f"{can_id}#{data}",
        often(draw, "", "\n", "\r", "\f", "\v", " \t\r\n", "\x00", "\x1c", "\u3000")])
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(line)))
        char = draw(st.sampled_from(list(SPACES + "\x00\x1c\u3000\u00e9()#.0a9Gz")))
        line = draw(st.sampled_from([line[:at] + char + line[at:], line[:at] + char + line[at + 1:],
                                     line[:at] + line[at + 1:], line[:at]]))
    return line


@st.composite
def candump_texts(draw):
    """Lines of mostly rising timestamps, with blank lines among them."""
    stamps = sorted(draw(st.lists(st.integers(0, 10**7) | st.integers(0, 2**63 - 1), max_size=12)))
    if draw(st.integers(0, 7)) == 0:
        stamps.reverse()
    blank = st.sampled_from(["", " ", "\t\n", "\x1c", "\u3000", "\x1f\x85 "])
    return [draw(blank) if draw(st.integers(0, 7)) == 0 else draw(candump_lines(ts))
            for ts in stamps]


class TestBlockParse:
    """parse_candump_log decodes blocks of lines with array operations; it
    must give what the per-line parser gives, line for line."""

    @settings(max_examples=600, deadline=None)
    @given(candump_texts(), st.booleans(), st.sampled_from([1, 2, 3, 5, _BLOCK_ROWS]))
    def test_matches_per_line_parse(self, lines, strict, block_rows):
        with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            got = parse_outcome(parse_candump_log, lines, strict)
        assert got == parse_outcome(reference_parse_candump_log, lines, strict)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(candump_lines(10**12), min_size=4, max_size=4), st.booleans())
    def test_matches_per_line_parse_across_the_block_boundary(self, tail, strict):
        lines = [serialize_candump_line(CanFrame(k, "can0", 0x100, b"\x01")) for k in
                 range(_BLOCK_ROWS - 2)] + tail
        got = parse_outcome(parse_candump_log, lines, strict)
        assert got == parse_outcome(reference_parse_candump_log, lines, strict)

    @pytest.mark.parametrize("block_rows", [2, _BLOCK_ROWS])
    def test_channel_first_seen_in_a_later_block_takes_the_next_code(self, block_rows):
        lines = [f"({k}.0) {'can1' if k % 2 else 'can0'} 100#AA" for k in range(block_rows)]
        lines += ["(9000.0) can1 100#AA", "(9001.0) vcan7 100#AA", "(9002.0) can0 100#AA"]
        with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            log = parse_candump_log(lines)
            assert parse_outcome(parse_candump_log, lines, True) == parse_outcome(
                reference_parse_candump_log, lines, True)
        assert log.channels == ("can0", "can1", "vcan7")
        assert log.channel[-3:].tolist() == [1, 2, 0]

    @pytest.mark.parametrize("lines", [[], [""], ["", "\x1c", "\u3000 "]])
    def test_empty_input(self, lines):
        log = parse_candump_log(lines)
        assert len(log) == 0 and log.channels == ()

    def test_item_with_inner_newline_is_one_line(self):
        log = parse_candump_log(["(1.0) can0\n100#AA\n", "(2.0)\ncan1 100#BB"])
        assert [(f.channel, f.data) for f in log] == [("can0", b"\xaa"), ("can1", b"\xbb")]

    @pytest.mark.parametrize("strict, lines, line, before", [
        (False, ["(1.0) can0 100#AA", "", "junk", "(3.0) can0 100#AA", "(2.0) can0 100#AA"], 5, 4),
        (True, ["(1.0) can0 100#AA", "", "(3.0) can0 100#AA", "", "(2.0) can0 100#AA"], 5, 3),
    ])
    def test_out_of_order_timestamp_names_its_line(self, strict, lines, line, before):
        with pytest.raises(ParseError, match=rf"^line {line}: timestamp 2\.000000 is below "
                                             rf"line {before}'s 3\.000000$"):
            parse_candump_log(lines, strict=strict)

    def test_out_of_order_pair_straddles_the_block_boundary(self):
        lines = [f"({k}.0) can0 100#AA" for k in range(_BLOCK_ROWS)] + ["", "(5.0) can0 100#AA"]
        message = (f"^line {_BLOCK_ROWS + 2}: timestamp 5.000000 is below "
                   f"line {_BLOCK_ROWS}'s {_BLOCK_ROWS - 1}.000000$")
        with pytest.raises(ParseError, match=message):
            parse_candump_log(lines, strict=False)


class TestLabelDocument:
    def test_empty_labeled_log(self):
        log = TrafficLog((), LabelSpace(["A"]))
        buf = io.StringIO()
        save_labels(log, buf)
        assert json.loads(buf.getvalue()) == {
            "format_version": 1, "classes": ["Normal", "A"], "labels": []
        }
        assert len(load_labels(log, io.StringIO(buf.getvalue()))) == 0

    @staticmethod
    def load(doc, n=2):
        log = TrafficLog(tuple(CanFrame(i, "can0", 1, b"") for i in range(n)))
        return load_labels(log, io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize("index", [-1, 2, 1.0, True, None])
    def test_label_outside_the_classes_rejected(self, index):
        doc = {"format_version": 1, "classes": ["Normal", "A"], "labels": [0, index]}
        with pytest.raises(ValueError, match="frame 1: label .* is not a class index from 0 to 1"):
            self.load(doc)

    @pytest.mark.parametrize("index", [True, 1.0, -1, 2**64])
    def test_label_deep_in_a_long_document_named(self, index):
        labels = [1, 0] * 25_000
        labels[40_000] = index
        doc = {"format_version": 1, "classes": ["Normal", "A"], "labels": labels}
        with pytest.raises(ValueError) as raised:
            self.load(doc, n=50_000)
        assert str(raised.value) == (f"label document frame 40000: label {index!r} is not a "
                                     f"class index from 0 to 1")

    @pytest.mark.parametrize("field", ["labels", "classes"])
    def test_missing_field_rejected(self, field):
        doc = {"format_version": 1, "classes": ["Normal", "A"], "labels": [0, 1]}
        del doc[field]
        with pytest.raises(ValueError, match=f"label document lacks '{field}'"):
            self.load(doc)

    def test_non_object_document_rejected(self):
        with pytest.raises(ValueError, match="label document must be a JSON object, not list"):
            self.load([0, 1])

    def test_valid_document_labels_frames(self):
        doc = {"format_version": 1, "classes": ["Normal", "A"], "labels": [1, 0]}
        assert self.load(doc).labels() == ["A", "Normal"]

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_mutated_documents_raise_only_value_error(self, data):
        """A truncated or mutated label document raises ValueError, or loads."""
        doc = {"format_version": 1, "classes": ["Normal", "A", "B"], "labels": [0, 2, 1]}
        junk = st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                        max_size=3),
            max_leaves=6)
        field = data.draw(st.sampled_from(sorted(doc)))
        action = data.draw(st.sampled_from(["keep", "replace", "delete", "element"]))
        if action == "replace":
            doc[field] = data.draw(junk)
        elif action == "delete":
            del doc[field]
        elif action == "element" and isinstance(doc[field], list):
            doc[field][data.draw(st.integers(0, len(doc[field]) - 1))] = data.draw(junk)
        text = json.dumps(data.draw(st.sampled_from([doc, [doc], doc.get("classes")])))
        at = data.draw(st.integers(0, len(text)))
        piece = data.draw(st.sampled_from(["", "[", "]", "{", ",", '"', "1", "-"]))
        text = text[:at] + piece + text[at:]
        text = text[:data.draw(st.integers(0, len(text)))]
        log = TrafficLog(tuple(CanFrame(i, "can0", 1, b"") for i in range(3)))
        try:
            load_labels(log, io.StringIO(text))
        except ValueError:
            pass

    def test_bytes_match_json_dump(self):
        space = LabelSpace(["A, \"quoted\"", "\u00e9"])
        log = TrafficLog(tuple(
            LabeledFrame(CanFrame(i, "can0", 1, b""), space.get(name))
            for i, name in enumerate(["Normal", "\u00e9", "A, \"quoted\""])
        ), space)
        buf = io.StringIO()
        save_labels(log, buf)
        doc = {"format_version": 1, "classes": space.names(), "labels": [0, 2, 1]}
        expected = io.StringIO()
        json.dump(doc, expected)
        assert buf.getvalue() == expected.getvalue() + "\n"


HCRL_STYLE_CSV = """\
1478198376.389427,0316,8,05,21,68,09,21,21,00,6f,R
1478198376.389636,018f,8,fe,5b,00,00,00,3c,00,00,R
1478198376.389864,0260,8,19,21,22,30,08,8e,6d,3a,R
1478198376.390108,02a0,8,64,00,9a,1d,97,02,bd,00,R
1478198376.390337,0329,8,40,bb,7f,14,11,20,00,14,T
1478198376.390556,0545,8,d8,00,00,8a,00,00,00,00,R
1478198376.390778,0000,8,00,00,00,00,00,00,00,00,T
1478198376.391016,0153,3,00,80,10,R
1478198376.391240,0002,0,R
1478198376.391461,0130,8,06,80,00,ff,7e,07,2e,11,T
"""


class TestCsvDataset:
    def test_hcrl_flag_mapping(self):
        schema = hcrl_schema()
        schema.label_map = {"R": "Normal", "T": "DoS Attack"}
        space = LabelSpace(["DoS Attack"])
        log = parse_csv_dataset(io.StringIO(HCRL_STYLE_CSV), schema, space)
        assert len(log) == 10
        assert log.is_labeled
        labels = log.labels()
        assert labels.count("DoS Attack") == 3
        assert labels.count("Normal") == 7

    def test_golden_fields(self):
        schema = hcrl_schema()
        schema.label_map = {"R": "Normal", "T": "DoS Attack"}
        log = parse_csv_dataset(io.StringIO(HCRL_STYLE_CSV), schema)
        first = log[0].frame
        assert first.can_id == 0x316
        assert first.timestamp_us == 1478198376389427
        assert first.data == bytes.fromhex("05216809212100 6f".replace(" ", ""))
        dos = log[6].frame
        assert dos.can_id == 0
        assert dos.data == b"\x00" * 8

    def test_dlc_consistency(self):
        schema = hcrl_schema()
        schema.label_map = {"R": "Normal", "T": "DoS Attack"}
        log = parse_csv_dataset(io.StringIO(HCRL_STYLE_CSV), schema)
        short = log[7].frame
        assert short.dlc == 3
        assert short.data == bytes.fromhex("008010")
        empty = log[8].frame
        assert empty.dlc == 0

    def test_unknown_label_rejected(self):
        schema = hcrl_schema()
        space = LabelSpace(["DoS Attack"])
        with pytest.raises(ParseError, match="row 5"):
            parse_csv_dataset(io.StringIO(HCRL_STYLE_CSV), schema, space)

    def test_unreadable_csv_line_is_a_parse_error(self):
        schema = CsvSchema(timestamp_col=0, id_col=1, data_cols=(2,))
        with pytest.raises(ParseError, match="line 1: new-line character"):
            parse_csv_dataset(["1.0,0a\r0,01"], schema)

    def test_row_arity_error(self):
        schema = CsvSchema(timestamp_col=0, id_col=1, dlc_col=2, data_cols=(3, 4), label_col=5)
        with pytest.raises(ParseError, match="row 1"):
            parse_csv_dataset(io.StringIO("1.0,0100\n"), schema)

    def test_bad_hex_error(self):
        schema = CsvSchema(timestamp_col=0, id_col=1, data_cols=(2,), label_col=3)
        with pytest.raises(ParseError, match="row 1"):
            parse_csv_dataset(io.StringIO("1.0,zz,00,R\n"), schema)

    @pytest.mark.parametrize("row, field", [
        ("1_0.5,010,1,01", "timestamp"),
        ("\u0661\u0662.0,010,1,01", "timestamp"),  # Arabic-Indic digits
        ("abc,010,1,01", "timestamp"),
        (".5,010,1,01", "timestamp"),
        ("-1.0,010,1,01", "timestamp"),
        ("+1.0,010,1,01", "timestamp"),
        ("1.,010,1,01", "timestamp"),
        ("1.0,1_0,1,01", "id"),
        ("1.0,-10,1,01", "id"),
        ("1.0,0x10,1,01", "id"),
        ("1.0,010,1,0_1", "data byte 0"),
        ("1.0,010,+1,01", "dlc"),
    ])
    def test_cells_follow_candump_digit_rules(self, row, field):
        """Cells hold ASCII digits only, as candump fields do; int() would
        read signs, underscores and other scripts' digits."""
        schema = CsvSchema(timestamp_col=0, id_col=1, dlc_col=2, data_cols=(3,))
        good = "0.5,010,1,00\n"
        with pytest.raises(ParseError, match=f"row 2: unparseable {field} "):
            parse_csv_dataset(io.StringIO(good + row + "\n"), schema)


    @pytest.mark.parametrize("row, field", [("1.0, 010,1,01", "id"), ("1.0,010,1 ,01", "dlc"),
                                            ("1.0,010,1,01 ", "data byte 0")])
    def test_cells_are_read_verbatim(self, row, field):
        """Spaces around a cell are refused, as the other CSV readers refuse
        them, rather than stripped."""
        schema = CsvSchema(timestamp_col=0, id_col=1, dlc_col=2, data_cols=(3,))
        with pytest.raises(ParseError, match=f"row 2: unparseable {field} "):
            parse_csv_dataset(io.StringIO("0.5,010,1,00\n" + row + "\n"), schema)

    @pytest.mark.parametrize("label, rows", [
        ("R", ["1.0,010,01,R", "1.0,010,01,02,03,R"]),
        (None, ["1.0,010,01", "1.0,010,01,02", "1.0,010,01,02,03"]),
    ], ids=["label-after-data", "unlabeled"])
    def test_dlc_without_a_dlc_column_counts_the_data_cells(self, label, rows):
        """With no dlc column, a row's dlc is the number of data columns it
        holds; a trailing label cell is not one of them."""
        schema = CsvSchema(timestamp_col=0, id_col=1, data_cols=(2, 3, 4),
                           label_col=5 if label else None, label_after_data=bool(label),
                           label_map={"R": "Normal"})
        log = parse_csv_dataset(rows, schema)
        data = [row.split(",")[2:len(row.split(",")) - bool(label)] for row in rows]
        assert log.dlc.tolist() == [len(cells) for cells in data]
        assert [f.data for f in log.can_frames()] == [bytes.fromhex("".join(c)) for c in data]
        assert log.labels() == ["Normal"] * len(rows)

    def test_rows_numbered_as_by_the_other_csv_readers(self):
        """Blank rows are skipped and not counted."""
        schema = CsvSchema(timestamp_col=0, id_col=1, data_cols=(2,))
        with pytest.raises(ParseError, match="row 2: unparseable id 'zz'"):
            parse_csv_dataset(io.StringIO("0.5,010,00\n\n\n1.0,zz,01\n"), schema)


def mk_log(entries, channel="can0"):
    frames = tuple(
        CanFrame(ts_us, channel, cid, bytes.fromhex(data)) for ts_us, cid, data in entries
    )
    return TrafficLog(frames=frames)


class TestMetadataLabeling:
    def test_interval_id_and_pattern_conditions(self):
        log = mk_log(
            [
                (1_000_000, 0x0D0, "0011223344550066"),  # inside, byte 6 == 0x00
                (1_100_000, 0x0D0, "00112233445500FF"),  # inside, byte 6 == 0x00
                (1_200_000, 0x0D0, "0011223344551166"),  # inside, byte 6 != 0x00
                (1_300_000, 0x0A1, "0011223344550066"),  # wrong id
                (9_000_000, 0x0D0, "0011223344550066"),  # outside interval
            ]
        )
        md = [
            AttackMetadata(
                start_us=500_000,
                end_us=2_000_000,
                can_id=0x0D0,
                pattern="XXXXXXXXXXXX00XX",
                attack_class="Reverse Light Off Fabrication Attack",
            )
        ]
        labeled = apply_metadata_labels(log, md)

        # independent linear scan over the same conditions
        def oracle(frame):
            if not (500_000 <= frame.timestamp_us <= 2_000_000):
                return "Normal"
            if frame.can_id != 0x0D0:
                return "Normal"
            if frame.data[6] != 0x00:
                return "Normal"
            return "Reverse Light Off Fabrication Attack"

        assert [lf.label.name for lf in labeled] == [oracle(f) for f in log]
        assert [lf.label.name for lf in labeled] == [
            "Reverse Light Off Fabrication Attack",
            "Reverse Light Off Fabrication Attack",
            "Normal",
            "Normal",
            "Normal",
        ]

    def test_wildcard_saturation(self):
        log = mk_log([(1_000_000, 0x0D0, "DEADBEEF00000000")])
        md = [AttackMetadata(0, 2_000_000, can_id=0x0D0, pattern="X" * 16, attack_class="Fuzzing Attack")]
        labeled = apply_metadata_labels(log, md)
        assert labeled[0].label.name == "Fuzzing Attack"

    def test_wildcard_id(self):
        log = mk_log([(1_000_000, 0x123, "FFFF"), (1_000_001, 0x456, "FFFF")])
        md = [AttackMetadata(0, 2_000_000, can_id=None, pattern="FFFF", attack_class="Fuzzing Attack")]
        labeled = apply_metadata_labels(log, md)
        assert all(lf.label.name == "Fuzzing Attack" for lf in labeled)

    def test_pattern_beyond_dlc_never_matches(self):
        log = mk_log([(1_000_000, 0x0D0, "0011")])
        md = [AttackMetadata(0, 2_000_000, can_id=0x0D0, pattern="XXXXXXXXXXXX00XX", attack_class="A")]
        labeled = apply_metadata_labels(log, md)
        assert labeled[0].label.name == "Normal"

    def test_total_and_order_preserving(self):
        log = mk_log([(k * 1000, 0x100 + (k % 3), "00") for k in range(50)])
        md = [AttackMetadata(10_000, 20_000, can_id=0x101, pattern="", attack_class="A")]
        labeled = apply_metadata_labels(log, md)
        assert len(labeled) == len(log)
        assert [lf.frame for lf in labeled] == list(log.frames)

    def test_idempotent(self):
        log = mk_log([(k * 1000, 0x100, "0A") for k in range(20)])
        md = [AttackMetadata(5_000, 9_000, can_id=0x100, pattern="", attack_class="A")]
        once = apply_metadata_labels(log, md)
        twice = apply_metadata_labels(once, md, label_space=once.label_space)
        assert [f.label.name for f in once] == [f.label.name for f in twice]
        assert [f.frame for f in once] == [f.frame for f in twice]

    def test_ambiguity_error(self):
        log = mk_log([(1_000_000, 0x0D0, "00")])
        md = [
            AttackMetadata(0, 2_000_000, can_id=0x0D0, pattern="", attack_class="A"),
            AttackMetadata(0, 2_000_000, can_id=None, pattern="XX", attack_class="B"),
        ]
        with pytest.raises(LabelAmbiguityError, match="frame 0"):
            apply_metadata_labels(log, md)

    def test_same_class_overlap_allowed(self):
        log = mk_log([(1_000_000, 0x0D0, "00")])
        md = [
            AttackMetadata(0, 2_000_000, can_id=0x0D0, pattern="", attack_class="A"),
            AttackMetadata(500_000, 1_500_000, can_id=0x0D0, pattern="", attack_class="A"),
        ]
        labeled = apply_metadata_labels(log, md)
        assert labeled[0].label.name == "A"


def matches(campaign, frame):
    """Whether a campaign claims a frame, tested field by field: the oracle
    of apply_metadata_labels."""
    if not (campaign.start_us <= frame.timestamp_us <= campaign.end_us):
        return False
    if campaign.can_id is not None and (frame.can_id, frame.extended) != (campaign.can_id,
                                                                          campaign.extended):
        return False
    nibbles = frame.data.hex().upper()
    for i, p in enumerate(campaign.pattern):
        if p == "X":
            continue
        if i >= len(nibbles) or nibbles[i] != p:
            return False
    return True


def reference_labels(log, metadata):
    """Per-frame labeling with `matches`: class names, or the ambiguity
    error message."""
    names = []
    for idx, f in enumerate(log.can_frames()):
        hits = {m.attack_class for m in metadata if matches(m, f)}
        if len(hits) > 1:
            return (f"frame {idx} at {format_timestamp(f.timestamp_us)} id 0x{f.can_id:03X} "
                    f"matches conflicting classes {sorted(hits)}")
        names.append(hits.pop() if hits else "Normal")
    return names


# (id, extended) pairs of the oracle's logs: one value in both formats.
FRAME_IDS = [(0x10, False), (0x11, False), (0x700, False), (0x10, True), (0x1000, True)]


@st.composite
def small_logs(draw):
    """Few ids, instants and byte values, so that campaigns often match;
    id 0x10 comes in both formats."""
    frames = []
    for _ in range(draw(st.integers(0, 25))):
        can_id, extended = draw(st.sampled_from(FRAME_IDS))
        data = bytes(draw(st.lists(st.sampled_from([0x00, 0x0F, 0xF0, 0xFF]), max_size=8)))
        frames.append(CanFrame(draw(st.integers(0, 30)), "can0", can_id, data, extended))
    return TrafficLog(sorted(frames, key=lambda f: f.timestamp_us))


@st.composite
def campaigns(draw):
    """Wildcard ids, ids of both formats, zero-length intervals, and
    patterns up to 16 nibbles, often longer than the frames' data."""
    start = draw(st.integers(-2, 32))
    can_id, extended = draw(st.sampled_from([(None, None)] + FRAME_IDS + [(0x10, None)]))
    return AttackMetadata(
        start, start + draw(st.sampled_from([0, 0, 1, 5, 40])), draw(st.sampled_from(["A", "B"])),
        can_id=can_id, pattern="".join(draw(st.lists(st.sampled_from("0FFX"), max_size=16))),
        extended=extended,
    )


class TestMetadataLabelingOracle:
    @settings(max_examples=400, deadline=None)
    @given(small_logs(), st.lists(campaigns(), max_size=6))
    def test_matches_per_frame_reference(self, log, metadata):
        expected = reference_labels(log, metadata)
        if isinstance(expected, str):
            with pytest.raises(LabelAmbiguityError) as err:
                apply_metadata_labels(log, metadata)
            assert str(err.value) == expected
        else:
            assert apply_metadata_labels(log, metadata).labels() == expected

    def test_single_instant_campaign_per_frame(self):
        """The fuzzy sidecar's shape: one exact campaign per injected frame."""
        log = mk_log([(k * 10, 0x100 + k % 7, f"{k % 256:02X}") for k in range(3000)])
        md = [AttackMetadata(k * 10, k * 10, "A", can_id=0x100 + k % 7, pattern=f"{k % 256:02X}")
              for k in range(0, 3000, 3)]
        assert apply_metadata_labels(log, md).labels() == reference_labels(log, md)

    @pytest.mark.parametrize("can_id, extended, expected", [
        (0x123, None, ["A", "Normal"]),
        (0x123, False, ["A", "Normal"]),
        (0x123, True, ["Normal", "A"]),
        (None, None, ["A", "A"]),
    ])
    def test_id_format_is_matched(self, can_id, extended, expected):
        """A standard 0x123 and an extended 0x00000123 are different ids,
        in memory and after a sidecar round trip; the wildcard matches both."""
        log = TrafficLog([CanFrame(1, "can0", 0x123, b"\0"), CanFrame(2, "can0", 0x123, b"\0", True)])
        md = [AttackMetadata(0, 5, "A", can_id=can_id, extended=extended)]
        buf = io.StringIO()
        save_metadata(md, buf)
        assert apply_metadata_labels(log, md).labels() == expected
        assert apply_metadata_labels(log, load_metadata(io.StringIO(buf.getvalue()))).labels() == expected


def campaign_rows():
    """Campaigns of both id formats and the wildcard, patterns of 0-16
    nibbles, several classes, and intervals that read back from seconds."""
    ident = (st.just((None, None))
             | st.tuples(st.integers(0, 0x7FF), st.sampled_from([None, False, True]))
             | st.tuples(st.integers(0x800, 0x1FFFFFFF), st.sampled_from([None, True])))
    return st.builds(
        lambda a, b, cls, ident, pattern: AttackMetadata(min(a, b), max(a, b), cls, ident[0],
                                                         pattern, ident[1]),
        st.integers(-(1 << 50), 1 << 50), st.integers(-(1 << 50), 1 << 50),
        st.sampled_from(["A", "B", "Fuzzy Attack", 'q"uote \u00e9\n']), ident,
        st.text(alphabet="0123456789ABCDEFabcdefXx", max_size=16))


class TestCampaignTable:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(campaign_rows(), max_size=8))
    def test_round_trip(self, md):
        """A table equals its rows; it is written as json.dump writes its
        row views and read back equal."""
        table = ingest._campaigns(md)
        assert table == md and md == table and list(table) == md and len(table) == len(md)
        assert table[1:] == md[1:] and (not md or table[-1] == md[-1])
        buf = io.StringIO()
        save_metadata(table, buf)
        text = buf.getvalue()
        assert text == json.dumps([m.to_json_obj() for m in table], indent=2) + "\n"
        assert load_metadata(io.StringIO(text)) == table
        assert [AttackMetadata.from_json_obj(e) for e in json.loads(text)] == md

    @pytest.mark.parametrize("text, can_id, extended", [
        ("0D0", 0x0D0, False), ("7FF", 0x7FF, False), ("800", 0x800, True),
        ("00000123", 0x123, True), ("1BCDEF01", 0x1BCDEF01, True), ("0123", 0x123, False),
        ("xXx", None, False),
    ])
    def test_id_format_read_from_digits(self, text, can_id, extended):
        """8 digits are extended; any other length, as written by 0.1.0,
        takes its format from the value."""
        doc = [{"injection_interval": [0, 1], "injection_id": text, "attack_class": "A"}]
        (m,) = load_metadata(io.StringIO(json.dumps(doc)))
        assert (m.can_id, m.extended) == (can_id, extended)
        assert m == AttackMetadata.from_json_obj(doc[0])

    def test_extended_ids_written_as_eight_digits(self):
        md = [AttackMetadata(0, 1, "A", can_id=0x123, extended=True),
              AttackMetadata(0, 1, "A", can_id=0x123), AttackMetadata(0, 1, "A", can_id=0x800)]
        buf = io.StringIO()
        save_metadata(md, buf)
        assert [e["injection_id"] for e in json.loads(buf.getvalue())] == [
            "00000123", "123", "00000800"]

    def test_extended_flag_rules(self):
        assert AttackMetadata(0, 1, "A", can_id=0x7FF).extended is False
        assert AttackMetadata(0, 1, "A", can_id=0x800).extended is True
        assert AttackMetadata(0, 1, "A").extended is False
        assert AttackMetadata(0, 1, "A", can_id=5, extended=np.True_).extended is True
        with pytest.raises(ValueError, match="cannot be standard"):
            AttackMetadata(0, 1, "A", can_id=0x800, extended=False)
        with pytest.raises(ValueError, match="cannot be extended"):
            AttackMetadata(0, 1, "A", extended=True)
        with pytest.raises(ValueError, match="extended"):
            AttackMetadata(0, 1, "A", can_id=5, extended="yes")

    def test_repr_and_comparison(self):
        """A table shows its rows, and leaves == with a non-sequence to the other side."""
        md = [AttackMetadata(0, 1, "A", can_id=0x123)]
        table = ingest._campaigns(md)
        assert repr(table) == f"_Campaigns({md!r})"
        assert table.__eq__(md[0]) is NotImplemented and table != md[0] and table != None  # noqa: E711


class TestMetadataJson:
    def test_roundtrip(self):
        md = [
            AttackMetadata(1_500_000, 2_500_000, can_id=0x6E0, pattern="XXXXFFXX", attack_class="A"),
            AttackMetadata(0, 1_000_000, can_id=None, pattern="F" * 16, attack_class="Fuzzing Attack"),
        ]
        buf = io.StringIO()
        save_metadata(md, buf)
        again = load_metadata(io.StringIO(buf.getvalue()))
        assert again == md

    def test_schema_fields(self):
        md = [AttackMetadata(1_000_000, 2_000_000, can_id=0x0D0, pattern="00XX", attack_class="A")]
        buf = io.StringIO()
        save_metadata(md, buf)
        doc = json.loads(buf.getvalue())
        assert doc == [
            {
                "injection_interval": [1.0, 2.0],
                "injection_id": "0D0",
                "injection_data_str": "00XX",
                "attack_class": "A",
            }
        ]

    @pytest.mark.parametrize("md", [
        [],
        [AttackMetadata(0, 0, attack_class="Fuzzy Attack")],
        [AttackMetadata(1_500_000, 2_500_000, can_id=0x6E0, pattern="XXXXFFXX", attack_class="A"),
         AttackMetadata(0, 1_000_000, can_id=None, pattern="F" * 16, attack_class="B")],
        [AttackMetadata(7, 9, can_id=0x1BCDEF01, pattern="00", attack_class="Ext"),
         AttackMetadata(0, 1, can_id=0x00000123, attack_class="Ext")],
        [AttackMetadata(0, 1, attack_class='quo"te \\ back\\slash \u00e9\u4e2d \U0001f697 \x00\n\t')],
        [AttackMetadata(-(1 << 53), 1 << 53, attack_class="wide"),
         AttackMetadata(-1_234_567, -1, attack_class="negative"),
         AttackMetadata(1, 3, attack_class="sub-millisecond"),
         AttackMetadata(123_456_789_012_345, 123_456_789_012_346, attack_class="late")],
    ])
    def test_writer_matches_indented_json_dump(self, md):
        buf = io.StringIO()
        save_metadata(md, buf)
        expected = io.StringIO()
        json.dump([m.to_json_obj() for m in md], expected, indent=2)
        assert buf.getvalue() == expected.getvalue() + "\n"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.builds(
        lambda a, b, cls, can_id, pattern: AttackMetadata(min(a, b), max(a, b), cls, can_id, pattern),
        st.integers(-(1 << 63), (1 << 63) - 1), st.integers(-(1 << 63), (1 << 63) - 1),
        st.text(), st.none() | st.integers(0, 0x1FFFFFFF),
        st.text(alphabet="0123456789ABCDEFX", max_size=16)), max_size=5))
    def test_writer_matches_indented_json_dump_property(self, md):
        """The writer writes json.dump's text when every interval reads back
        as the same microseconds, and otherwise refuses, writing nothing."""
        buf = io.StringIO()
        text = json.dumps([m.to_json_obj() for m in md], indent=2) + "\n"
        try:
            exact = load_metadata(io.StringIO(text)) == md
        except ValueError:
            exact = False
        if exact:
            save_metadata(md, buf)
            assert buf.getvalue() == text
        else:
            with pytest.raises(ValueError, match=r"^campaign \d+: injection interval"):
                save_metadata(md, buf)
            assert buf.getvalue() == ""

    @pytest.mark.parametrize("k, start_us, end_us", [
        (0, -(1 << 63), (1 << 63) - 1),  # written past the range load_metadata reads
        (1, 0, (1 << 62) + 1),  # read back as 2**62
    ])
    def test_writer_refuses_intervals_that_do_not_read_back(self, k, start_us, end_us):
        md = [AttackMetadata(0, 1, attack_class="A")] * k + [
            AttackMetadata(start_us, end_us, attack_class="B")]
        buf = io.StringIO()
        with pytest.raises(ValueError, match=rf"^campaign {k}: injection interval "
                                             rf"\[{start_us}, {end_us}\] us"):
            save_metadata(md, buf)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("doc, message", [
        ([{"injection_interval": [0, 1], "attack_class": "A"}], "entry 0: .*'injection_id'"),
        ([{"injection_interval": [1], "injection_id": "0D0", "attack_class": "A"}],
         "entry 0: injection_interval"),
        ([{"injection_interval": [0, 1], "injection_id": "12G", "attack_class": "A"}],
         "entry 0: injection_id"),
        ([{"injection_interval": [0, 1], "injection_id": "0D0", "attack_class": "A",
           "injection_data_str": 5}], "entry 0: injection_data_str"),
        ([{"injection_interval": [0, 1], "injection_id": "-1", "attack_class": "A"}],
         "entry 0: injection_id"),
        ([{"injection_interval": [0, 1e300], "injection_id": "0D0", "attack_class": "A"}],
         "entry 0: injection_interval"),
        ({"attacks": 5}, "list of attack entries"),
        ([5], "entry 0: .*JSON object"),
        # Fields are read, not cast: str() read an injection_id of 123 as 0x123.
        ([{"injection_interval": [0, 1], "injection_id": 123, "attack_class": "A"}],
         "entry 0: injection_id: 123 is not a string"),
        ([{"injection_interval": [0, True], "injection_id": "0D0", "attack_class": "A"}],
         "entry 0: injection_interval: True is not a number"),
        ([{"injection_interval": ["0", 1], "injection_id": "0D0", "attack_class": "A"}],
         "entry 0: injection_interval: '0' is not a number"),
        ([{"injection_interval": [0, 1], "injection_id": "0D0", "attack_class": None}],
         "entry 0: attack_class: None is not a string"),
        # Normal is no attack class: apply_metadata_labels failed registering it.
        ([{"injection_interval": [0, 1], "injection_id": "0D0", "attack_class": "Normal"}],
         "entry 0: attack_class: 'Normal' is not a string other than Normal"),
        ([{"injection_interval": [0, 1], "injection_id": "0D0", "attack_class": "A",
           "injection_data_str": "ZZ"}], "entry 0: injection_data_str: 'ZZ' is not a pattern"),
    ])
    def test_malformed_documents_name_entry_and_field(self, doc, message):
        with pytest.raises(ValueError, match=message):
            load_metadata(io.StringIO(json.dumps(doc)))

    def test_numpy_fields_are_stored_plain(self):
        md = AttackMetadata(np.int64(1), np.uint32(2), np.str_("A"), np.uint16(0xD0), "0X")
        assert load_metadata(io.StringIO(json.dumps([md.to_json_obj()]))) == [md]
        assert [type(v) for v in (md.start_us, md.end_us, md.attack_class, md.can_id)] == [
            int, int, str, int]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_documents_raise_only_value_error(self, data):
        md = [
            AttackMetadata(1_500_000, 2_500_000, can_id=0x6E0, pattern="XXXXFFXX", attack_class="A"),
            AttackMetadata(0, 1_000_000, can_id=None, pattern="F" * 16, attack_class="B"),
        ]
        doc = [m.to_json_obj() for m in md]
        junk = st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                        max_size=3),
            max_leaves=6)
        entry = doc[data.draw(st.integers(0, 1))]
        field = data.draw(st.sampled_from(sorted(entry)))
        if data.draw(st.booleans()):
            entry[field] = data.draw(junk)
        else:
            del entry[field]
        text = json.dumps(data.draw(st.sampled_from([doc, {"attacks": doc}, doc[0]])))
        text = text[: data.draw(st.integers(0, len(text)))]
        try:
            load_metadata(io.StringIO(text))
        except ValueError:
            pass

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            AttackMetadata(2, 1, attack_class="A")

    def test_invalid_pattern(self):
        with pytest.raises(ValueError):
            AttackMetadata(0, 1, pattern="0G", attack_class="A")
        with pytest.raises(ValueError):
            AttackMetadata(0, 1, pattern="0" * 17, attack_class="A")
