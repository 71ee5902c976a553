import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids import core
from canids.core import (
    CanFrame,
    AttackClass,
    LabeledFrame,
    LabelSpace,
    TrafficLog,
    id_bits,
    id_bits_matrix,
)
from canids.features import TabularDataset, save_dataset_csv
from canids.ingest import parse_candump_log, serialize_candump
from test_features import csv_text, reference_save_dataset_csv
from test_ingest import candump_text, serialize_candump_line
from test_windows import shifted_id_bits

# The label spaces of the three dataset families the workbench parses.
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


def id_from_bits(bits):
    """Inverse of id_bits: the identifier a 29-bit vector spells, MSB first."""
    assert len(bits) == 29
    return int("".join(map(str, bits)), 2)


def arbitration_winner(frames):
    """The frame that wins bus arbitration: the smallest id (the most
    dominant bits under wired-AND), ties to the earliest.  Frames may be
    CanFrame or LabeledFrame; the winner is returned as given."""
    frames = list(frames)
    if not frames:
        raise ValueError("empty arbitration set")
    return min(frames, key=lambda f: (getattr(f, "frame", f).can_id, f.timestamp_us))


def frame(can_id=0x100, ts_us=0, data=b"", extended=False, channel="can0"):
    return CanFrame(timestamp_us=ts_us, channel=channel, can_id=can_id, data=data, extended=extended)


class TestCanFrame:
    def test_valid_standard(self):
        f = frame(can_id=0x0BA, ts_us=1040000000000682, data=bytes.fromhex("04B7EC04000602C8"))
        assert f.dlc == 8
        assert f.timestamp == 1040000000.000682
        assert f.id_format == "standard"

    def test_standard_id_range(self):
        frame(can_id=0x7FF)
        with pytest.raises(ValueError):
            frame(can_id=0x800)

    def test_extended_id_range(self):
        frame(can_id=0x1FFFFFFF, extended=True)
        with pytest.raises(ValueError):
            frame(can_id=0x20000000, extended=True)

    def test_dlc_limits(self):
        frame(data=b"\x00" * 8)
        with pytest.raises(ValueError):
            frame(data=b"\x00" * 9)

    def test_negative_timestamp(self):
        with pytest.raises(ValueError):
            frame(ts_us=-1)


class TestLabels:
    def test_normal_convention(self):
        with pytest.raises(ValueError):
            AttackClass("Normal", is_attack=True)
        with pytest.raises(ValueError):
            AttackClass("DoS Attack", is_attack=False)

    def test_builtin_spaces(self):
        assert len(LabelSpace(ROAD_CLASSES)) == 12  # 11 attacks + Normal
        assert len(LabelSpace(HCRL_CLASSES)) == 5
        assert len(LabelSpace(IVN_CLASSES)) == 4

    def test_unique_names(self):
        space = LabelSpace(["A"])
        with pytest.raises(ValueError):
            space.register("A")

    def test_normal_always_present(self):
        space = LabelSpace()
        assert "Normal" in space
        assert not space.get("Normal").is_attack


class TestTrafficLog:
    def test_order_invariant(self):
        TrafficLog(frames=(frame(ts_us=1), frame(ts_us=1), frame(ts_us=2)))
        with pytest.raises(ValueError):
            TrafficLog(frames=(frame(ts_us=2), frame(ts_us=1)))

    def test_empty_log_with_label_space_is_labeled(self):
        log = TrafficLog((), LabelSpace(["A"]))
        assert log.is_labeled
        assert log.labels() == []
        assert not TrafficLog(()).is_labeled

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_frames_round_trip(self, data):
        """The columns hold every field: the on-demand frames equal the input."""
        frames = sorted(data.draw(st.lists(any_frame(), max_size=12)), key=lambda f: f.timestamp_us)
        assert TrafficLog(frames).frames == tuple(frames)
        space = LabelSpace(["A", "B"])
        classes = data.draw(st.lists(st.sampled_from(list(space)), min_size=len(frames),
                                     max_size=len(frames)))
        labeled = tuple(LabeledFrame(f, c) for f, c in zip(frames, classes))
        log = TrafficLog(labeled, space)
        assert log.frames == labeled
        assert list(log) == list(labeled) and log.can_frames() == frames
        assert log.labels() == [c.name for c in classes]
        assert all(log[i] == labeled[i] for i in range(-len(labeled), len(labeled)))
        if labeled:
            inferred = TrafficLog(labeled)
            assert inferred.frames == labeled
            assert inferred.label_space.names() == ["Normal"] + list(
                dict.fromkeys(c.name for c in classes if c.is_attack))

    def test_columns_are_read_only(self):
        log = TrafficLog((frame(ts_us=1, data=b"\x01"),))
        with pytest.raises(ValueError):
            log.data[0, 0] = 2
        assert log.data.tolist() == [[1, 0, 0, 0, 0, 0, 0, 0]]

    @pytest.mark.parametrize("change, message", [
        (dict(ts_us=[-1, 5]), "frame 0: timestamp outside"),
        (dict(ts_us=[5, 4]), "frame 0: timestamp above the next"),
        (dict(can_id=[0x800, 1]), "frame 0: standard CAN id past 11 bits"),
        (dict(can_id=[1, -1]), "frame 1: CAN id outside"),
        (dict(can_id=[1, 1 << 29], extended=[False, True]), "frame 1: CAN id outside"),
        (dict(dlc=[9, 0]), "frame 0: dlc outside"),
        (dict(dlc=[0, -1]), "frame 1: dlc outside"),
        (dict(data=[[0] * 8, [0, 0, 7, 0, 0, 0, 0, 0]]), "frame 1: nonzero data byte past dlc"),
        (dict(channel=[0, 1]), "frame 1: channel code outside"),
        (dict(label=[0, 2]), "frame 1: label code outside"),
        (dict(can_id=[1]), "equally long sequences"),
        (dict(extended=[True]), "equally long sequences"),
        (dict(ts_us=[1, 1 << 64]), "64-bit integers"),
        (dict(ts_us=[1.5, 2.0]), "64-bit integers"),
        (dict(data=np.full((2, 8), 0.0)), "64-bit integers"),
        (dict(dlc=[0, 1], data=[[0] * 8, [256] + [0] * 7]), "frame 1: data byte outside 0..255"),
        (dict(data=[[0] * 8, [-1] + [0] * 7]), "frame 1: data byte outside 0..255"),
        (dict(extended=[False, 2]), "frame 1: id format outside 0..1"),
    ])
    def test_column_checks(self, change, message):
        columns = dict(ts_us=[1, 2], can_id=[1, 2], extended=[False, False], dlc=[0, 2],
                       data=np.zeros((2, 8), dtype=np.uint8), channel=[0, 0], channels=("can0",),
                       label=[0, 1], label_space=LabelSpace(["A"]))
        log = TrafficLog._from_columns(**columns)
        assert log.ts_us.base is None and log.channel.base is None and log.label.base is None
        with pytest.raises(ValueError, match=message):
            TrafficLog._from_columns(**{**columns, **change})


@st.composite
def any_frame(draw):
    """Standard or extended ids, payloads of every length, several channels."""
    extended = draw(st.booleans())
    return CanFrame(draw(st.integers(0, 10**13)), draw(st.sampled_from(["can0", "can1", "vcan9"])),
                    draw(st.integers(0, 0x1FFFFFFF if extended else 0x7FF)),
                    draw(st.binary(max_size=8)), extended=extended)


class TestIdBits:
    def test_reference_id_bit_expansion(self):
        # 0x0BA from the candump format example: 18 pad zeros + 000 1011 1010
        bits = id_bits(frame(can_id=0x0BA))
        assert bits.shape == (29,)
        expected = [0] * 18 + [0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 0]
        assert bits.tolist() == expected

    def test_zero_identity(self):
        assert id_bits(frame(can_id=0)).tolist() == [0] * 29

    def test_saturation(self):
        bits = id_bits(frame(can_id=0x1FFFFFFF, extended=True))
        assert bits.tolist() == [1] * 29

    @given(st.integers(min_value=0, max_value=(1 << 29) - 1))
    def test_roundtrip(self, can_id):
        f = frame(can_id=can_id, extended=True)
        assert id_from_bits(id_bits(f)) == can_id

    @given(
        st.integers(min_value=0, max_value=(1 << 29) - 1),
        st.integers(min_value=0, max_value=(1 << 29) - 1),
    )
    def test_injective(self, a, b):
        ba = id_bits(frame(can_id=a, extended=True))
        bb = id_bits(frame(can_id=b, extended=True))
        assert (ba.tolist() == bb.tolist()) == (a == b)

    def test_matrix_matches_scalar(self):
        ids = [0, 0x0BA, 0x7FF, 0x1FFFFFFF, 12345678]
        mat = id_bits_matrix(ids)
        for row, i in zip(mat, ids):
            assert row.tolist() == id_bits(frame(can_id=i, extended=True)).tolist()
        assert mat.dtype == np.uint8

    @given(st.lists(st.integers(0, (1 << 29) - 1), max_size=40))
    def test_matrix_matches_shift_formula(self, ids):
        ids += [0, 1, 0x7FF, 0x800, (1 << 29) - 1]
        mat = id_bits_matrix(np.array(ids, dtype=np.uint32))
        assert mat.shape == (len(ids), 29) and mat.dtype == np.uint8
        assert np.array_equal(mat, shifted_id_bits(ids))

    def test_empty_matrix(self):
        assert id_bits_matrix([]).shape == (0, 29)


class TestArbitration:
    def test_dominant_id_wins(self):
        contenders = [frame(can_id=0x0BA, ts_us=5), frame(can_id=0x000, ts_us=9)]
        assert arbitration_winner(contenders).can_id == 0x000

    def test_singleton(self):
        only = frame(can_id=0x7FF)
        assert arbitration_winner([only]) is only

    def test_tie_break_by_time(self):
        late = frame(can_id=0x100, ts_us=2_000_000)
        early = frame(can_id=0x100, ts_us=1_000_000)
        assert arbitration_winner([late, early]) is early

    def test_empty_set(self):
        with pytest.raises(ValueError, match="empty arbitration set"):
            arbitration_winner([])

    @given(st.lists(st.integers(min_value=0, max_value=0x7FF), min_size=1, max_size=20))
    def test_winner_has_minimal_id(self, ids):
        frames = [frame(can_id=i, ts_us=k) for k, i in enumerate(ids)]
        winner = arbitration_winner(frames)
        assert all(winner.can_id <= f.can_id for f in frames)


# Names from all of Unicode, lone surrogates included, with the characters
# nearest the block writers' pad byte 0xFF drawn often: U+00FF (UTF-8 C3
# BF), NUL, DEL, a non-BMP character and both halves of a surrogate pair.
NAMES = st.text(st.sampled_from("\u00ff\x00\x7f\U0001f600\ud800\udc00")
                | st.characters(exclude_categories=()), min_size=1, max_size=12)


class TestBlockPadByte:
    """The block text writers drop every 0xFF byte of a block, which no
    UTF-8 text holds (nor a lone surrogate passed through), so any name is
    written as the per-row writers write it."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(NAMES.filter(lambda name: not any(c.isspace() for c in name)),
                    min_size=1, max_size=3),
           st.lists(NAMES, min_size=1, max_size=3, unique=True),
           st.lists(st.integers(0, 2), max_size=7), st.sampled_from([1, 2, 3, 5]))
    def test_names_from_all_of_unicode(self, channels, classes, codes, block_rows):
        log = TrafficLog(CanFrame(k, channels[c % len(channels)], 0x100 + k, bytes([k]) * c,
                                  extended=k % 2 == 1) for k, c in enumerate(codes))
        data = TabularDataset(X=np.arange(len(codes), dtype=np.float64)[:, None],
                              y=[c % len(classes) for c in codes], classes=tuple(classes))
        with mock.patch.object(core, "_BLOCK_ROWS", block_rows):
            text = candump_text(serialize_candump, log)
            dataset_text = csv_text(save_dataset_csv, data)
        assert text == "".join(serialize_candump_line(f) + "\n" for f in log)
        back = parse_candump_log(io.StringIO(text))
        assert back.channels == log.channels and back.frames == log.frames
        assert dataset_text == csv_text(reference_save_dataset_csv, data)


INT_TYPES = (int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
FLOAT_TYPES = (float, np.float16, np.float32, np.float64)
PLAIN_TYPES = (int, float, bool, str, type(None))


def ints(lo, hi):
    """Integers in lo..hi (within 0..127, so every integer type holds them),
    as Python or numpy scalars."""
    return st.builds(lambda t, v: t(v), st.sampled_from(INT_TYPES), st.integers(lo, hi))


def numbers(*values):
    """The given numbers as float scalars of every width, and the whole ones
    also as integer scalars."""
    floats = st.builds(lambda t, v: t(v), st.sampled_from(FLOAT_TYPES), st.sampled_from(values))
    whole = [int(v) for v in values if v == int(v)]
    if not whole:
        return floats
    return floats | st.builds(lambda t, v: t(v), st.sampled_from(INT_TYPES), st.sampled_from(whole))


FLAGS = st.builds(lambda t, v: t(v), st.sampled_from((bool, np.bool_)), st.booleans())


def payloads():
    from canids.synth import PayloadModel

    return st.one_of(
        st.builds(PayloadModel, st.just("random_walk"), st.just(b"\x01\x02"), ints(0, 100)),
        st.builds(lambda p: PayloadModel("counter", b"\x01\x02", positions=p),
                  st.lists(ints(0, 1), max_size=2).map(tuple)),
        st.just(PayloadModel()))


def documents():
    """(object, its JSON object, the object read back from that JSON) for
    every document class: synth documents, model hyperparameters, sidecar
    metadata and LCCDE leaders."""
    from canids.detectors import _MODEL_KINDS
    from canids.ingest import AttackMetadata
    from canids.lccde import LeaderMap
    from canids.synth import AmbientIdSpec, AmbientModel, AttackScenario, PayloadModel

    fraction = numbers(0.25, 0.5, 0.75)
    depth = st.none() | ints(1, 9)
    models = {
        "tree": dict(max_depth=depth, min_leaf=ints(1, 5)),
        "forest": dict(n_trees=ints(1, 9), max_depth=depth, min_leaf=ints(1, 5), bootstrap=FLAGS,
                       feature_frac=numbers(0.5, 1.0), seed=ints(0, 127)),
        "gbdt": dict(n_rounds=ints(1, 9), learning_rate=numbers(0.25, 1.0), max_depth=depth,
                     min_leaf=ints(1, 5), reg_lambda=numbers(0.0, 0.5, 2.0),
                     subsample=numbers(0.5, 1.0), seed=ints(0, 127)),
        "frequency": dict(k_sigma=numbers(0.0, 0.5, 4.0)),
        "lccde": dict(val_frac=fraction, majority_literal=FLAGS, seed=ints(0, 127),
                      base_configs=st.lists(st.fixed_dictionaries(
                          {"n_rounds": ints(1, 9)}, optional={"learning_rate": fraction,
                                                              "max_depth": depth}),
                          min_size=3, max_size=3)),
    }

    def params(kind):
        cls = _MODEL_KINDS[kind]
        return st.builds(lambda kw: cls(**kw), st.fixed_dictionaries(models[kind])).map(
            lambda m: (m, m.descriptor(), lambda obj: cls(**{k: obj[k] for k in cls.params})))

    def dataclass_docs(strategy):
        return strategy.map(lambda d: (d, d.to_json_obj(), type(d).from_json_obj))

    ambient = st.builds(
        lambda spec, duration, seed: AmbientModel((spec,), duration, seed),
        st.builds(AmbientIdSpec, ints(0, 127), numbers(0.25, 1.0), numbers(0.0, 0.25), payloads(),
                  FLAGS),
        numbers(0.5, 2.0), ints(0, 127))
    scenario = st.builds(
        lambda a, b, **kw: AttackScenario(interval=tuple(sorted((a, b), key=float)), **kw),
        numbers(0.25, 1.0), numbers(0.5, 2.0), kind=st.just("fuzzing_max_payload"),
        target_id=ints(0, 127), payload_spec=st.just("XXFF"), period=numbers(0.25, 1.0),
        id_cycle=st.lists(ints(0, 127), min_size=1, max_size=3).map(tuple), seed=ints(0, 127),
        extended_ids=FLAGS)
    metadata = st.one_of(  # a wildcard id has no format
        st.builds(AttackMetadata, ints(0, 60), ints(60, 127), st.just("A"), st.none(), st.just("0X")),
        st.builds(AttackMetadata, ints(0, 60), ints(60, 127), st.just("A"), ints(0, 127),
                  st.just("0X"), st.none() | FLAGS))
    leaders = st.builds(
        lambda leader, lat: LeaderMap(("Normal", "A"), leader, np.eye(2, 3), lat),
        st.tuples(ints(0, 2), ints(0, 2)), st.tuples(*[numbers(0.5, 1.0, 2.0)] * 3))
    return st.one_of(
        [dataclass_docs(s) for s in (ambient, scenario, payloads(), metadata)]
        + [leaders.map(lambda m: (m, m.to_json_obj(), LeaderMap.from_json_obj))]
        + [params(kind) for kind in models])


def plain_leaves(obj):
    if isinstance(obj, dict):
        return all(plain_leaves(v) for v in obj.values())
    if isinstance(obj, list):
        return all(plain_leaves(v) for v in obj)
    return type(obj) in PLAIN_TYPES


class TestFieldReader:
    """Every document class takes plain JSON values and numpy scalars alike,
    stores them as plain values, and reads back what it writes."""

    @settings(max_examples=150, deadline=None)
    @given(documents())
    def test_numpy_and_python_scalars_round_trip(self, doc):
        model, obj, read = doc
        text = json.dumps(obj)
        assert plain_leaves(obj)
        back = read(json.loads(text))
        assert type(back) is type(model)
        detector = hasattr(back, "descriptor")
        assert json.dumps(back.descriptor() if detector else back.to_json_obj()) == text
        if not detector and not hasattr(back, "f1_matrix"):  # a LeaderMap holds an array
            assert back == model

    @pytest.mark.parametrize("value, kind, plain", [
        (np.int64(3), "integer", 3), (np.uint64(2**64 - 1), "integer", 2**64 - 1),
        (np.float32(0.5), "number", 0.5), (np.int8(-2), "number", -2), (7, "number", 7),
        (np.True_, "flag", True), (np.str_("a"), "text", "a"), (None, "integer or null", None),
        ("0D0", "id", 0xD0), (np.uint16(5), "id", 5), ([np.int32(1), 2], "list of integer", (1, 2)),
    ])
    def test_plain_values(self, value, kind, plain):
        got = core._read_field("doc", "f", value, kind)
        assert got == plain and type(got) is type(plain)

    @pytest.mark.parametrize("value, kind, message", [
        (True, "integer", "True is not an integer"),
        (np.True_, "number", r"(np\.)?True_? is not a number"),
        ("1", "number", "'1' is not a number"),
        (2.0, "integer", "2.0 is not an integer"),
        (10**400, "number", "10+ is not a number"),
        (1, "flag", "1 is not true or false"),
        (3, "text", "3 is not a string"),
        ("12", "list of integer", "'12' is not a list"),
        ([1, True], "list of integer", "True is not an integer"),
        ("-1", "id", "'-1' is not a CAN id"),
        (2**29, "id", "536870912 is not a CAN id"),
        ("1_0", "id", "'1_0' is not a CAN id"),
    ])
    def test_refusals_name_document_field_and_value(self, value, kind, message):
        with pytest.raises(ValueError, match=rf"^doc field 'f': {message}"):
            core._read_field("doc", "f", value, kind)


# Each range kind: (integer kind, low bound, low included, high bound, high included).
RANGES = {
    "seed": (True, 0, True, None, None),
    "integer from 1": (True, 1, True, None, None),
    "number in (0, 1]": (False, 0.0, False, 1.0, True),
    "number in (0, 1)": (False, 0.0, False, 1.0, False),
    "number in [0, inf)": (False, 0.0, True, float("inf"), False),
}


def in_range(kind):
    """Values of a range kind, as Python and numpy scalars; a number kind
    takes its whole values as integers too."""
    integer, low, low_in, high, high_in = RANGES[kind]
    whole = [v for v in range(128) if (v > low or low_in and v == low)
             and (high is None or v < high or high_in and v == high)]
    typed = (st.builds(lambda t, v: t(v), st.sampled_from(INT_TYPES), st.sampled_from(whole))
             if whole else st.nothing())
    if integer:
        return typed | st.integers(min_value=low)
    values = st.floats(low, high, exclude_min=not low_in, exclude_max=not high_in)
    return typed | values | values.map(np.float64) | st.sampled_from([np.float16(0.5), np.float32(0.25)])


def out_of_range(kind):
    """Values a range kind refuses: bools, strings, NaN, values past either
    bound, and fractions where an integer is wanted."""
    integer, low, low_in, high, high_in = RANGES[kind]
    if integer:
        below = st.integers(-2**63, low - 1)
        refused = [below.map(np.int64), st.floats(low, 1e6).filter(lambda v: v != int(v)),
                   st.sampled_from([2.0, np.float64(3.0)])]
    else:
        below = st.floats(max_value=low, exclude_max=low_in).filter(lambda v: v < low or not low_in)
        refused = [below.map(np.float64), st.floats(min_value=high, exclude_min=high_in)]
    return st.one_of(below, *refused, st.sampled_from(
        [True, False, np.True_, "1", "0.5", float("nan"), np.float64("nan")]))


def _range_fixtures():
    from canids.detectors import DecisionTree

    space = LabelSpace(attack_names=("A",))
    log = TrafficLog(tuple(LabeledFrame(CanFrame(i * 1000, "can0", 0x100 + i % 3, b"\x00"),
                                        space.get("A" if i % 5 == 0 else "Normal"))
                           for i in range(20)), label_space=space)
    data = TabularDataset(X=np.arange(12.0).reshape(6, 2), y=[0, 0, 0, 1, 1, 1],
                          classes=("Normal", "A"))
    return data, log, DecisionTree().fit(data.X, data.y, data.classes)


def _range_calls():
    from canids.detectors import FrequencyDetector, GradientBoosting, RandomForest, measure_latency
    from canids.evaluate import evaluate_pipeline
    from canids.features import smote_oversample
    from canids.windows import build_bit_grids, build_id_sequences, window_count

    return {
        "smote-target-fraction": ("target_count", lambda d, log, m: smote_oversample(d, 5.5)),
        "smote-k-fraction": ("k", lambda d, log, m: smote_oversample(d, 5, k=1.5)),
        "smote-target-bool": ("target_count", lambda d, log, m: smote_oversample(d, True)),
        "grid-window-fraction": ("window", lambda d, log, m: build_bit_grids(log, window=2.5)),
        "eval-window-fraction": ("window", lambda d, log, m: evaluate_pipeline(
            m, d, "window", window=2.5)),
        "window-count-fraction": ("window", lambda d, log, m: window_count(10, 2.5, 1)),
        "sequence-step-fraction": ("step", lambda d, log, m: build_id_sequences(
            log, window=2, step=1.5)),
        "latency-no-repeats": ("repeats", lambda d, log, m: measure_latency(m, d.X, repeats=0)),
        "forest-negative-depth": ("max_depth", lambda d, log, m: RandomForest(max_depth=-1)),
        "gbdt-negative-depth": ("max_depth", lambda d, log, m: GradientBoosting(max_depth=-3)),
        "frequency-nan-k-sigma": ("k_sigma", lambda d, log, m: FrequencyDetector(
            k_sigma=float("nan"))),
    }


class TestRangeKinds:
    """Every count, fraction and positive number a constructor or document
    takes is a range kind that `core._read_field` reads."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_in_range_values_come_back_plain(self, data):
        kind = data.draw(st.sampled_from(sorted(RANGES)))
        value = data.draw(in_range(kind))
        got = core._read_field("doc", "f", value, kind)
        whole = isinstance(value, (int, np.integer))
        assert type(got) is (int if whole else float)
        assert got == (int(value) if whole else float(value))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_out_of_range_values_are_refused_naming_the_field(self, data):
        kind = data.draw(st.sampled_from(sorted(RANGES)))
        value = data.draw(out_of_range(kind))
        base = "an integer" if RANGES[kind][0] else "a number"
        with pytest.raises(ValueError, match=rf"^doc field 'f': .* is not {base} "):
            core._read_field("doc", "f", value, kind)
        with pytest.raises(ValueError, match=r"^doc field 'f': "):
            core._read_field("doc", "f", value, kind + " or null")

    @pytest.mark.parametrize("case", sorted(_range_calls()))
    def test_out_of_range_argument_raises_value_error_naming_it(self, case):
        """Each of these calls crashed with IndexError or TypeError, or ran with
        another setting, before its argument was read as a range kind."""
        field, call = _range_calls()[case]
        with pytest.raises(ValueError, match=rf"field '{field}': .* is not an? "):
            call(*_range_fixtures())
