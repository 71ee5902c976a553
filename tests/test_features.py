import csv
import io
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from canids import core
from canids.core import _BLOCK_ROWS, CanFrame, LabelSpace, LabeledFrame, TrafficLog
from canids.features import (
    SplitSpec,
    _stratified_counts,
    TabularDataset,
    feature_names,
    load_dataset_csv,
    log_to_dataset,
    save_dataset_csv,
    smote_oversample,
    split_train_test,
)
from canids.windows import build_id_sequences, load_id_sequences, save_id_sequences
from test_windows import int64_cells, make_log, written


def segment_check(point, originals, k, tol=1e-9):
    """Brute-force oracle: point lies on a segment from some original x
    toward one of x's k nearest same-class neighbors, within tol per
    coordinate."""
    n = len(originals)
    d2 = ((originals[:, None, :] - originals[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    k_eff = min(k, n - 1)
    kth = np.partition(d2, k_eff - 1, axis=1)[:, k_eff - 1]
    for i in range(n):
        x = originals[i]
        candidates = np.flatnonzero(d2[i] <= kth[i] + 1e-12)
        for j in candidates:
            nn = originals[j]
            span = nn - x
            moved = np.abs(span) > tol
            if not moved.any():
                if np.abs(point - x).max() <= tol:
                    return True
                continue
            pivot = np.argmax(np.abs(span))
            u = (point[pivot] - x[pivot]) / span[pivot]
            if not (-tol <= u <= 1 + tol):
                continue
            if np.abs(point - (x + u * span)).max() <= tol:
                return True
    return False


REFERENCE_FRAME = CanFrame(
    timestamp_us=1_040_000_000_000_682,
    channel="can0",
    can_id=0x0BA,
    data=bytes.fromhex("04B7EC04000602C8"),
)


def frame_to_features(frame, include_dlc=False):
    """The per-frame oracle for a row of log_to_dataset: [id, (dlc,) b0..b7],
    the data zero-padded to eight bytes.  Takes CanFrame or LabeledFrame."""
    cf = getattr(frame, "frame", frame)
    return [cf.can_id] + ([cf.dlc] if include_dlc else []) + list(cf.data.ljust(8, b"\0"))


def one_frame_row(frame, include_dlc=False):
    """The row log_to_dataset makes of a one-frame log."""
    space = LabelSpace()
    log = TrafficLog((LabeledFrame(frame, space.get("Normal")),), label_space=space)
    return log_to_dataset(log, include_dlc=include_dlc).X[0]


class TestFrameToFeatures:
    def test_reference_vector(self):
        vec = one_frame_row(REFERENCE_FRAME)
        assert vec.tolist() == [186, 4, 183, 236, 4, 0, 6, 2, 200]

    def test_empty_data_with_dlc(self):
        frame = CanFrame(0, "can0", 0x7FF, b"")
        vec = one_frame_row(frame, include_dlc=True)
        assert vec.tolist() == [0x7FF, 0] + [0] * 8
        assert len(vec) == 10

    def test_reconstruct_padded_bytes(self):
        vec = one_frame_row(REFERENCE_FRAME)
        rebuilt = bytes(int(v) for v in vec[1:])
        assert rebuilt == REFERENCE_FRAME.data.ljust(8, b"\x00")

    def test_accepts_labeled_frame(self):
        lf = LabeledFrame(REFERENCE_FRAME, LabelSpace().get("Normal"))
        assert frame_to_features(lf) == one_frame_row(REFERENCE_FRAME).tolist()

    @given(
        can_id=st.integers(0, 2**11 - 1),
        data=st.binary(min_size=0, max_size=8),
    )
    def test_injective_with_dlc(self, can_id, data):
        frame = CanFrame(0, "can0", can_id, data)
        vec = one_frame_row(frame, include_dlc=True)
        rebuilt_id = int(vec[0])
        rebuilt_dlc = int(vec[1])
        rebuilt = bytes(int(v) for v in vec[2 : 2 + rebuilt_dlc])
        assert (rebuilt_id, rebuilt) == (can_id, data)


def toy_log(n_per_class=50, classes=("Attack A", "Attack B")):
    space = LabelSpace(attack_names=classes)
    frames = []
    t = 0
    for i in range(n_per_class):
        for j, name in enumerate(("Normal",) + tuple(classes)):
            frames.append(
                LabeledFrame(
                    CanFrame(t, "can0", 0x100 + j, bytes([j, i % 256])), space.get(name)
                )
            )
            t += 1000
    return TrafficLog(tuple(frames), label_space=space)


class TestLogToDataset:
    def test_shapes_and_labels(self):
        log = toy_log(10)
        ds = log_to_dataset(log)
        assert ds.X.shape == (30, 9)
        assert ds.classes == ("Normal", "Attack A", "Attack B")
        assert ds.class_counts() == {"Normal": 10, "Attack A": 10, "Attack B": 10}
        assert ds.timestamps_us is not None
        assert not ds.synthetic.any()

    def test_unlabeled_rejected(self):
        log = TrafficLog((CanFrame(0, "can0", 1, b""),))
        with pytest.raises(ValueError, match="labeled"):
            log_to_dataset(log)

    def test_empty_labeled_log_gives_zero_rows(self):
        ds = log_to_dataset(TrafficLog((), LabelSpace(["A"])), include_dlc=True)
        assert ds.X.shape == (0, 10)
        assert len(ds.y) == 0 and len(ds.timestamps_us) == 0
        assert ds.classes == ("Normal", "A")

    @settings(max_examples=100, deadline=None)
    @given(
        frames=st.lists(
            st.tuples(st.booleans(), st.integers(0, 2**29 - 1), st.binary(max_size=8),
                      st.booleans()),
            max_size=12,
        ),
        include_dlc=st.booleans(),
    )
    def test_matches_per_frame_features(self, frames, include_dlc):
        space = LabelSpace(["A"])
        log = TrafficLog(tuple(
            LabeledFrame(
                CanFrame(t, "can0", can_id if extended else can_id & 0x7FF, data, extended),
                space.get("A" if attack else "Normal"),
            )
            for t, (extended, can_id, data, attack) in enumerate(frames)
        ), label_space=space)
        ds = log_to_dataset(log, include_dlc=include_dlc)
        expected = [frame_to_features(lf, include_dlc) for lf in log]
        assert ds.X.tolist() == expected
        assert ds.y.tolist() == [int(lf.label.is_attack) for lf in log]
        assert ds.timestamps_us.tolist() == list(range(len(frames)))


class TestSplit:
    def test_sizes_80_20(self):
        ds = log_to_dataset(toy_log(334))  # N = 1002
        ds = ds.subset(np.arange(1000))
        train, test = split_train_test(ds, SplitSpec(ratio=0.8, seed=1))
        assert (len(train), len(test)) == (800, 200)

    def test_stratified_proportions(self):
        ds = log_to_dataset(toy_log(100))
        train, test = split_train_test(ds, SplitSpec(ratio=0.8, seed=3))
        for name, total in ds.class_counts().items():
            got = train.class_counts()[name]
            assert abs(got - 0.8 * total) <= 1

    def test_two_sample_class_half(self):
        X = np.arange(8, dtype=float).reshape(4, 2)
        ds = TabularDataset(X=X, y=[0, 0, 1, 1], classes=("Normal", "A"))
        train, test = split_train_test(ds, SplitSpec(ratio=0.5, seed=0))
        assert train.class_counts()["A"] == 1
        assert test.class_counts()["A"] == 1

    def test_singleton_class_kept_in_train(self, caplog):
        X = np.zeros((11, 2))
        y = [0] * 10 + [1]
        ds = TabularDataset(X=X, y=y, classes=("Normal", "Rare"))
        with caplog.at_level(logging.WARNING):
            train, test = split_train_test(ds, SplitSpec(ratio=0.8, seed=0))
        assert train.class_counts()["Rare"] == 1
        assert test.class_counts()["Rare"] == 0
        assert any("kept whole" in r.message for r in caplog.records)

    def test_deterministic(self):
        ds = log_to_dataset(toy_log(40))
        a1, b1 = split_train_test(ds, SplitSpec(seed=9))
        a2, b2 = split_train_test(ds, SplitSpec(seed=9))
        assert np.array_equal(a1.X, a2.X) and np.array_equal(b1.y, b2.y)
        a3, _ = split_train_test(ds, SplitSpec(seed=10))
        assert not np.array_equal(a1.X, a3.X)

    def test_chronological_cut(self):
        ds = log_to_dataset(toy_log(50))
        train, test = split_train_test(ds, SplitSpec(ratio=0.7, mode="chronological"))
        assert train.timestamps_us.max() <= test.timestamps_us.min()
        assert len(train) == round(0.7 * len(ds))

    def test_chronological_needs_timestamps(self):
        ds = TabularDataset(X=np.zeros((4, 2)), y=[0, 0, 1, 1], classes=("Normal", "A"))
        with pytest.raises(ValueError, match="timestamps"):
            split_train_test(ds, SplitSpec(mode="chronological"))

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            SplitSpec(ratio=0.0)
        with pytest.raises(ValueError):
            SplitSpec(ratio=1.0)
        with pytest.raises(ValueError):
            SplitSpec(mode="sideways")

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="split field 'seed': -1 is not an integer from 0"):
            SplitSpec(seed=-1)


class TestDatasetColumns:
    """A dataset's labels are class indices by the rule fitting uses, and its
    timestamps whole microseconds: neither is truncated to an integer."""

    @pytest.mark.parametrize("y, message", [
        ([0.5, 1.7, True], r"label 0\.5 in row 0 is not a class index \(0\.\.1\)"),
        ([0, 1, 2], r"label 2 in row 2 is not a class index \(0\.\.1\)"),
        ([0, -1, 1], r"label -1 in row 1"),
        (["0", "1", "1"], "labels must be integer class indices"),
    ])
    def test_labels_that_are_not_class_indices_refused(self, y, message):
        with pytest.raises(ValueError, match=message):
            TabularDataset(X=np.zeros((3, 2)), y=y, classes=("Normal", "A"))

    def test_fractional_timestamps_refused(self):
        with pytest.raises(ValueError, match="timestamps must be integer microseconds, not float64"):
            TabularDataset(X=np.zeros((2, 1)), y=[0, 1], classes=("Normal", "A"),
                           timestamps_us=[1.5, 2.9])

    def test_whole_labels_stored_as_int64(self):
        data = TabularDataset(X=np.zeros((3, 1)), y=np.array([0.0, 1.0, True]),
                              classes=("Normal", "A"), timestamps_us=np.arange(3, dtype=np.uint8))
        assert data.y.dtype == np.int64 and data.y.tolist() == [0, 1, 1]
        assert data.timestamps_us.dtype == np.int64


def stratified_counts_by_loops(counts, ratio, total_train):
    """The per-class loops the split once ran: top classes up one at a
    time in (-remainder, index) order, or trim them in (remainder, -index)
    order, skipping a class that cannot move."""
    train_counts = np.where(counts == 1, counts, 0)
    budget = total_train - int(train_counts.sum())
    open_classes = np.flatnonzero(counts >= 2)
    ideal = counts[open_classes] * ratio
    base = np.floor(ideal).astype(np.int64)
    train_counts[open_classes] = base
    leftover = budget - int(base.sum())
    remainder = ideal - base
    if leftover > 0:
        for pos in np.lexsort((open_classes, -remainder)):
            c = open_classes[pos]
            if leftover and train_counts[c] < counts[c]:
                train_counts[c] += 1
                leftover -= 1
    elif leftover < 0:
        for pos in np.lexsort((-open_classes, remainder)):
            c = open_classes[pos]
            if leftover and train_counts[c] > 0:
                train_counts[c] -= 1
                leftover += 1
    return train_counts


class TestStratifiedCounts:
    @settings(max_examples=500, deadline=None)
    @given(counts=st.lists(st.integers(0, 40), min_size=1, max_size=8),
           ratio=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           total_offset=st.integers(-3, 3))
    def test_matches_the_loops(self, counts, ratio, total_offset):
        """Both the split's own total and totals a few rows either side,
        which can leave every class short or every class over."""
        counts = np.array(counts, dtype=np.int64)
        n = int(counts.sum())
        total_train = max(int(round(ratio * n)) + total_offset, 0)
        got = _stratified_counts(counts, ratio, total_train)
        assert got.tolist() == stratified_counts_by_loops(counts, ratio, total_train).tolist()


def small_imbalanced(n_attack=43, n_normal=400, seed=5):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [
            rng.normal(0, 1, (n_normal, 9)),
            rng.normal(5, 1, (n_attack, 9)),
        ]
    )
    y = np.array([0] * n_normal + [1] * n_attack)
    return TabularDataset(X=X, y=y, classes=("Normal", "Coolant Fab"))


class TestSmote:
    def test_exact_target(self):
        ds = small_imbalanced()
        out = smote_oversample(ds, target_count=500, k=5, seed=1)
        assert out.class_counts() == {"Normal": 400, "Coolant Fab": 500}

    def test_normal_untouched(self):
        ds = small_imbalanced()
        out = smote_oversample(ds, target_count=500, k=5, seed=1)
        normal_rows = out.X[out.y == 0]
        assert np.array_equal(normal_rows, ds.X[ds.y == 0])
        assert not out.synthetic[out.y == 0].any()

    def test_class_above_target_unchanged(self):
        ds = small_imbalanced(n_attack=90)
        out = smote_oversample(ds, target_count=50, k=5, seed=1)
        assert out.class_counts()["Coolant Fab"] == 90
        assert not out.synthetic.any()

    def test_segment_oracle(self):
        ds = small_imbalanced()
        out = smote_oversample(ds, target_count=300, k=5, seed=7)
        originals = ds.X[ds.y == 1]
        synth = out.X[out.synthetic & (out.y == 1)]
        assert len(synth) == 300 - 43
        for point in synth[::13]:
            assert segment_check(point, originals, k=5)

    def test_bounding_box(self):
        ds = small_imbalanced()
        out = smote_oversample(ds, target_count=400, k=5, seed=2)
        originals = ds.X[ds.y == 1]
        synth = out.X[out.synthetic]
        lo, hi = originals.min(0), originals.max(0)
        assert (synth >= lo - 1e-12).all() and (synth <= hi + 1e-12).all()

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="smote field 'seed': -1 is not an integer from 0"):
            smote_oversample(small_imbalanced(), target_count=100, k=3, seed=-1)

    def test_singleton_duplicates(self, caplog):
        X = np.vstack([np.zeros((5, 3)), np.ones((1, 3))])
        ds = TabularDataset(X=X, y=[0] * 5 + [1], classes=("Normal", "Rare"))
        with caplog.at_level(logging.WARNING):
            out = smote_oversample(ds, target_count=10, k=5, seed=0)
        assert out.class_counts()["Rare"] == 10
        assert np.array_equal(out.X[out.y == 1], np.ones((10, 3)))
        assert any("duplicating" in r.message for r in caplog.records)

    def test_deterministic(self):
        ds = small_imbalanced()
        a = smote_oversample(ds, target_count=200, k=5, seed=4)
        b = smote_oversample(ds, target_count=200, k=5, seed=4)
        assert np.array_equal(a.X, b.X)
        c = smote_oversample(ds, target_count=200, k=5, seed=5)
        assert not np.array_equal(a.X, c.X)

    def test_split_then_smote_leaves_test_clean(self):
        ds = small_imbalanced(n_attack=40, n_normal=160)
        train, test = split_train_test(ds, SplitSpec(ratio=0.8, seed=0))
        balanced = smote_oversample(train, target_count=300, k=5, seed=0)
        assert not test.synthetic.any()
        assert balanced.synthetic.sum() == 300 - train.class_counts()["Coolant Fab"]
        assert len(test) == len(ds) - len(train)


class TestCsvRoundTrip:
    def test_roundtrip_with_timestamps(self):
        ds = log_to_dataset(toy_log(20))
        buf = io.StringIO()
        save_dataset_csv(ds, buf)
        back = load_dataset_csv(io.StringIO(buf.getvalue()), classes=ds.classes)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.timestamps_us, ds.timestamps_us)
        assert back.classes == ds.classes
        assert back.names == ds.names

    def test_roundtrip_synthetic_flags(self):
        ds = smote_oversample(small_imbalanced(), target_count=100, k=3, seed=0)
        buf = io.StringIO()
        save_dataset_csv(ds, buf)
        back = load_dataset_csv(io.StringIO(buf.getvalue()), classes=ds.classes)
        assert np.array_equal(back.synthetic, ds.synthetic)
        assert np.allclose(back.X, ds.X, rtol=0, atol=0)

    def test_unknown_label_rejected(self):
        buf = io.StringIO("f0,label,provenance\n1.0,Mystery,original\n")
        with pytest.raises(ValueError, match="Mystery"):
            load_dataset_csv(buf, classes=("Normal",))

    def test_header_required(self):
        with pytest.raises(ValueError, match="label column"):
            load_dataset_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_nan_feature_rejected_with_row(self):
        text = "f0,f1,label,provenance\n1.0,2.0,Normal,original\n3.0,nan,Normal,original\n"
        with pytest.raises(ValueError, match=r"data row 2: feature 'f1' is NaN"):
            load_dataset_csv(io.StringIO(text))

    def test_infinite_feature_accepted(self):
        text = "f0,label,provenance\ninf,Normal,original\n-inf,Normal,original\n"
        back = load_dataset_csv(io.StringIO(text))
        assert back.X[:, 0].tolist() == [np.inf, -np.inf]

    def test_short_row_rejected_with_row_and_field_count(self):
        text = "id,b0,label,provenance\n1.0,2.0\n"
        with pytest.raises(ValueError, match=r"data row 1: 2 fields, expected 4"):
            load_dataset_csv(io.StringIO(text))

    def test_long_row_rejected(self):
        text = "f0,label,provenance\n1.0,Normal,original\n1.0,Normal,original,9\n"
        with pytest.raises(ValueError, match=r"data row 2: 4 fields, expected 3"):
            load_dataset_csv(io.StringIO(text))

    def test_non_numeric_feature_rejected_with_row_and_column(self):
        text = "f0,f1,label,provenance\n1.0,2.0,Normal,original\n3.0,foo,Normal,original\n"
        with pytest.raises(ValueError, match=r"data row 2: feature 'f1' is not a number: 'foo'"):
            load_dataset_csv(io.StringIO(text))

    def test_non_integer_timestamp_rejected_with_row(self):
        text = "f0,label,provenance,timestamp_us\n1.0,Normal,original,1.5\n"
        with pytest.raises(ValueError, match=r"data row 1: timestamp_us '1.5'"):
            load_dataset_csv(io.StringIO(text))


    @pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662", " 1.5 ", "1.5 ", "\t1", "1e400",
                                      "-1e400", "1" * 400, "0x10", "", "1,5"])
    def test_cells_the_writer_never_writes_rejected(self, cell):
        text = f'f0,f1,label,provenance\n1.0,2.0,Normal,original\n3.0,"{cell}",Normal,original\n'
        with pytest.raises(ValueError, match=r"data row 2: feature 'f1' is (not a number|beyond float64)"):
            load_dataset_csv(io.StringIO(text))

    @pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662", " 12 ", "12 ", "1e3", "", "0x10"])
    def test_timestamps_the_writer_never_writes_rejected(self, cell):
        text = f'f0,label,provenance,timestamp_us\n1.0,Normal,original,5\n1.0,Normal,original,"{cell}"\n'
        with pytest.raises(ValueError, match=r"data row 2: timestamp_us '.*' is not an integer"):
            load_dataset_csv(io.StringIO(text))

    def test_timestamp_beyond_64_bits_rejected(self):
        text = f"f0,label,provenance,timestamp_us\n1.0,Normal,original,{2**63}\n"
        with pytest.raises(ValueError, match=r"data row 1: timestamp_us 9223372036854775808 is beyond"):
            load_dataset_csv(io.StringIO(text))

    @pytest.mark.parametrize("cell, value", [
        ("1", 1.0), ("-0.0", -0.0), ("1e+16", 1e16), ("5e-324", 5e-324), ("inf", np.inf),
        ("-Infinity", -np.inf), ("1.7976931348623157e+308", 1.7976931348623157e308)])
    def test_plain_ascii_numbers_accepted(self, cell, value):
        back = load_dataset_csv(io.StringIO(f"f0,f1,label\n{cell},1e308,N\n"))
        assert back.X[0].tolist() == [value, 1e308]
        assert np.signbit(back.X[0, 0]) == np.signbit(value)


    @pytest.mark.parametrize("names", [("label", "provenance"), ("id", "timestamp_us"),
                                       ("provenance",)])
    def test_reserved_feature_names_refused_before_writing(self, names):
        data = TabularDataset(X=np.ones((1, len(names))), y=[0], classes=("1.0",), names=names)
        buf = io.StringIO()
        with pytest.raises(ValueError, match="feature names"):
            save_dataset_csv(data, buf)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("header", ["label,provenance,label,provenance,timestamp_us",
                                        "f0,label,provenance,timestamp_us,timestamp_us",
                                        "f0,label,provenance,provenance"])
    def test_header_naming_a_reserved_column_twice_refused(self, header):
        row = ",".join(["1"] * len(header.split(",")))
        with pytest.raises(ValueError, match="names '(label|provenance|timestamp_us)' 2 times"):
            load_dataset_csv(io.StringIO(f"{header}\n{row}\n"))

    @pytest.mark.parametrize("text", ["timestamp_us,label\n5,N\n",
                                      "f0,provenance,label\n1.0,original,N\n",
                                      "f0,timestamp_us,label,provenance\n1.0,5,N,original\n"])
    def test_reserved_column_before_label_refused_as_by_the_writer(self, text):
        """A reserved column before `label` would be read as a feature and
        as its own column at once."""
        with pytest.raises(ValueError, match="feature names may not be any of"):
            load_dataset_csv(io.StringIO(text))

    @pytest.mark.parametrize("cell", ["Synthetic", "junk", "", " synthetic", "ORIGINAL"])
    def test_provenance_other_than_original_or_synthetic_refused(self, cell):
        text = f'f0,label,provenance\n1.0,Normal,synthetic\n1.0,Normal,"{cell}"\n'
        with pytest.raises(ValueError, match=r"data row 2: provenance"):
            load_dataset_csv(io.StringIO(text))


class TestDatasetCsvRobustness:
    def test_unreadable_csv_line_is_a_value_error(self):
        """csv.reader refuses a carriage return inside an unquoted field
        with csv.Error, which is not a ValueError."""
        with pytest.raises(ValueError, match="line 2: new-line character"):
            load_dataset_csv(io.StringIO("f0,label\n1\r2,Normal\n"))

    @pytest.mark.parametrize("write, read", [
        (lambda: csv_text(save_dataset_csv, log_to_dataset(toy_log(3))),
         lambda stream, data: load_dataset_csv(
             stream, classes=data.draw(st.none() | st.just(("Normal", "Attack A", "Attack B"))))),
        (lambda: written(save_id_sequences, build_id_sequences(make_log(8, [3]), window=3)),
         lambda stream, data: load_id_sequences(stream)),
    ], ids=["dataset", "id-sequences"])
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_mutated_files_raise_only_value_error(self, write, read, data):
        """A truncated or mutated dataset or id-sequence file raises
        ValueError, or loads."""
        text = write()
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(text)))
            piece = data.draw(st.sampled_from(
                ["", ",", '"', "\n", "\r", "\x00", "nan", "inf", "-", "1e999", "x", "label",
                 "timestamp_us", "provenance", "\u00e9", " ", "start", "_", "\u0661",
                 "300", "99999999999999999999"]))
            text = text[:at] + piece + text[at + data.draw(st.integers(0, 3)):]
        text = text[:data.draw(st.integers(0, len(text)))]
        try:
            read(io.StringIO(text), data)
        except ValueError:
            pass


def reference_save_dataset_csv(data, stream):
    """The per-cell writer that save_dataset_csv replaced, kept as its oracle."""
    names = data.names or tuple(f"f{i}" for i in range(data.n_features))
    header = list(names) + ["label", "provenance"]
    has_ts = data.timestamps_us is not None
    if has_ts:
        header.append("timestamp_us")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for i in range(len(data)):
        row = [repr(float(v)) for v in data.X[i]]
        row.append(data.classes[data.y[i]])
        row.append("synthetic" if data.synthetic[i] else "original")
        if has_ts:
            row.append(str(int(data.timestamps_us[i])))
        writer.writerow(row)


def csv_text(writer, data):
    buf = io.StringIO()
    writer(data, buf)
    return buf.getvalue()


# Signed zeros, values repr writes in exponent form (1e16 is the first such
# integer), subnormals, the ends of the normal range, infinities and NaN.
SPECIAL_FLOATS = [0.0, -0.0, 1e16, 1e-7, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                  np.inf, -np.inf, np.nan, 0.1, -123456789.125, 1.7976931348623157e308]
# Whole floats around the bounds of the dense float path: 2**53, 1e16 (the
# first whole float repr writes in exponent form), 2**63 (past int64) and
# the largest float, with signed zeros and the non-finite values.
WHOLE_FLOATS = [0.0, -0.0, 1.0, -2.0, 255.0, 2.0**53 - 2, 2.0**53 - 1, 2.0**53, 2.0**53 + 2,
                1e16 - 2, 1e16, 1e16 + 2, 2.0**63 - 1024, 2.0**63, 2.0**63 + 2048, -(2.0**63),
                -(2.0**63) - 2048, 1.7976931348623157e308, np.inf, -np.inf, np.nan]
CLASS_NAMES = st.text(alphabet=' ,"\'ab\n\u00e9', max_size=6)


@st.composite
def tabular_datasets(draw, max_rows=10, elements=st.sampled_from(SPECIAL_FLOATS) | st.floats()):
    n = draw(st.integers(0, max_rows))
    d = draw(st.integers(0, 4))
    X = draw(arrays(np.float64, (n, d), elements=elements))
    classes = tuple(draw(st.lists(CLASS_NAMES, min_size=1, max_size=4)))
    y = draw(arrays(np.int64, n, elements=st.integers(0, len(classes) - 1)))
    return TabularDataset(
        X=X, y=y, classes=classes,
        timestamps_us=draw(st.none() | arrays(np.int64, n)),
        synthetic=draw(arrays(np.bool_, n)),
    )


class TestDatasetCsvWriter:
    """save_dataset_csv gives exactly the bytes of the per-cell csv.writer
    loop it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(tabular_datasets())
    def test_matches_reference(self, data):
        assert csv_text(save_dataset_csv, data) == csv_text(reference_save_dataset_csv, data)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from([1, 2, 3, 5]))
    def test_whole_floats_match_reference_at_any_block_size(self, data, block_rows):
        """Few distinct whole floats per block, so that the dense path is
        tried near each of its bounds; integer timestamps dense or sparse;
        blocks of a few rows; against repr(float) and csv.writer per row."""
        pool = data.draw(st.lists(st.sampled_from(WHOLE_FLOATS), min_size=1, max_size=3))
        spread = st.integers(-3, 3).map(float) | st.floats()
        dataset = data.draw(tabular_datasets(max_rows=12, elements=st.sampled_from(pool) | spread
                                             if data.draw(st.booleans()) else st.sampled_from(pool)))
        if dataset.timestamps_us is not None:
            dataset.timestamps_us = data.draw(int64_cells(len(dataset)))
        with mock.patch.object(core, "_BLOCK_ROWS", block_rows):
            assert csv_text(save_dataset_csv, dataset) == csv_text(reference_save_dataset_csv, dataset)

    @pytest.mark.parametrize("values", [[1e16] * 3, [2.0**53, 2.0**53 + 2, 2.0**53], [-0.0] * 2,
                                        [0.0, -0.0, 1.0], [2.0**63] * 2, [1.7976931348623157e308] * 2])
    def test_whole_floats_past_the_dense_bounds(self, values):
        X = np.array(values)[:, None]
        data = TabularDataset(X=X, y=np.zeros(len(X)), classes=("Normal",))
        assert csv_text(save_dataset_csv, data) == csv_text(reference_save_dataset_csv, data)

    def test_special_floats_in_one_block(self):
        # -0.0 == 0.0 and the two NaNs compare unequal, so formatting each
        # distinct value once must key on bits, not on float equality.
        X = np.array(SPECIAL_FLOATS + [-0.0, 0.0, -np.nan])[:, None]
        data = TabularDataset(X=X, y=np.zeros(len(X)), classes=("Normal",))
        text = csv_text(save_dataset_csv, data)
        assert text == csv_text(reference_save_dataset_csv, data)
        assert [row.split(",")[0] for row in text.splitlines()[1:3]] == ["0.0", "-0.0"]

    def test_lone_surrogate_class_name(self):
        """csv.writer writes a class name holding a lone surrogate."""
        data = TabularDataset(X=np.zeros((2, 1)), y=[0, 1], classes=("Normal", "bad\udc80"))
        assert csv_text(save_dataset_csv, data) == csv_text(reference_save_dataset_csv, data)

    @pytest.mark.parametrize("n", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_across_block_boundaries(self, n):
        rng = np.random.default_rng(n)
        X = rng.integers(0, 256, size=(n, 9)).astype(np.float64)
        X[::7] = rng.normal(size=(len(X[::7]), 9)) * 1e3
        data = TabularDataset(X=X, y=rng.integers(0, 2, size=n), classes=("Normal", "A, B"),
                              timestamps_us=np.arange(n) * 1000,
                              synthetic=rng.random(n) < 0.3, names=feature_names())
        text = csv_text(save_dataset_csv, data)
        assert text == csv_text(reference_save_dataset_csv, data)
        back = load_dataset_csv(io.StringIO(text), classes=data.classes)
        assert np.array_equal(back.X, data.X) and np.array_equal(back.y, data.y)

    @settings(max_examples=200, deadline=None)
    @given(tabular_datasets(
        elements=st.sampled_from([x for x in SPECIAL_FLOATS if x == x]) | st.floats(allow_nan=False)))
    def test_every_written_cell_loads_bit_exact(self, data):
        back = load_dataset_csv(io.StringIO(csv_text(save_dataset_csv, data)), classes=data.classes)
        assert back.X.shape == data.X.shape
        assert np.array_equal(back.X.view(np.uint64), data.X.view(np.uint64))
        assert [back.classes[i] for i in back.y] == [data.classes[i] for i in data.y]
        if data.timestamps_us is None:
            assert back.timestamps_us is None
        else:
            assert np.array_equal(back.timestamps_us, data.timestamps_us)

    def test_empty_labeled_log_writes_header_only(self):
        data = log_to_dataset(TrafficLog((), LabelSpace(["A"])))
        text = csv_text(save_dataset_csv, data)
        assert text == csv_text(reference_save_dataset_csv, data)
        assert text == "id,b0,b1,b2,b3,b4,b5,b6,b7,label,provenance,timestamp_us\n"
