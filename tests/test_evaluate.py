import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from canids.evaluate import (
    EvalReport,
    compute_metrics,
    confusion_matrix,
    emit_report,
    window_binary_labels,
)


def brute_force_metrics(y_true, y_pred, n_classes):
    """Per-class counting oracle with explicit loops."""
    out = {}
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out[c] = (precision, recall, f1, tp, fp, fn)
    return out


CLASSES3 = ("Normal", "Attack A", "Attack B")


class TestComputeMetrics:
    def test_perfect(self):
        y = [0, 1, 2, 1, 0]
        report = compute_metrics(y, y, CLASSES3)
        for m in report.per_class:
            assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
        assert report.accuracy == 1.0

    def test_binary_arithmetic(self):
        # TP=3, FP=1, FN=1 for the attack class.
        y_true = [1, 1, 1, 1, 0, 0, 0]
        y_pred = [1, 1, 1, 0, 1, 0, 0]
        report = compute_metrics(y_true, y_pred, ("Normal", "Attack"))
        m = report.metrics_for("Attack")
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.75)
        assert m.f1 == pytest.approx(0.75)

    def test_never_predicted_class(self):
        y_true = [0, 1, 2, 2]
        y_pred = [0, 1, 0, 1]
        report = compute_metrics(y_true, y_pred, CLASSES3)
        m = report.metrics_for("Attack B")
        assert m.recall == 0.0
        assert m.f1 == 0.0
        assert "precision" in m.undefined

    def test_absent_class_flagged(self):
        report = compute_metrics([0, 0], [0, 0], ("Normal", "Ghost"))
        m = report.metrics_for("Ghost")
        assert m.undefined == ("precision", "recall", "f1")
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        assert m.support == 0

    def test_errors(self):
        with pytest.raises(ValueError, match="lengths differ"):
            compute_metrics([0], [0, 1], CLASSES3)
        with pytest.raises(ValueError, match="empty"):
            compute_metrics([], [], CLASSES3)
        with pytest.raises(ValueError, match="out of range"):
            compute_metrics([0, 5], [0, 0], CLASSES3)

    @pytest.mark.parametrize("y_true, y_pred, row", [
        ([0.9, 1.2], [0, 1], r"label 0\.9 in row 0"),
        ([0, 1], [1, 1.5], r"label 1\.5 in row 1"),
        ([0, 1], [0, -1], r"label -1 in row 1"),
    ])
    def test_labels_are_not_truncated(self, y_true, y_pred, row):
        """A fractional label is refused, not cast to the index below it."""
        with pytest.raises(ValueError, match=rf"out of range for the class list: {row} "):
            compute_metrics(y_true, y_pred, ("Normal", "Attack"))

    def test_confusion_rows_are_support(self):
        rng = np.random.default_rng(3)
        y_true = rng.integers(0, 3, 200)
        y_pred = rng.integers(0, 3, 200)
        report = compute_metrics(y_true, y_pred, CLASSES3)
        for c in range(3):
            assert report.confusion[c].sum() == (y_true == c).sum()
            assert report.per_class[c].support == (y_true == c).sum()

    def test_macro_excludes_normal_by_default(self):
        y_true = [0, 0, 1, 2]
        y_pred = [0, 0, 1, 1]
        report = compute_metrics(y_true, y_pred, CLASSES3)
        assert report.macro_classes == ("Attack A", "Attack B")
        a = report.metrics_for("Attack A")
        b = report.metrics_for("Attack B")
        assert report.macro_f1 == pytest.approx((a.f1 + b.f1) / 2)
        full = compute_metrics(y_true, y_pred, CLASSES3, include_normal_in_macro=True)
        assert full.macro_classes == CLASSES3

    def test_against_brute_force(self):
        """Every figure equals the counting oracle's exactly: per-class
        values and flags, macro means over the member classes in class
        order, and micro figures from the pooled counts."""
        rng = np.random.default_rng(11)
        for with_normal, include_normal in itertools.product((False, True), repeat=2):
            for _ in range(50):
                n_classes = int(rng.integers(1, 6))
                n = rng.integers(1, 120)
                y_true = rng.integers(0, n_classes, n)
                y_pred = rng.integers(0, n_classes, n)
                classes = [f"C{i}" for i in range(n_classes)]
                if with_normal:
                    classes[rng.integers(n_classes)] = "Normal"
                report = compute_metrics(y_true, y_pred, classes, include_normal)
                oracle = brute_force_metrics(y_true.tolist(), y_pred.tolist(), n_classes)
                for c in range(n_classes):
                    m = report.per_class[c]
                    p, r, f1, tp, fp, fn = oracle[c]
                    assert (m.precision, m.recall, m.f1) == (p, r, f1)
                    flags = (tp + fp == 0, tp + fn == 0, p + r == 0)
                    assert m.undefined == tuple(
                        name for name, flag in zip(("precision", "recall", "f1"), flags) if flag)

                members = [c for c in range(n_classes)
                           if include_normal or classes[c] != "Normal"] or list(range(n_classes))
                assert report.macro_classes == tuple(classes[c] for c in members)
                for k, macro in enumerate((report.macro_precision, report.macro_recall,
                                           report.macro_f1)):
                    assert macro == np.mean([oracle[c][k] for c in members])

                micro_tp, micro_fp, micro_fn = (sum(oracle[c][k] for c in range(n_classes))
                                                for k in (3, 4, 5))
                micro_p = micro_tp / (micro_tp + micro_fp)
                micro_r = micro_tp / (micro_tp + micro_fn)
                assert micro_p == micro_r == report.accuracy == (y_true == y_pred).mean()
                assert (report.micro_precision, report.micro_recall) == (micro_p, micro_r)
                assert report.micro_f1 == (
                    2 * micro_p * micro_r / (micro_p + micro_r) if micro_p + micro_r else 0.0)

    def test_micro_recall_is_accuracy(self):
        rng = np.random.default_rng(5)
        y_true = rng.integers(0, 4, 500)
        y_pred = rng.integers(0, 4, 500)
        classes = ("Normal", "A", "B", "C")
        report = compute_metrics(y_true, y_pred, classes)
        acc = float((y_true == y_pred).mean())
        assert abs(report.micro_recall - acc) <= 1e-12
        assert abs(report.micro_precision - acc) <= 1e-12

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=200
        ),
        seed=st.integers(0, 2**16),
    )
    def test_permutation_invariant(self, data, seed):
        y_true = np.array([t for t, _ in data])
        y_pred = np.array([p for _, p in data])
        classes = ("Normal", "A", "B", "C")
        base = compute_metrics(y_true, y_pred, classes)
        perm = np.random.default_rng(seed).permutation(len(data))
        shuffled = compute_metrics(y_true[perm], y_pred[perm], classes)
        assert np.array_equal(base.confusion, shuffled.confusion)
        assert base.accuracy == shuffled.accuracy
        for m1, m2 in zip(base.per_class, shuffled.per_class):
            assert (m1.precision, m1.recall, m1.f1) == (m2.precision, m2.recall, m2.f1)

    def test_f1_symmetry_at_equal_precision_recall(self):
        # Swapping FP and FN leaves F1 unchanged exactly when it swaps
        # precision and recall; the harmonic mean is symmetric.
        rng = np.random.default_rng(9)
        for _ in range(30):
            tp = int(rng.integers(1, 20))
            fp = int(rng.integers(0, 20))
            fn = int(rng.integers(0, 20))
            y_true = [1] * tp + [0] * fp + [1] * fn
            y_pred = [1] * tp + [1] * fp + [0] * fn
            swapped_true = [1] * tp + [0] * fn + [1] * fp
            swapped_pred = [1] * tp + [1] * fn + [0] * fp
            a = compute_metrics(y_true, y_pred, ("Normal", "Attack")).metrics_for("Attack")
            b = compute_metrics(swapped_true, swapped_pred, ("Normal", "Attack")).metrics_for("Attack")
            assert a.f1 == pytest.approx(b.f1, abs=1e-12)
            assert a.precision == pytest.approx(b.recall, abs=1e-12)


class TestConfusionMatrix:
    def test_small_example(self):
        cm = confusion_matrix(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]), 2)
        assert cm.tolist() == [[1, 1], [0, 2]]

    @pytest.mark.parametrize("y_true, y_pred, message", [
        ([0.9, 1.2], [0, 1], r"label 0\.9 in row 0 is not a class index \(0\.\.1\)"),
        ([0, 1], [1, 5], r"label 5 in row 1 is not a class index \(0\.\.1\)"),
        ([0, -1], [0, 0], r"label -1 in row 1"),
    ])
    def test_refuses_labels_that_are_not_class_indices(self, y_true, y_pred, message):
        """Fractions are not counted as the classes below them, and a label
        past the classes is named, not a numpy reshape error."""
        with pytest.raises(ValueError, match=message):
            confusion_matrix(np.array(y_true), np.array(y_pred), 2)

    def test_compute_metrics_keeps_its_wording(self):
        with pytest.raises(ValueError, match=r"^label index out of range for the class list: "
                                             r"label 2 in row 0"):
            compute_metrics([2], [0], ("Normal", "Attack"))


class TestWindowLabels:
    def test_any_attack_rule(self):
        flags = [False] * 10 + [True] + [False] * 10
        out = window_binary_labels(flags, window=5, step=5)
        assert out.tolist() == [0, 0, 1, 0]

    def test_step_one_count(self):
        out = window_binary_labels([False] * 40, window=16, step=1)
        assert len(out) == 25
        assert not out.any()

    def test_short_input(self):
        assert len(window_binary_labels([True] * 3, window=5, step=1)) == 0


class TestEmitReport:
    def make_report(self):
        return compute_metrics([0, 1, 1, 0, 1], [0, 1, 0, 0, 1], ("Normal", "Attack"))

    def test_json_structure(self):
        report = self.make_report()
        report.timings["predict_seconds"] = 0.5
        obj = json.loads(emit_report(report, "json"))
        assert obj["schema_version"] == 1
        assert obj["classes"] == ["Normal", "Attack"]
        assert obj["micro"]["recall"] == obj["accuracy"]
        assert "timings" in obj and obj["timings"]["predict_seconds"] == 0.5

    def test_json_stable_outside_timings(self):
        a = self.make_report()
        b = self.make_report()
        a.timings["predict_seconds"] = 0.1
        b.timings["predict_seconds"] = 99.9
        obj_a = json.loads(emit_report(a, "json"))
        obj_b = json.loads(emit_report(b, "json"))
        obj_a.pop("timings"), obj_b.pop("timings")
        assert json.dumps(obj_a) == json.dumps(obj_b)

    def test_csv_one_row_per_class(self):
        text = emit_report(self.make_report(), "csv")
        lines = text.strip().split("\n")
        assert lines[0].startswith("model,class,")
        assert len(lines) == 3

    def test_text_table(self):
        text = emit_report(self.make_report(), "text_table")
        assert "Attack" in text and "accuracy" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            emit_report(self.make_report(), "xml")


class TestReportApi:
    def test_metrics_for_missing(self):
        report = compute_metrics([0], [0], ("Normal",))
        with pytest.raises(KeyError):
            report.metrics_for("Nope")

    def test_is_eval_report(self):
        assert isinstance(compute_metrics([0], [0], ("Normal",)), EvalReport)
