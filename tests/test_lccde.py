import io
import itertools
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canids.detectors import fit_gbdt, load_model, save_model
from canids.evaluate import compute_metrics
from canids.lccde import (
    N_BASE_MODELS,
    LccdeEnsemble,
    LeaderMap,
    _arbitrate,
    arbitrate_one,
    lccde_predict,
    select_leaders,
)

CASE_UNANIMOUS = "unanimous"
CASE_MAJORITY = "majority"
CASE_SPLIT = "split"


def arbitration_case(labels):
    """Which of the three disagreement cases a prediction triple is in."""
    return {1: CASE_UNANIMOUS, 2: CASE_MAJORITY, 3: CASE_SPLIT}[len(set(labels))]


def oracle_arbitrate(labels, confidences, leaders, majority_literal):
    """Independent transcription of the arbitration rules, written as
    plain branches over explicit sub-cases."""
    l1, l2, l3 = labels
    # Case: all three agree.
    if l1 == l2 and l2 == l3:
        return l1
    # Case: exactly two agree.
    counts = {v: [i for i in range(3) if labels[i] == v] for v in set(labels)}
    majorities = [v for v, members in counts.items() if len(members) == 2]
    if majorities:
        m = majorities[0]
        leader_model = leaders[m]
        if majority_literal:
            return labels[leader_model]
        voters = counts[m]
        if confidences[voters[0]] >= confidences[voters[1]]:
            return m
        return m
    # Case: all three distinct.
    aligned = []
    for i in range(3):
        if leaders[labels[i]] == i:
            aligned.append(i)
    if len(aligned) == 1:
        return labels[aligned[0]]
    if len(aligned) >= 2:
        best = aligned[0]
        for i in aligned[1:]:
            if confidences[i] > confidences[best]:
                best = i
        return labels[best]
    best = 0
    for i in (1, 2):
        if confidences[i] > confidences[best]:
            best = i
    return labels[best]


def oracle_deciding_model(labels, confidences, leaders, majority_literal):
    """The base model that carries `oracle_arbitrate`'s decision: the
    majority class's leader under the literal reading, else the most
    confident of the models the case leaves, the lowest index on a tie."""
    def most_confident(models):
        return max(models, key=lambda i: (confidences[i], -i))

    if len(set(labels)) == 1:
        return most_confident(range(3))
    if len(set(labels)) == 2:
        majority = max(set(labels), key=list(labels).count)
        if majority_literal:
            return leaders[majority]
        return most_confident([i for i in range(3) if labels[i] == majority])
    return most_confident([i for i in range(3) if leaders[labels[i]] == i] or range(3))


CONFIDENCE_PATTERNS = [
    (0.9, 0.6, 0.8),
    (0.2, 0.95, 0.5),
    (0.4, 0.4, 0.9),
    (0.7, 0.7, 0.7),
]
# Every triple of three levels: all tie patterns.
CONFIDENCE_TRIPLES = list(itertools.product((0.4, 0.6, 0.9), repeat=3))


def canned_models(rows):
    """Three stub models that carry a list of (labels, confidences)
    triples: row r of model m scores confidences[m] on class labels[m]
    and 0 on the other two classes."""
    scores = np.zeros((N_BASE_MODELS, len(rows), 3))
    for r, (labels, confs) in enumerate(rows):
        scores[np.arange(N_BASE_MODELS), r, labels] = confs
    return [_Canned(s, CLASSES3) for s in scores]


class TestArbitrationExhaustive:
    def test_all_triples_all_leader_maps_both_readings(self):
        checked = 0
        for triple in itertools.product(range(3), repeat=3):
            for leaders in itertools.product(range(3), repeat=3):
                for confs in CONFIDENCE_PATTERNS:
                    for literal in (True, False):
                        got, model = arbitrate_one(list(triple), list(confs), leaders, literal)
                        want = oracle_arbitrate(list(triple), list(confs), leaders, literal)
                        assert got == want, (triple, leaders, confs, literal)
                        assert triple[model] == got or (
                            not literal and arbitration_case(triple) == CASE_MAJORITY
                        )
                        checked += 1
        assert checked == 27 * 27 * len(CONFIDENCE_PATTERNS) * 2

    def test_case_classification_total_and_exclusive(self):
        seen = {CASE_UNANIMOUS: 0, CASE_MAJORITY: 0, CASE_SPLIT: 0}
        for triple in itertools.product(range(3), repeat=3):
            seen[arbitration_case(triple)] += 1
        assert seen == {CASE_UNANIMOUS: 3, CASE_MAJORITY: 18, CASE_SPLIT: 6}

    def test_unanimity_ignores_leaders(self):
        for leaders in itertools.product(range(3), repeat=3):
            got, _ = arbitrate_one([2, 2, 2], [0.5, 0.6, 0.7], leaders)
            assert got == 2

    def test_majority_literal_dissenter_can_win(self):
        # Models 0 and 1 say class A(=0); the leader of A is model 2,
        # which predicted B(=1).  Literal reading returns B.
        labels = [0, 0, 1]
        leaders = (2, 0, 0)
        got, model = arbitrate_one(labels, [0.9, 0.9, 0.4], leaders, majority_literal=True)
        assert (got, model) == (1, 2)
        got_alt, _ = arbitrate_one(labels, [0.9, 0.9, 0.4], leaders, majority_literal=False)
        assert got_alt == 0

    def test_split_single_aligned_pair(self):
        # Predictions (A, B, C) = (0, 1, 2); only model 0 leads its own
        # predicted class.
        leaders = (0, 2, 1)
        got, model = arbitrate_one([0, 1, 2], [0.1, 0.9, 0.9], leaders)
        assert (got, model) == (0, 0)

    def test_split_multiple_aligned_pairs_confidence(self):
        leaders = (0, 1, 0)
        got, _ = arbitrate_one([0, 1, 2], [0.5, 0.8, 0.9], leaders)
        assert got == 1

    def test_split_no_aligned_pair_falls_back(self):
        leaders = (1, 2, 0)
        got, _ = arbitrate_one([0, 1, 2], [0.5, 0.95, 0.6], leaders)
        assert got == 1

    def test_vectorized_paths_match_oracle(self):
        """`_arbitrate` and `lccde_predict` decide every row as
        `arbitrate_one` does, ties included."""
        rows = [
            (labels, confs)
            for labels in itertools.product(range(3), repeat=3)
            for confs in CONFIDENCE_PATTERNS + CONFIDENCE_TRIPLES
        ]
        models = canned_models(rows)
        X = np.zeros((len(rows), 1))
        checked = 0
        for leaders in itertools.product(range(3), repeat=3):
            leader_map = LeaderMap(CLASSES3, leaders, np.zeros((3, 3)), (1.0, 1.0, 1.0))
            for literal in (True, False):
                got = _arbitrate([m.scores for m in models], leader_map, literal)
                predicted = lccde_predict(models, leader_map, X, literal)
                for r, (labels, confs) in enumerate(rows):
                    want = arbitrate_one(list(labels), list(confs), leaders, literal)
                    assert want[0] == oracle_arbitrate(labels, confs, leaders, literal)
                    assert (got[0][r], got[1][r]) == want, (labels, confs, leaders, literal)
                    assert (predicted[0][r], predicted[1][r]) == want
                    checked += 1
        assert checked == 27 * 27 * (len(CONFIDENCE_PATTERNS) + 27) * 2

    def test_whole_float_labels_are_class_indices(self):
        assert arbitrate_one([1.0, 1.0, 2.0], [0.5, 0.6, 0.7], (0, 1, 2)) == \
            arbitrate_one([1, 1, 2], [0.5, 0.6, 0.7], (0, 1, 2))

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            arbitrate_one([0, 1], [0.5, 0.5], (0, 0, 0))

    @pytest.mark.parametrize("labels", [[3, 3, 3], [0, 3, 3], [-1, 0, 0], [0.5, 1, 1],
                                        [1.0, 1.5, 2.0]])
    def test_label_outside_the_leader_map(self, labels):
        """A ValueError, not an IndexError or a class read from the end."""
        with pytest.raises(ValueError, match="class indices below 3"):
            arbitrate_one(labels, [0.5, 0.6, 0.7], (0, 1, 2))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_classes=st.integers(2, 6), literal=st.booleans())
    def test_one_row_and_batch_match_oracle_for_2_to_6_classes(self, data, n_classes, literal):
        """Random finite confidences drawn from a few levels, so exact ties
        are common; each row's confidence sits on its label, the rest is 0."""
        leaders = tuple(data.draw(st.lists(st.integers(0, N_BASE_MODELS - 1),
                                           min_size=n_classes, max_size=n_classes)))
        triple = st.lists(st.integers(0, n_classes - 1), min_size=3, max_size=3)
        levels = st.lists(st.sampled_from((0.25, 0.5, 0.7, 1.0)) | st.floats(0.01, 1.0),
                          min_size=3, max_size=3)
        rows = data.draw(st.lists(st.tuples(triple, levels), min_size=1, max_size=20))
        scores = np.zeros((N_BASE_MODELS, len(rows), n_classes))
        for r, (labels, confs) in enumerate(rows):
            scores[np.arange(N_BASE_MODELS), r, labels] = confs
        leader_map = LeaderMap(tuple(map(str, range(n_classes))), leaders,
                               np.zeros((n_classes, 3)), (1.0, 1.0, 1.0))
        batch, picked = _arbitrate(list(scores), leader_map, literal)
        for r, (labels, confs) in enumerate(rows):
            want = (oracle_arbitrate(labels, confs, leaders, literal),
                    oracle_deciding_model(labels, confs, leaders, literal))
            assert arbitrate_one(labels, confs, leaders, literal) == want
            assert (batch[r], picked[r]) == want


class _Canned:
    """Stub detector returning fixed score matrices."""

    def __init__(self, scores, classes, latency_us=None):
        self.scores = np.asarray(scores, dtype=np.float64)
        self.classes = tuple(classes)
        self.latency_us = latency_us

    def predict_scores(self, X):
        return self.scores[: len(X)]

    def predict_labels(self, X):
        return self.predict_scores(X).argmax(axis=1)


CLASSES3 = ("Normal", "Attack A", "Attack B")


def onehotish(label, n=3, conf=0.9):
    row = np.full(n, (1.0 - conf) / (n - 1))
    row[label] = conf
    return row


class TestSelectLeaders:
    def make_val(self):
        # Truth: 0,0,1,1,2,2
        val_y = np.array([0, 0, 1, 1, 2, 2])
        val_X = np.zeros((6, 2))
        return val_X, val_y

    def test_strict_argmax(self):
        val_X, val_y = self.make_val()
        # Model 0 perfect; model 1 ruins class 2; model 2 ruins 1 and 2.
        m0 = _Canned([onehotish(v) for v in [0, 0, 1, 1, 2, 2]], CLASSES3, 1.0)
        m1 = _Canned([onehotish(v) for v in [0, 0, 1, 1, 0, 0]], CLASSES3, 1.0)
        m2 = _Canned([onehotish(v) for v in [0, 0, 0, 0, 0, 0]], CLASSES3, 1.0)
        leaders = select_leaders([m0, m1, m2], val_X, val_y)
        assert leaders.leader == (0, 0, 0)
        assert leaders.f1_matrix[2].tolist() == pytest.approx([1.0, 0.0, 0.0])

    def test_latency_breaks_ties(self):
        val_X, val_y = self.make_val()
        preds = [onehotish(v) for v in [0, 0, 1, 1, 2, 2]]
        m0 = _Canned(preds, CLASSES3, latency_us=2.0)
        m1 = _Canned(preds, CLASSES3, latency_us=1.0)
        m2 = _Canned(preds, CLASSES3, latency_us=3.0)
        leaders = select_leaders([m0, m1, m2], val_X, val_y)
        assert leaders.leader == (1, 1, 1)

    def test_model_index_breaks_residual_ties(self):
        val_X, val_y = self.make_val()
        preds = [onehotish(v) for v in [0, 0, 1, 1, 2, 2]]
        models = [_Canned(preds, CLASSES3, latency_us=1.0) for _ in range(3)]
        leaders = select_leaders(models, val_X, val_y)
        assert leaders.leader == (0, 0, 0)

    def test_all_zero_f1_resolved_by_speed(self):
        val_X, val_y = self.make_val()
        # Nobody ever predicts class 2.
        preds = [onehotish(v) for v in [0, 0, 1, 1, 0, 1]]
        m0 = _Canned(preds, CLASSES3, latency_us=5.0)
        m1 = _Canned(preds, CLASSES3, latency_us=1.0)
        m2 = _Canned(preds, CLASSES3, latency_us=3.0)
        leaders = select_leaders([m0, m1, m2], val_X, val_y)
        assert leaders.f1_matrix[2].tolist() == [0.0, 0.0, 0.0]
        assert leaders.leader[2] == 1

    def test_absent_class_uses_macro(self, caplog):
        val_y = np.array([0, 0, 1, 1])  # class 2 absent
        val_X = np.zeros((4, 2))
        good = _Canned([onehotish(v) for v in [0, 0, 1, 1]], CLASSES3, 1.0)
        bad = _Canned([onehotish(v) for v in [1, 1, 0, 0]], CLASSES3, 0.5)
        worse = _Canned([onehotish(v) for v in [1, 1, 1, 1]], CLASSES3, 0.1)
        with caplog.at_level(logging.WARNING):
            leaders = select_leaders([good, bad, worse], val_X, val_y)
        assert leaders.leader[2] == 0
        assert any("absent from validation" in r.message for r in caplog.records)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_leader_is_first_in_sort_order(self, data):
        """On a few rows, F1 ties, latency ties and classes absent from
        validation are common; each leader is still the first model by
        (-F1, latency, index), with macro F1 standing in for an absent
        class's F1."""
        n = data.draw(st.integers(1, 5))
        rows = st.lists(st.integers(0, 2), min_size=n, max_size=n)
        val_y = np.array(data.draw(rows))
        preds = [data.draw(rows) for _ in range(N_BASE_MODELS)]
        latencies = data.draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=3, max_size=3))
        models = [_Canned([onehotish(v) for v in p], CLASSES3) for p in preds]
        leaders = select_leaders(models, np.zeros((n, 2)), val_y, latencies_us=latencies)
        reports = [compute_metrics(val_y, p, CLASSES3) for p in preds]
        for c in range(len(CLASSES3)):
            f1 = [r.per_class[c].f1 for r in reports]
            assert leaders.f1_matrix[c].tolist() == f1
            if not (val_y == c).any():
                f1 = [r.macro_f1 for r in reports]
            ranked = sorted(range(N_BASE_MODELS), key=lambda i: (-f1[i], latencies[i], i))
            assert leaders.leader[c] == ranked[0]

    def test_injected_latencies(self):
        val_X, val_y = self.make_val()
        preds = [onehotish(v) for v in [0, 0, 1, 1, 2, 2]]
        models = [_Canned(preds, CLASSES3) for _ in range(3)]
        leaders = select_leaders(models, val_X, val_y, latencies_us=(9.0, 2.0, 4.0))
        assert leaders.leader == (1, 1, 1)
        assert leaders.latencies_us == (9.0, 2.0, 4.0)

    def test_wrong_model_count(self):
        val_X, val_y = self.make_val()
        m = _Canned([onehotish(0)] * 6, CLASSES3, 1.0)
        with pytest.raises(ValueError, match="exactly 3"):
            select_leaders([m, m], val_X, val_y)

    def test_class_list_mismatch(self):
        val_X, val_y = self.make_val()
        a = _Canned([onehotish(0)] * 6, CLASSES3, 1.0)
        b = _Canned([onehotish(0)] * 6, ("Normal", "X", "Y"), 1.0)
        with pytest.raises(ValueError, match="class list"):
            select_leaders([a, b, a], val_X, val_y)


def blobs3(n=90, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [
            rng.normal(0, 1, (n, 4)),
            rng.normal(6, 1, (n, 4)),
            rng.normal(-6, 1, (n, 4)),
        ]
    )
    y = np.repeat(np.arange(3), n)
    return X, y


class TestEnsemble:
    def test_fit_predict_accuracy(self):
        X, y = blobs3()
        model = LccdeEnsemble(seed=1).fit(X, y, CLASSES3)
        assert (model.predict_labels(X) == y).mean() >= 0.99
        assert model.leaders is not None

    def test_identical_bases_match_base(self):
        X, y = blobs3(seed=2)
        cfg = {"n_rounds": 8, "learning_rate": 0.2, "max_depth": 3, "seed": 7}
        ensemble = LccdeEnsemble(base_configs=[dict(cfg)] * 3, seed=3).fit(X, y, CLASSES3)
        base = fit_gbdt(
            *_train_part(X, y, ensemble), classes=CLASSES3, **cfg
        )
        assert np.array_equal(ensemble.predict_labels(X), base.predict_labels(X))

    def test_batch_predict_matches_scalar(self):
        X, y = blobs3(seed=4)
        model = LccdeEnsemble(seed=5).fit(X, y, CLASSES3)
        labels, picked = lccde_predict(model.models, model.leaders, X[:40])
        for i in range(40):
            scores = [m.predict_scores(X[i : i + 1])[0] for m in model.models]
            want, _ = arbitrate_one(
                [int(s.argmax()) for s in scores],
                [float(s.max()) for s in scores],
                model.leaders.leader,
            )
            assert labels[i] == want

    def test_prediction_objects_consistent(self):
        X, y = blobs3(seed=6)
        model = LccdeEnsemble(seed=7).fit(X, y, CLASSES3)
        scores = model.predict_scores(X[:20])
        assert np.abs(scores.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.array_equal(scores.argmax(axis=1), model.predict_labels(X[:20]))

    def test_scores_each_base_model_once(self):
        X, y = blobs3(seed=6)
        model = LccdeEnsemble(seed=7).fit(X, y, CLASSES3)
        calls = []
        for i, base in enumerate(model.models):

            def counted(Z, i=i, score=base.predict_scores):
                calls.append(i)
                return score(Z)

            base.predict_scores = counted
        scores = model.predict_scores(X[:20])
        assert sorted(calls) == [0, 1, 2]
        _, picked = lccde_predict(model.models, model.leaders, X[:20])
        want = [model.models[m].predict_scores(X[r : r + 1])[0] for r, m in enumerate(picked)]
        assert np.array_equal(scores, np.array(want))

    def test_roundtrip(self):
        X, y = blobs3(seed=8)
        model = LccdeEnsemble(seed=9).fit(X, y, CLASSES3)
        buf = io.StringIO()
        save_model(model, buf)
        back = load_model(io.StringIO(buf.getvalue()))
        assert isinstance(back, LccdeEnsemble)
        assert np.array_equal(back.predict_labels(X), model.predict_labels(X))
        assert back.leaders.leader == model.leaders.leader

    def test_config_validation(self):
        with pytest.raises(ValueError, match="base configs"):
            LccdeEnsemble(base_configs=[{}, {}])
        with pytest.raises(ValueError, match="val_frac"):
            LccdeEnsemble(val_frac=0.0)

    @pytest.mark.parametrize("configs", [None, [], [{}, {}], [{}, {}, []], [[["n_rounds", 2]]] * 3])
    def test_document_base_configs_must_list_three_objects(self, configs):
        """A null `base_configs` would reload as the defaults, and the
        reloaded 2-round ensemble would then save `n_rounds: 30`."""
        X, y = blobs3(seed=8)
        model = LccdeEnsemble(base_configs=[{"n_rounds": 2, "max_depth": 2}] * 3, seed=9).fit(X, y)
        doc = model.to_json_obj()
        doc["base_configs"] = configs
        with pytest.raises(ValueError, match="base[_ ]configs"):
            load_model(io.StringIO(json.dumps(doc)))

    def test_document_base_configs_object_is_a_bad_hyperparameter(self):
        """An object of three configs passes the constructor's length check;
        iterating it yields its keys, which are not configs."""
        X, y = blobs3(seed=8)
        model = LccdeEnsemble(base_configs=[{"n_rounds": 2, "max_depth": 2}] * 3, seed=9).fit(X, y)
        doc = model.to_json_obj()
        doc["base_configs"] = {"a": {}, "b": {}, "c": {}}
        with pytest.raises(ValueError, match="lccde model has a bad hyperparameter"):
            load_model(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize("configs, message", [
        ([{"n_roundz": 2}, {}, {}], r"entry 0: 'n_roundz' is not a gbdt hyperparameter"),
        ([{}, {"n_rounds": "2"}, {}], r"entry 1: gbdt model field 'n_rounds': '2' is not an integer"),
        ([{}, {}, {"learning_rate": True}], r"entry 2: .*'learning_rate': True is not a number"),
        ([{}, {}, {"n_rounds": 0}], r"entry 2: .*'n_rounds': 0 is not an integer from 1"),
        ([{}, {}, [("n_rounds", 2)]], r"\[\('n_rounds', 2\)\] is not an object"),
        ({"a": {}, "b": {}, "c": {}}, r"\{.*\} is not a list"),
    ])
    def test_base_configs_checked_when_built(self, configs, message):
        with pytest.raises(ValueError, match=rf"lccde model field 'base_configs': {message}"):
            LccdeEnsemble(base_configs=configs)

    def test_numpy_hyperparameters_are_stored_plain(self):
        X, y = blobs3(seed=8)
        model = LccdeEnsemble(base_configs=[{"n_rounds": np.int64(2), "max_depth": np.uint8(2),
                                             "learning_rate": np.float32(0.5)}] * 3,
                              val_frac=np.float16(0.25), majority_literal=np.True_,
                              seed=np.int64(9)).fit(X, y)
        buf = io.StringIO()
        save_model(model, buf)
        back = load_model(io.StringIO(buf.getvalue()))
        assert back.base_configs == [{"n_rounds": 2, "max_depth": 2, "learning_rate": 0.5}] * 3
        assert (back.seed, back.val_frac, back.majority_literal) == (9, 0.25, True)
        assert np.array_equal(back.predict_labels(X), model.predict_labels(X))

    @pytest.mark.parametrize("field, value, message", [
        ("leader", [1.7, True, 0], "field 'leader': 1.7 is not an integer"),
        ("leader", [1, True, 0], "field 'leader': True is not an integer"),
        ("latencies_us", ["3", 1.0, 2.0], "field 'latencies_us': '3' is not a number"),
        ("f1_matrix", [[1.0, "0.5", 0.0]] * 3, "field 'f1_matrix': '0.5' is not a number"),
        ("classes", ["Normal", 1, "B"], "field 'classes': 1 is not a string"),
    ])
    def test_leader_map_fields_are_not_cast(self, field, value, message):
        """int() and float() would read 1.7 and true as 1, and "3" as 3.0."""
        doc = LeaderMap(classes=CLASSES3, leader=(0, 1, 2), f1_matrix=np.eye(3),
                        latencies_us=(1.0, 2.0, 3.0)).to_json_obj()
        doc[field] = value
        with pytest.raises(ValueError, match=rf"lccde leaders {message}"):
            LeaderMap.from_json_obj(doc)

    def test_leader_map_json(self):
        lm = LeaderMap(
            classes=CLASSES3,
            leader=(0, 1, 2),
            f1_matrix=np.eye(3),
            latencies_us=(1.0, 2.0, 3.0),
        )
        back = LeaderMap.from_json_obj(json.loads(json.dumps(lm.to_json_obj())))
        assert back.leader == lm.leader
        assert np.array_equal(back.f1_matrix, lm.f1_matrix)


def _train_part(X, y, ensemble):
    """Reproduce the ensemble's internal train split for comparison."""
    from canids.features import SplitSpec, TabularDataset, split_train_test

    data = TabularDataset(X=X, y=y, classes=ensemble.classes)
    train, _ = split_train_test(
        data,
        SplitSpec(ratio=1.0 - ensemble.val_frac, mode="stratified_random", seed=ensemble.seed),
    )
    return train.X, train.y
