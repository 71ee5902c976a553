import functools
import hashlib
import inspect
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from canids import detectors
from canids.core import CanFrame, TrafficLog
from canids.detectors import (
    DecisionTree,
    FrequencyDetector,
    GradientBoosting,
    NotFittedError,
    RandomForest,
    fit_decision_tree,
    fit_frequency_detector,
    fit_gbdt,
    fit_random_forest,
    load_model,
    measure_latency,
    model_from_json_obj,
    save_model,
)
from canids.detectors import (
    _MODEL_KINDS,
    _Gini,
    _grow_trees,
    _distinct_rows,
    _id_order,
    _Newton,
    _rank_codes,
    _safe_threshold,
    _softmax,
    _TreeArrays,
)
from canids.lccde import LccdeEnsemble
from canids.synth import (
    AmbientIdSpec,
    AmbientModel,
    AttackScenario,
    PayloadModel,
    generate_ambient,
    inject_fabrication,
    inject_masquerade,
)

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def blobs(n=120, seed=0, gap=6.0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 1, (n, 4)), rng.normal(gap, 1, (n, 4))])
    y = np.array([0] * n + [1] * n)
    return X, y


class TestDecisionTree:
    def test_separable_perfect(self):
        X, y = blobs()
        model = fit_decision_tree(X, y, classes=("Normal", "Attack"))
        assert (model.predict_labels(X) == y).all()

    def test_single_class_degenerate(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        model = fit_decision_tree(X, np.zeros(10, dtype=int), classes=("Normal",))
        assert model.depth == 0
        assert (model.predict_scores(X) == 1.0).all()

    def test_xor_depth_two_perfect(self):
        model = fit_decision_tree(XOR_X, XOR_Y, max_depth=2)
        assert (model.predict_labels(XOR_X) == XOR_Y).all()
        assert model.depth == 2

    def test_xor_depth_one_capped(self):
        # By enumeration no single axis split separates XOR; the best a
        # stump can do is 3 of 4.
        model = fit_decision_tree(XOR_X, XOR_Y, max_depth=1)
        acc = (model.predict_labels(XOR_X) == XOR_Y).mean()
        assert acc <= 0.75

    def test_feature_tiebreak_prefers_lowest_index(self):
        # Two identical columns: both give the same optimal split, the
        # tree must pick feature 0.
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        model = fit_decision_tree(X, y)
        assert model._tree.feature[0] == 0

    def test_threshold_tiebreak_prefers_lowest(self):
        # Splits after the first and before the last point score the
        # same on this symmetric labeling; the lower threshold wins.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 1, 0])
        model = fit_decision_tree(X, y)
        assert model._tree.feature[0] == 0
        assert model._tree.threshold[0] == 0.5

    def test_min_leaf_respected(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array([0] * 9 + [1])
        model = fit_decision_tree(X, y, min_leaf=3)
        leaves = model._tree.feature < 0
        # Reaching a leaf with fewer than 3 samples is impossible, so the
        # lone positive cannot be isolated.
        assert model.predict_labels(X[-1:])[0] == 0 or (model._tree.feature < 0).all()
        for node in np.flatnonzero(~leaves):
            assert model._tree.threshold[node] not in (8.5, 9.0)

    def test_scores_are_distributions(self):
        X, y = blobs(seed=3, gap=1.0)
        model = fit_decision_tree(X, y, max_depth=4)
        scores = model.predict_scores(X)
        assert (scores >= 0).all()
        assert np.abs(scores.sum(axis=1) - 1.0).max() <= 1e-9

    def test_unfitted_rejects(self):
        with pytest.raises(NotFittedError):
            DecisionTree().predict_scores(XOR_X)

    def test_deterministic_fit(self):
        X, y = blobs(seed=5, gap=1.5)
        a = fit_decision_tree(X, y, max_depth=6)
        b = fit_decision_tree(X, y, max_depth=6)
        assert np.array_equal(a._tree.feature, b._tree.feature)
        assert np.array_equal(a._tree.threshold, b._tree.threshold)


class TestDeepTrees:
    """Depth is bounded only by max_depth: nothing in fitting or in
    DecisionTree.depth recurses per level."""

    def staircase(self, n):
        return np.arange(float(n))[:, None], np.arange(n) % 2

    def test_unbounded_tree_isolates_every_row(self):
        X, y = self.staircase(4000)
        model = fit_decision_tree(X, y)
        assert model.n_nodes == 7999
        assert model.depth == 3999
        assert (model.predict_labels(X) == y).all()

    def test_gbdt_fits_very_deep_trees(self):
        X, y = self.staircase(3000)
        model = fit_gbdt(X, y, n_rounds=1, max_depth=1500)
        assert np.isfinite(model.predict_scores(X)).all()
        assert (model.predict_labels(X) == y).mean() >= 0.75


def _reference_scores(criterion, idx, rows, cand):
    """Split scores of the node idx with its rows in sorted order, from
    1-D prefix sums: float cumsums of g and h for Newton, one integer
    cumsum per class for Gini."""
    at = cand - 1
    if isinstance(criterion, _Newton):
        lam = criterion.reg_lambda
        G = criterion.g[idx].sum()
        H = criterion.h[idx].sum()
        gl = np.cumsum(criterion.g[rows])[at]
        hl = np.cumsum(criterion.h[rows])[at]
        gr = G - gl
        hr = H - hl
        return gl * gl / (hl + lam) + gr * gr / (hr + lam) - G * G / (H + lam)
    y = criterion.y[rows]
    left = right = 0
    for c in range(criterion.width):
        cum = np.cumsum(y == c)
        lc = cum[at]
        rc = cum[-1] - lc
        left = left + lc * lc
        right = right + rc * rc
    ln = cand.astype(np.float64)
    return left / ln + right / (len(rows) - ln)


def _grow_tree(X, codes, criterion, max_depth, min_leaf):
    """The one tree `_grow_trees` grows for a single criterion."""
    (tree,), _ = _grow_trees(X, codes, [criterion], max_depth, min_leaf)
    return tree


def _reference_grow_tree(X, criterion, max_depth, min_leaf):
    """The grower before rank coding and grouped search: every node
    argsorts the float64 feature values themselves, one feature at a time,
    and scores them with `_reference_scores`.  `_grow_tree` must build the
    same tree."""
    tree = _TreeArrays(value_width=criterion.width)
    stack = [(np.arange(len(X), dtype=np.int64), 0, -1, tree.left)]
    while stack:
        idx, depth, parent, link = stack.pop()
        value, may_split, _ = criterion.node(idx)
        node = tree.add_node(value)
        if parent >= 0:
            link[parent] = node
        m = len(idx)
        if not may_split or m < 2 * min_leaf or (max_depth is not None and depth >= max_depth):
            continue
        best_score = criterion.floor
        best = None
        for f in range(X.shape[1]):
            v = X[idx, f]
            order = np.argsort(v, kind="stable")
            sv = v[order]
            pos = np.arange(1, m)
            cand = pos[(sv[1:] > sv[:-1]) & (pos >= min_leaf) & (pos <= m - min_leaf)]
            if len(cand) == 0:
                continue
            score = _reference_scores(criterion, idx, idx[order], cand)
            j = int(np.argmax(score))
            if score[j] > best_score:
                i = int(cand[j])
                best_score = float(score[j])
                best = (f, _safe_threshold(float(sv[i - 1]), float(sv[i])), order, i)
        if best is None:
            continue
        f, threshold, order, i = best
        tree.feature[node] = f
        tree.threshold[node] = threshold
        stack.append((idx[order[i:]], depth + 1, node, tree.right))
        stack.append((idx[order[:i]], depth + 1, node, tree.left))
    tree.finalize()
    return tree


EDGE_VALUES = [-np.inf, -1e308, -2.5, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, 2.5, 1e308, np.inf]


@st.composite
def tie_heavy_matrices(draw):
    """Columns drawn from a few edge values each (heavy ties, negatives,
    both zeros, subnormals, +-inf); sometimes one more column holds over
    256 distinct values, so its rank codes need 16 bits."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wide = draw(st.booleans())
    n = draw(st.integers(300, 400) if wide else st.integers(1, 60))
    cols = [
        rng.choice(draw(st.lists(st.sampled_from(EDGE_VALUES), min_size=1, max_size=5)), size=n)
        for _ in range(draw(st.integers(1, 4)))
    ]
    if wide:
        col = rng.permutation(n) - n / 2
        col[rng.integers(0, n, n // 10)] = draw(st.sampled_from(EDGE_VALUES))
        cols.insert(draw(st.integers(0, len(cols))), col)
    return np.column_stack(cols)


def tree_json(tree):
    return json.dumps(tree.to_json_obj())


class TestRankCodedGrower:
    """`_grow_tree` sorts rank codes; the float-argsort reference above
    must give byte-identical trees for both criteria."""

    @settings(max_examples=150, deadline=None)
    @given(
        tie_heavy_matrices(),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.one_of(st.none(), st.integers(1, 5)),
        st.integers(1, 4),
    )
    def test_matches_float_argsort_reference(self, X, seed, newton, max_depth, min_leaf):
        rng = np.random.default_rng(seed)
        n = len(X)
        if newton:
            criterion = _Newton(rng.normal(size=n), rng.uniform(0.01, 0.25, n), 1.0)
        else:
            criterion = _Gini(rng.integers(0, 3, n), 3)
        fast = _grow_tree(X, _rank_codes(X), criterion, max_depth, min_leaf)
        slow = _reference_grow_tree(X, criterion, max_depth, min_leaf)
        assert tree_json(fast) == tree_json(slow)

    @settings(max_examples=50, deadline=None)
    @given(tie_heavy_matrices(), st.integers(0, 2**32 - 1))
    def test_forest_subsets_of_one_encoding(self, X, seed):
        # A forest encodes once and grows each tree on a bootstrap row
        # sample and a column subset of those global ranks.
        rng = np.random.default_rng(seed)
        n, d = X.shape
        y = rng.integers(0, 3, n)
        rows = rng.integers(0, n, n)
        cols = np.sort(rng.permutation(d)[: rng.integers(1, d + 1)])
        codes = _rank_codes(X)[cols][:, rows]
        fast = _grow_tree(X[rows][:, cols], codes, _Gini(y[rows], 3), 6, 1)
        slow = _reference_grow_tree(X[rows][:, cols], _Gini(y[rows], 3), 6, 1)
        assert tree_json(fast) == tree_json(slow)

    def test_codes_keep_order_and_ties(self):
        X = np.array([[0.0], [-0.0], [np.inf], [-np.inf], [2.5]])
        codes = _rank_codes(X)
        assert codes.shape == (1, 5)
        assert codes[0].tolist() == [1, 1, 3, 0, 2]

    @pytest.mark.parametrize(
        "distinct, dtype", [(256, np.uint8), (257, np.uint16), (65537, np.int64)]
    )
    def test_smallest_dtype_holding_the_ranks(self, distinct, dtype):
        X = np.column_stack([np.zeros(distinct), np.arange(float(distinct))])
        assert _rank_codes(X).dtype == dtype

    def test_split_next_to_minus_infinity_reproduces_partition(self):
        # The midpoint of -inf and a finite value is NaN, which sent every
        # row right at predict time.
        X = np.array([[-np.inf], [0.0], [-np.inf], [0.0]])
        y = np.array([0, 1, 0, 1])
        model = fit_decision_tree(X, y)
        assert model._tree.threshold[0] == -np.inf
        assert (model.predict_labels(X) == y).all()

    @pytest.mark.parametrize(
        "fit",
        [
            fit_decision_tree,
            lambda X, y: fit_random_forest(X, y, n_trees=2),
            lambda X, y: fit_gbdt(X, y, n_rounds=2),
            lambda X, y: LccdeEnsemble(seed=0).fit(X, y),
        ],
        ids=["tree", "forest", "gbdt", "lccde"],
    )
    def test_nan_feature_rejected(self, fit):
        # NaN never compares greater, so it could not split; a rank code
        # would give it one and write a NaN threshold.
        X, y = blobs(seed=19)
        X[7, 2] = np.nan
        with pytest.raises(ValueError, match="feature column 2 contains NaN"):
            fit(X, y)


def newton_criteria(kind, k, n, rng):
    """k Newton criteria on n rows: "mirrored" gradients g, -g, then -g
    nudged, whose trees share most nodes, or "independent" ones, whose
    trees mostly part at the root."""
    if kind == "independent":
        return [_Newton(rng.normal(size=n), rng.uniform(0.01, 0.25, n), 1.0) for _ in range(k)]
    g, h = rng.normal(size=n), rng.uniform(0.01, 0.25, n)
    grads = [g, -g, -g + 1e-3 * rng.normal(size=n)]
    return [_Newton(grads[c], h, 1.0) for c in range(k)]


class TestSharedGrower:
    """`_grow_trees` grows a group of trees over the same rows together;
    each tree, and each training row's leaf in it, must be what growing
    that tree alone gives."""

    @settings(max_examples=60, deadline=None)
    @given(
        tie_heavy_matrices(),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["mirrored", "independent", "gini"]),
        st.integers(1, 3),
        st.one_of(st.none(), st.integers(1, 5)),
        st.integers(1, 4),
    )
    def test_matches_separate_growers(self, X, seed, kind, k, max_depth, min_leaf):
        rng = np.random.default_rng(seed)
        n = len(X)
        if kind == "gini":
            criteria = [_Gini(rng.integers(0, 3, n), 3) for _ in range(k)]
        else:
            criteria = newton_criteria(kind, k, n, rng)
        codes = _rank_codes(X)
        trees, leaves = _grow_trees(X, codes, criteria, max_depth, min_leaf)
        assert len(trees) == k and leaves.shape == (k, n)
        for criterion, tree, leaf in zip(criteria, trees, leaves):
            alone = _grow_tree(X, codes, criterion, max_depth, min_leaf)
            assert tree_json(tree) == tree_json(alone)
            assert np.array_equal(leaf, tree.apply(X))


class TestGroupedSearch:
    """A node's features are searched in groups of `_GROUP_CELLS // m`
    features: one 2-D prefix sum and one argmax per tree per group."""

    @pytest.mark.parametrize("cells", [1, 7, 64])
    @settings(max_examples=40, deadline=None)
    @given(
        tie_heavy_matrices(),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.one_of(st.none(), st.integers(1, 5)),
        st.integers(1, 4),
    )
    def test_small_groups_match_reference(self, cells, X, seed, newton, max_depth, min_leaf):
        # Repeated columns give equal scores in different groups, which
        # must still go to the lowest feature.
        rng = np.random.default_rng(seed)
        X = X[:, rng.integers(0, X.shape[1], X.shape[1] + 3)]
        n = len(X)
        if newton:
            criterion = _Newton(rng.normal(size=n), rng.uniform(0.01, 0.25, n), 1.0)
        else:
            criterion = _Gini(rng.integers(0, 3, n), 3)
        with mock.patch.object(detectors, "_GROUP_CELLS", cells):
            fast = _grow_tree(X, _rank_codes(X), criterion, max_depth, min_leaf)
        slow = _reference_grow_tree(X, criterion, max_depth, min_leaf)
        assert tree_json(fast) == tree_json(slow)

    def test_complex_prefix_sums_are_float_prefix_sums(self):
        # Each part of a complex cumsum is the float cumsum bit for bit,
        # -0.0, subnormals and overflow to +-inf included.
        values = [-0.0, 0.0, 5e-324, -5e-324, 2.5e-308, -1e-310, 1e308, -1e308, 1.5, -3.25]
        rng = np.random.default_rng(3)
        g = rng.choice(values, 400)
        h = rng.choice(values, 400)
        g[0] = -0.0
        order = np.array([rng.permutation(400) for _ in range(5)])
        order[0] = np.arange(400)
        with np.errstate(over="ignore", invalid="ignore"):
            both = _Newton(g, h, 1.0).gh.take(order).cumsum(axis=1)
            for part, floats in ((both.real, g), (both.imag, h)):
                alone = np.array([floats.take(row).cumsum() for row in order])
                assert np.array_equal(part.view(np.int64), alone.view(np.int64))
        assert np.signbit(both.real[0, 0])


def _reference_rank_codes(X):
    """Ranks by np.unique, column by column: what `_rank_codes` gave before
    whole-number columns were ranked from a presence table."""
    ranks = [np.unique(X[:, f], return_inverse=True)[1] for f in range(X.shape[1])]
    distinct = max((int(r.max()) + 1 for r in ranks), default=0)
    dtype = np.uint8 if distinct <= 2**8 else np.uint16 if distinct <= 2**16 else np.int64
    return np.array(ranks, dtype=dtype).reshape(X.shape[1], len(X))


RANK_EDGES = [2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53) + 1, -(2.0**53), -(2.0**53) - 2,
              -0.0, 0.0, np.inf, -np.inf, 0.5, -2.25]


@st.composite
def rank_code_matrices(draw):
    """Columns of whole numbers over ranges shorter than, as long as and
    longer than the column, from 0, from a negative, and next to -+2**53,
    with some edge values mixed in: neighbours of +-2**53, -0.0 with 0.0,
    +-inf and fractions.  One row is a possible matrix."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.sampled_from([0, -7, 2**53 - 40, -(2**53) + 1]))
        span = draw(st.sampled_from([1, n // 2 + 1, n, 3 * n]))
        col = (lo + rng.integers(0, span, n)).astype(np.float64)
        k = draw(st.integers(0, 3))
        if k:
            edges = draw(st.lists(st.sampled_from(RANK_EDGES), min_size=1, max_size=3))
            col[rng.integers(0, n, k)] = rng.choice(edges, k)
        cols.append(col)
    return np.column_stack(cols)


class TestRankCodes:
    @settings(max_examples=200, deadline=None)
    @given(rank_code_matrices())
    def test_match_unique_ranks(self, X):
        codes = _rank_codes(X)
        expected = _reference_rank_codes(X)
        assert codes.dtype == expected.dtype
        assert np.array_equal(codes, expected)

    def test_presence_table_ranks_and_unique_ranks_agree(self):
        # The same values as whole numbers over a short range (presence
        # table) and with one fraction added (np.unique).
        col = np.array([5.0, 3.0, 9.0, 3.0, 4.0, 9.0, 5.0, 8.0, 3.0, 4.0])
        fraction = np.append(col, 3.5)
        assert _rank_codes(col[:, None])[0].tolist() == [2, 0, 4, 0, 1, 4, 2, 3, 0, 1]
        assert _rank_codes(fraction[:, None])[0].tolist() == [3, 0, 5, 0, 2, 5, 3, 4, 0, 2, 1]


def _reference_forest(model, X, y):
    """The forest fit before its trees shared one encoding: each tree grown
    on its own copies X[rows][:, cols] and codes[cols][:, rows] with its own
    `_Gini` over y[rows].  Returns (tree, cols) per tree."""
    n, d = X.shape
    n_feats = max(1, int(round(model.feature_frac * d)))
    codes = _rank_codes(X)
    fitted = []
    for t in range(model.n_trees):
        rng = np.random.default_rng([model.seed, t])
        rows = rng.integers(0, n, size=n) if model.bootstrap else np.arange(n)
        cols = np.sort(rng.permutation(d)[:n_feats])
        tree = _grow_tree(X[rows][:, cols], codes[cols][:, rows], _Gini(y[rows], int(y.max()) + 1),
                          model.max_depth, model.min_leaf)
        fitted.append((tree, cols))
    return fitted


class TestForestRowIndices:
    """`RandomForest.fit` grows each tree from its bootstrap row indices
    over one encoding; the per-tree copies it replaced give the same trees."""

    @settings(max_examples=60, deadline=None)
    @given(
        tie_heavy_matrices(),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from([1.0, 0.7, 0.4]),
        st.one_of(st.none(), st.integers(1, 5)),
        st.integers(1, 3),
    )
    def test_matches_per_tree_copies(self, X, seed, bootstrap, feature_frac, max_depth, min_leaf):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 3, len(X))
        y[0] = 2  # three classes whatever the draw
        model = RandomForest(n_trees=3, max_depth=max_depth, min_leaf=min_leaf,
                             bootstrap=bootstrap, feature_frac=feature_frac, seed=seed).fit(X, y)
        reference = _reference_forest(model, X, y)
        assert [tree_json(t) for t in model._trees] == [tree_json(t) for t, _ in reference]
        assert [c.tolist() for c in model._feats] == [c.tolist() for _, c in reference]


class TestCountingSearch:
    """A node of Gini trees whose count table is no larger than
    `_COUNT_CELLS_PER_ROW` times its rows counts classes per rank code
    instead of sorting; either regime must give the float-argsort
    reference's trees."""

    @pytest.mark.parametrize("cells_per_row", [0, 10**9], ids=["sort", "count"])
    @pytest.mark.parametrize("group_cells", [1, 65_536])
    @settings(max_examples=40, deadline=None)
    @given(
        tie_heavy_matrices(),
        st.integers(0, 2**32 - 1),
        st.integers(2, 4),
        st.one_of(st.none(), st.integers(1, 5)),
        st.integers(1, 4),
    )
    def test_each_regime_matches_reference(self, cells_per_row, group_cells, X, seed, n_classes,
                                           max_depth, min_leaf):
        # Repeated columns give equal scores in different features (and,
        # in groups of one, in different groups): the lowest must win.
        rng = np.random.default_rng(seed)
        X = X[:, rng.integers(0, X.shape[1], X.shape[1] + 2)]
        criterion = _Gini(rng.integers(0, n_classes, len(X)), n_classes)
        with mock.patch.object(detectors, "_COUNT_CELLS_PER_ROW", cells_per_row), \
                mock.patch.object(detectors, "_GROUP_CELLS", group_cells):
            fast = _grow_tree(X, _rank_codes(X), criterion, max_depth, min_leaf)
        slow = _reference_grow_tree(X, criterion, max_depth, min_leaf)
        assert tree_json(fast) == tree_json(slow)

    def test_root_counts_and_deep_nodes_sort(self):
        # 150 ranks x 3 classes = 450 cells: the 600-row root counts, and
        # every node below 450 rows sorts.  The third column puts -0.0 and
        # 0.0 next to +inf, where the threshold is whichever zero the
        # children's row order puts last on the left.
        rng = np.random.default_rng(5)
        n = 600
        X = np.column_stack([rng.integers(0, 40, n), rng.integers(0, 150, n) * 0.5,
                             rng.choice([-0.0, 0.0, np.inf], n)])
        y = (X[:, 0] + rng.integers(0, 30, n) > 45) + (X[:, 1] > 40) * (X[:, 2] > 0)
        criterion = _Gini(y, 3)
        counted, sorted_ = [], []
        count_scores, sort_scores = _Gini.counted_scores, _Gini.scores

        def spy_count(self, v, *args):
            counted.append(v.shape[1])
            return count_scores(self, v, *args)

        def spy_sort(self, idx, *args):
            sorted_.append(len(idx))
            return sort_scores(self, idx, *args)

        with mock.patch.object(_Gini, "counted_scores", spy_count), \
                mock.patch.object(_Gini, "scores", spy_sort):
            fast = _grow_tree(X, _rank_codes(X), criterion, None, 1)
        assert n in counted and min(counted) >= 450 and 0 < max(sorted_) < 450
        assert tree_json(fast) == tree_json(_reference_grow_tree(X, criterion, None, 1))


FITS_WITH_CLASSES = [
    lambda X, y, classes: fit_decision_tree(X, y, classes),
    lambda X, y, classes: fit_random_forest(X, y, classes, n_trees=2),
    lambda X, y, classes: fit_gbdt(X, y, classes, n_rounds=2),
    lambda X, y, classes: LccdeEnsemble(seed=0).fit(X, y, classes),
]


class TestFitLabels:
    """Fitting refuses labels that are not one class index per row with a
    ValueError; none of them may reach the grower, which would index with
    them (IndexError) or wrap a negative one to the last class."""

    X, y = blobs(seed=23)

    @pytest.mark.parametrize("fit", FITS_WITH_CLASSES, ids=["tree", "forest", "gbdt", "lccde"])
    @pytest.mark.parametrize(
        "row, label, message",
        [
            (9, 2, r"label 2 in row 9 is not a class index \(0\.\.1\)"),
            (5, -1, r"label -1 in row 5 is not a class index"),
            (3, 0.5, r"label 0\.5 in row 3 is not a class index"),
            (4, np.nan, r"label nan in row 4 is not a class index"),
        ],
        ids=["past-classes", "negative", "fraction", "nan"],
    )
    def test_bad_label_names_its_row(self, fit, row, label, message):
        y = self.y.astype(type(label))
        y[row] = label
        with pytest.raises(ValueError, match=message):
            fit(self.X, y, ("Normal", "Attack"))

    @pytest.mark.parametrize("fit", FITS_WITH_CLASSES, ids=["tree", "forest", "gbdt", "lccde"])
    @pytest.mark.parametrize(
        "reshape, shape",
        [(lambda y: y[:-1], r"\(239,\)"), (lambda y: y[:, None], r"\(240, 1\)")],
        ids=["short", "2-D"],
    )
    def test_labels_of_wrong_shape_name_both_lengths(self, fit, reshape, shape):
        with pytest.raises(ValueError, match=rf"X has 240 rows, y has shape {shape}"):
            fit(self.X, reshape(self.y), ("Normal", "Attack"))

    def test_non_numeric_labels_refused(self):
        with pytest.raises(ValueError, match="labels must be integer class indices"):
            fit_decision_tree(self.X, self.y.astype(str))

    def test_integral_float_labels_still_fit(self):
        as_int = fit_decision_tree(self.X, self.y).to_json_obj()
        assert fit_decision_tree(self.X, self.y.astype(np.float64)).to_json_obj() == as_int


def digest_fixture(seed=11, n=300):
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [
            rng.integers(0, 8, n),
            rng.integers(0, 3, n),
            rng.normal(size=n),
            rng.normal(size=n).round(1),
        ]
    ).astype(float)
    y = ((X[:, 0] > 4).astype(int) + (X[:, 2] + 0.3 * rng.normal(size=n) > 0.5)).astype(int)
    return X, y


def sha256_of(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class TestFittedModelDigests:
    """Fitted models are pinned by digest so that a change to tree
    growing cannot alter them silently.  Feature ties, min_leaf, depth
    caps, feature subsets and row subsampling are all exercised."""

    X, y = digest_fixture()

    def test_tree(self):
        assert sha256_of(fit_decision_tree(self.X, self.y).to_json_obj()) == (
            "c984a1bd578fb19d0a4f48a5886d530210b5bf7ab44c8da460001d3afdfd76da"
        )

    def test_capped_tree(self):
        model = fit_decision_tree(self.X, self.y, max_depth=4, min_leaf=3)
        assert sha256_of(model.to_json_obj()) == (
            "a66d80ccd7e6b29456aa2c9452890b8a509ce8cbb6af1816fb63031f203e178f"
        )

    def test_forest(self):
        model = fit_random_forest(self.X, self.y, n_trees=4, max_depth=6, feature_frac=0.6, seed=3)
        assert sha256_of(model.to_json_obj()) == (
            "981f02f3c6eef1d3dcf044b8b65ae42505eb13296f6b96bc94ae20fc2c416246"
        )

    def test_gbdt(self):
        model = fit_gbdt(self.X, self.y, n_rounds=4, max_depth=3, min_leaf=2, subsample=0.7, seed=4)
        assert sha256_of(model.to_json_obj()) == (
            "b966df0660c067698882f107572e340b1a5db3ee561116efdedc550b0302688a"
        )

    def test_gbdt_without_subsampling(self):
        # Every row is sampled, so each round adds the grower's training-row
        # leaves to the raw scores and walks no row down a tree.
        model = fit_gbdt(self.X, self.y, n_rounds=4, max_depth=3, min_leaf=2)
        assert sha256_of(model.to_json_obj()) == (
            "7d4b94e97bf991fb3bb935a65210edc7e327d338530625bb1e71cff77b97e3ce"
        )

    def test_unbounded_two_class_gbdt(self):
        # Two classes: the class-1 tree is a near mirror of the class-0 one.
        model = fit_gbdt(self.X, (self.y > 0).astype(int), n_rounds=4, max_depth=None)
        assert sha256_of(model.to_json_obj()) == (
            "843fb71789552160c36fa323cdb84b0bd97e9a311e3c6a1c6f8af9b1c62d3a4a"
        )

    def test_lccde(self):
        # Measured latencies, and the leaders they break F1 ties for, are
        # wall-clock dependent; the base models and validation F1 are not.
        obj = LccdeEnsemble(seed=5).fit(self.X, self.y).to_json_obj()
        obj.pop("latency_us")
        obj["leaders"] = {"f1_matrix": obj["leaders"]["f1_matrix"]}
        for base in obj["models"]:
            base.pop("latency_us")
        assert sha256_of(obj) == (
            "0feebabde4f9c94a73d1f55f68e91bc84533bdb5513a7506f7cfc0694d7eb3da"
        )


class TestRandomForest:
    def test_matches_single_tree_when_degenerate(self):
        X, y = blobs(seed=7, gap=1.2)
        tree = fit_decision_tree(X, y, max_depth=5)
        forest = fit_random_forest(
            X, y, n_trees=1, max_depth=5, bootstrap=False, feature_frac=1.0, seed=9
        )
        assert np.array_equal(forest.predict_labels(X), tree.predict_labels(X))
        assert np.allclose(forest.predict_scores(X), tree.predict_scores(X))

    def test_seed_reproducible(self):
        X, y = blobs(seed=1, gap=1.0)
        a = fit_random_forest(X, y, n_trees=5, max_depth=4, seed=3)
        b = fit_random_forest(X, y, n_trees=5, max_depth=4, seed=3)
        assert np.array_equal(a.predict_scores(X), b.predict_scores(X))

    def test_seed_changes_trees(self):
        X, y = blobs(seed=1, gap=1.0)
        a = fit_random_forest(X, y, n_trees=5, max_depth=4, seed=3)
        b = fit_random_forest(X, y, n_trees=5, max_depth=4, seed=4)
        assert not np.array_equal(a.predict_scores(X), b.predict_scores(X))

    def test_feature_subsets(self):
        X, y = blobs(seed=2)
        model = fit_random_forest(X, y, n_trees=8, feature_frac=0.5, seed=0)
        assert all(len(cols) == 2 for cols in model._feats)
        assert (model.predict_labels(X) == y).mean() >= 0.95

    def test_scores_are_distributions(self):
        X, y = blobs(seed=4, gap=0.8)
        model = fit_random_forest(X, y, n_trees=7, max_depth=3, seed=1)
        scores = model.predict_scores(X)
        assert (scores >= 0).all()
        assert np.abs(scores.sum(axis=1) - 1.0).max() <= 1e-9

    def test_param_validation(self):
        with pytest.raises(ValueError):
            RandomForest(n_trees=0)
        with pytest.raises(ValueError):
            RandomForest(feature_frac=0.0)

    @pytest.mark.parametrize("min_leaf", [0, -1])
    def test_min_leaf_below_one_refused(self, min_leaf):
        # min_leaf=-1 would wrap the candidate slices around the node.
        with pytest.raises(ValueError, match="min_leaf"):
            RandomForest(min_leaf=min_leaf)


class TestGradientBoosting:
    def test_training_loss_monotone(self):
        # Without subsampling a k-round fit is the first k rounds of a longer one.
        X, y = blobs(seed=6, gap=0.7)
        losses = []
        for n_rounds in range(1, 13):
            p = fit_gbdt(X, y, n_rounds=n_rounds, learning_rate=0.3, max_depth=3).predict_scores(X)
            losses.append(float(-np.log(np.maximum(p[np.arange(len(y)), y], 1e-300)).mean()))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_constant_labels_converge(self):
        X = np.random.default_rng(2).normal(size=(40, 3))
        y = np.zeros(40, dtype=int)
        model = fit_gbdt(X, y, classes=("A", "B"), n_rounds=15, learning_rate=0.3, max_depth=2)
        assert (model.predict_labels(X) == 0).all()
        assert model.predict_scores(X)[:, 0].min() >= 0.95

    def test_separable_accuracy(self):
        X, y = blobs(seed=8)
        model = fit_gbdt(X, y, n_rounds=10, learning_rate=0.3, max_depth=3)
        assert (model.predict_labels(X) == y).mean() == 1.0

    def test_three_configs_usable(self):
        X, y = blobs(seed=9, gap=3.0)
        configs = [
            dict(n_rounds=8, learning_rate=0.2, max_depth=3, seed=1, subsample=0.8),
            dict(n_rounds=10, learning_rate=0.1, max_depth=4, seed=2, subsample=0.8),
            dict(n_rounds=6, learning_rate=0.3, max_depth=2, seed=3, subsample=0.8),
        ]
        for cfg in configs:
            model = fit_gbdt(X, y, **cfg)
            assert (model.predict_labels(X) == y).mean() >= 0.95

    def test_subsample_seed_matters(self):
        X, y = blobs(seed=10, gap=0.5)
        a = fit_gbdt(X, y, n_rounds=5, max_depth=2, subsample=0.5, seed=1)
        b = fit_gbdt(X, y, n_rounds=5, max_depth=2, subsample=0.5, seed=2)
        assert not np.array_equal(a.predict_scores(X), b.predict_scores(X))

    def test_scores_are_distributions(self):
        X, y = blobs(seed=11, gap=0.6)
        model = fit_gbdt(X, y, n_rounds=4, max_depth=2)
        scores = model.predict_scores(X)
        assert (scores > 0).all()
        assert np.abs(scores.sum(axis=1) - 1.0).max() <= 1e-9

    def test_raw_scores_are_the_last_stage(self):
        X, y = blobs(seed=20, gap=0.7)
        model = fit_gbdt(X, y, n_rounds=5, max_depth=2)
        raw = model.raw_scores(X)
        assert not np.array_equal(fit_gbdt(X, y, n_rounds=1, max_depth=2).raw_scores(X), raw)
        e = np.exp(raw - raw.max(axis=1, keepdims=True))
        assert np.array_equal(e / e.sum(axis=1, keepdims=True), model.predict_scores(X))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GradientBoosting(n_rounds=0)
        with pytest.raises(ValueError):
            GradientBoosting(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoosting(subsample=1.5)

    @pytest.mark.parametrize("params", [
        dict(min_leaf=0), dict(min_leaf=-1), dict(reg_lambda=-1.0), dict(reg_lambda=-1e-300),
        dict(reg_lambda=float("nan")),
    ])
    def test_wrong_model_params_refused(self, params):
        # A negative or NaN lambda writes Infinity and NaN leaves; min_leaf
        # 0 grows one-leaf trees.  LCCDE base configs are gbdt models.
        with pytest.raises(ValueError, match=next(iter(params))):
            GradientBoosting(**params)
        with pytest.raises(ValueError, match=next(iter(params))):
            LccdeEnsemble(base_configs=[params, {}, {}])


def periodic_ambient(duration=30.0, seed=4):
    specs = tuple(
        AmbientIdSpec(
            0x100 + i,
            0.01 * (i + 1),
            jitter_std=0.0003,
            payload=PayloadModel("constant", base=bytes([i] * 8)),
        )
        for i in range(4)
    )
    return generate_ambient(AmbientModel(ids=specs, duration=duration, seed=seed))


class TestIdOrder:
    @pytest.mark.parametrize("can_id", [[], [5], [0x1FFFFFFF, 0, 0x1FFFFFFF, 7, 0, 7, 7],
                                        [3] * 9, list(range(9, -1, -1))])
    def test_is_the_stable_argsort(self, can_id):
        can_id = np.array(can_id, dtype=np.uint32)
        order, ids = _id_order(can_id)
        assert order.tolist() == np.argsort(can_id, kind="stable").tolist()
        assert ids.dtype == np.int64 and ids.tolist() == np.sort(can_id).tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([0, 1, 0x7FF, 0x800, 0x1FFFFFFF]), max_size=300))
    def test_is_the_stable_argsort_with_ties(self, can_id):
        can_id = np.array(can_id, dtype=np.uint32)
        assert _id_order(can_id)[0].tolist() == np.argsort(can_id, kind="stable").tolist()


class TestSoftmax:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 20), st.data())
    def test_bits_match_the_row_max_formula(self, classes, rows, data):
        values = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -3.25, 700.0, -1e300])
        raw = np.array(data.draw(st.lists(values | st.floats(-50, 50), min_size=rows * classes,
                                          max_size=rows * classes)),
                       dtype=np.float64).reshape(rows, classes)
        with np.errstate(all="ignore"):
            e = np.exp(raw - raw.max(axis=1, keepdims=True))
            want = e / e.sum(axis=1, keepdims=True)
            got = _softmax(raw)
        assert got.tobytes() == want.tobytes()


class TestFrequencyDetector:
    def test_ambient_not_flagged(self):
        ambient = periodic_ambient()
        model = fit_frequency_detector(ambient)
        flags = model.predict_frames(ambient)
        assert flags.mean() <= 0.01

    def test_fabrication_flagged(self):
        ambient = periodic_ambient()
        fabricated = inject_fabrication(ambient, AttackScenario(
            "fabrication", (5.0, 25.0), target_id=0x100, payload_spec="X" * 16))
        model = fit_frequency_detector(ambient)
        flags = model.predict_frames(fabricated)
        truth = np.array([lf.label.is_attack for lf in fabricated])
        recall = flags[truth].mean()
        assert recall >= 0.95

    def test_masquerade_not_flagged(self):
        ambient = periodic_ambient()
        masq = inject_masquerade(ambient, AttackScenario(
            "masquerade", (5.0, 25.0), target_id=0x100, payload_spec="X" * 16))
        model = fit_frequency_detector(ambient)
        flags = model.predict_frames(masq)
        truth = np.array([lf.label.is_attack for lf in masq])
        assert truth.sum() > 100
        assert flags[truth].mean() <= 0.10

    def test_unknown_id_flagged(self):
        ambient = periodic_ambient()
        model = fit_frequency_detector(ambient)
        stranger = [CanFrame(10_000_000, "can0", 0x7AA, b"\x00")]
        assert model.predict_frames(stranger).tolist() == [1]

    def test_sparse_id_excluded_and_flagged(self):
        frames = [CanFrame(i * 10_000, "can0", 0x100, b"") for i in range(100)]
        frames.append(CanFrame(55_5000, "can0", 0x200, b""))
        frames.append(CanFrame(755_000, "can0", 0x200, b""))
        log = sorted(frames, key=lambda f: f.timestamp_us)
        model = fit_frequency_detector(log)
        assert 0x200 not in model.stats
        flags = model.predict_frames(log)
        ids = np.array([f.can_id for f in log])
        assert (flags[ids == 0x200] == 1).all()

    def test_needs_enough_observations(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_frequency_detector([CanFrame(0, "can0", 1, b""), CanFrame(10, "can0", 1, b"")])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_predict_frames_matches_per_frame_reference(self, data):
        """Gaps against each id's previous frame; ids unseen at fit, or seen
        fewer than three times, are flagged."""
        def log_of(n):
            times = sorted(data.draw(st.lists(st.integers(0, 2_000), min_size=n, max_size=n)))
            ids = data.draw(st.lists(st.sampled_from([1, 2, 3, 0x7FF]), min_size=n, max_size=n))
            return TrafficLog(CanFrame(t, "can0", i, b"") for t, i in zip(times, ids))

        ambient = log_of(40)
        counts = np.bincount(ambient.can_id, minlength=0x800)
        assume((counts >= 3).any())
        model = fit_frequency_detector(ambient, k_sigma=data.draw(st.sampled_from([0.0, 0.5, 2.0])))
        log = log_of(data.draw(st.integers(0, 30)))
        expected, last_seen = [], {}
        for f in log.can_frames():
            stat = model.stats.get(f.can_id)
            prev = last_seen.get(f.can_id)
            last_seen[f.can_id] = f.timestamp_us
            expected.append(1 if stat is None else int(
                prev is not None and f.timestamp_us - prev < stat["threshold_us"]))
        assert model.predict_frames(log).tolist() == expected
        assert sorted(model.stats) == np.flatnonzero(counts >= 3).tolist()

    def test_scores_interface_refused(self):
        model = fit_frequency_detector(periodic_ambient(duration=5.0))
        with pytest.raises(NotImplementedError):
            model.predict_scores(np.zeros((2, 9)))


class TestPersistence:
    def roundtrip(self, model):
        buf = io.StringIO()
        save_model(model, buf)
        return load_model(io.StringIO(buf.getvalue()))

    def test_tree_roundtrip(self):
        X, y = blobs(seed=12, gap=1.0)
        model = fit_decision_tree(X, y, classes=("Normal", "Attack"), max_depth=4)
        back = self.roundtrip(model)
        assert np.array_equal(back.predict_scores(X), model.predict_scores(X))
        assert back.classes == model.classes

    def test_forest_roundtrip(self):
        X, y = blobs(seed=13, gap=1.0)
        model = fit_random_forest(X, y, n_trees=4, max_depth=3, seed=2)
        back = self.roundtrip(model)
        assert np.array_equal(back.predict_scores(X), model.predict_scores(X))

    def test_gbdt_roundtrip(self):
        X, y = blobs(seed=14, gap=1.0)
        model = fit_gbdt(X, y, n_rounds=3, max_depth=2)
        measure_latency(model, X)
        back = self.roundtrip(model)
        assert np.array_equal(back.predict_scores(X), model.predict_scores(X))
        assert back.latency_us == model.latency_us

    def test_frequency_roundtrip(self):
        ambient = periodic_ambient(duration=5.0)
        model = fit_frequency_detector(ambient)
        back = self.roundtrip(model)
        assert back.stats == model.stats
        assert np.array_equal(back.predict_frames(ambient), model.predict_frames(ambient))

    def test_version_check(self):
        X, y = blobs(seed=15, gap=2.0)
        obj = fit_decision_tree(X, y, max_depth=2).to_json_obj()
        obj["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            model_from_json_obj(obj)

    def test_malformed_tree_links_rejected(self):
        X, y = blobs(seed=15, gap=2.0)
        obj = fit_decision_tree(X, y, max_depth=2).to_json_obj()
        obj["tree"]["left"][0] = 0
        with pytest.raises(ValueError, match="node links"):
            model_from_json_obj(obj)
        obj["tree"]["left"][0] = len(obj["tree"]["feature"])
        with pytest.raises(ValueError, match="node links"):
            model_from_json_obj(obj)

    def test_gbdt_rounds_must_match(self):
        X, y = blobs(seed=21, gap=2.0)
        obj = fit_gbdt(X, y, n_rounds=2, max_depth=2).to_json_obj()
        for rounds in ([], obj["rounds"][:1], [r[:1] for r in obj["rounds"]]):
            with pytest.raises(ValueError, match="one tree per class"):
                model_from_json_obj(dict(obj, rounds=rounds))

    def test_forest_entries_must_match_n_trees(self):
        X, y = blobs(seed=22, gap=2.0)
        obj = fit_random_forest(X, y, n_trees=3, max_depth=2).to_json_obj()
        for field in ("trees", "tree_features"):
            with pytest.raises(ValueError, match=f"forest {field} must have n_trees = 3 entries"):
                model_from_json_obj(dict(obj, **{field: obj[field][:2]}))

    def test_forest_tree_reading_outside_its_columns_rejected(self):
        X, y = blobs(seed=22, gap=2.0)
        obj = fit_random_forest(X, y, n_trees=2, max_depth=2).to_json_obj()
        obj["tree_features"][0] = [0]
        with pytest.raises(ValueError, match="columns >= 0 that cover each tree"):
            model_from_json_obj(obj)

    def test_missing_field_named(self):
        X, y = blobs(seed=23, gap=2.0)
        obj = fit_decision_tree(X, y, max_depth=2).to_json_obj()
        del obj["max_depth"]
        with pytest.raises(ValueError, match="tree model lacks 'max_depth'"):
            model_from_json_obj(obj)
        del obj["tree"]["threshold"]
        obj["max_depth"] = 2
        with pytest.raises(ValueError, match="tree lacks 'threshold'"):
            model_from_json_obj(obj)

    def test_list_document_rejected(self):
        with pytest.raises(ValueError, match="must be a JSON object, not list"):
            load_model(io.StringIO("[1, 2]"))

    def test_hyperparameter_of_wrong_type_rejected(self):
        X, y = blobs(seed=24, gap=2.0)
        obj = fit_random_forest(X, y, n_trees=2, max_depth=2).to_json_obj()
        with pytest.raises(ValueError, match="forest model has a bad hyperparameter"):
            model_from_json_obj(dict(obj, n_trees="2"))

    @pytest.mark.parametrize("field", ["feature", "threshold", "left", "right", "value"])
    def test_tree_fields_of_unequal_length_rejected(self, field):
        X, y = blobs(seed=25, gap=1.0)
        obj = fit_decision_tree(X, y, max_depth=2).to_json_obj()
        obj["tree"][field] = obj["tree"][field][:-1]
        with pytest.raises(ValueError, match="one entry and 2 leaf values per node"):
            model_from_json_obj(obj)

    def test_leaf_values_must_cover_the_classes(self):
        X, y = blobs(seed=25, gap=1.0)
        obj = fit_decision_tree(X, y, max_depth=2).to_json_obj()
        obj["classes"] = ["0", "1", "2"]
        with pytest.raises(ValueError, match="one entry and 3 leaf values per node"):
            model_from_json_obj(obj)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            model_from_json_obj({"format_version": 1, "kind": "oracle"})

    def test_text_is_that_of_json_dump(self):
        X, y = blobs(seed=17, gap=1.0)
        models = [fit_decision_tree(X, y, max_depth=3), fit_random_forest(X, y, n_trees=2, seed=1),
                  fit_gbdt(X, y, n_rounds=2, max_depth=2), LccdeEnsemble(seed=2).fit(X, y),
                  fit_frequency_detector(periodic_ambient(duration=2.0))]
        for model in models:
            got, expected = io.StringIO(), io.StringIO()
            save_model(model, got)
            json.dump(model.to_json_obj(), expected)
            assert got.getvalue() == expected.getvalue() + "\n"

    def test_json_is_plain_text(self):
        X, y = blobs(seed=16, gap=2.0)
        buf = io.StringIO()
        save_model(fit_decision_tree(X, y, max_depth=2), buf)
        obj = json.loads(buf.getvalue())
        assert obj["kind"] == "tree"


def last_column_data(n=60, seed=26):
    """Four columns, of which only the last separates the classes, so
    every tree splits on column 3."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    X = np.column_stack([np.zeros((n, 3)), y + 0.1 * rng.normal(size=n)])
    return X, y


class TestFeatureWidth:
    @pytest.mark.parametrize(
        "fit",
        [
            fit_decision_tree,
            lambda X, y: fit_random_forest(X, y, n_trees=2, bootstrap=False),
            lambda X, y: fit_gbdt(X, y, n_rounds=2, max_depth=2),
        ],
    )
    def test_narrower_matrix_rejected_with_both_widths(self, fit):
        X, y = last_column_data()
        model = fit(X, y)
        with pytest.raises(ValueError, match="reads 4 feature columns, the matrix has 3"):
            model.predict_scores(X[:, :3])
        assert model.predict_scores(X).shape == (len(X), 2)

    @pytest.mark.parametrize(
        "fit",
        [
            fit_decision_tree,
            lambda X, y: fit_random_forest(X, y, n_trees=2, bootstrap=False),
            lambda X, y: fit_gbdt(X, y, n_rounds=2, max_depth=2),
        ],
        ids=["tree", "forest", "gbdt"],
    )
    def test_one_dimensional_input_rejected(self, fit):
        X, y = last_column_data()
        with pytest.raises(ValueError, match="2-D"):
            fit(X, y).predict_scores(X[0])

    def test_split_feature_past_the_columns_rejected_after_load(self):
        X, y = last_column_data()
        obj = fit_decision_tree(X, y).to_json_obj()
        obj["tree"]["feature"][0] = 9
        model = model_from_json_obj(obj)
        with pytest.raises(ValueError, match="reads 10 feature columns, the matrix has 4"):
            model.predict_scores(X)


@functools.cache
def fitted_models():
    """One small fitted model of every registered kind; callers must not
    change them."""
    X, y = digest_fixture(n=120)
    tiny = {"n_rounds": 2, "max_depth": 2}
    models = dict(
        tree=fit_decision_tree(X, y, max_depth=3),
        forest=fit_random_forest(X, y, n_trees=2, max_depth=2, feature_frac=0.5),
        gbdt=fit_gbdt(X, y, n_rounds=2, max_depth=2),
        lccde=LccdeEnsemble(base_configs=[tiny] * 3, seed=1).fit(X, y),
        frequency=fit_frequency_detector(periodic_ambient(duration=1.0)),
    )
    for model in models.values():
        model.latency_us = 2.5
    return models


def json_values():
    scalars = (
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.sampled_from([-1, 0, 1, 2**64]) | st.text(max_size=4)
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )


def json_paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


class TestModelDocuments:
    """The document layout is declared once per model class, and every
    malformed document is refused with a ValueError."""

    @pytest.mark.parametrize("kind", ["tree", "forest", "gbdt", "lccde", "frequency"])
    def test_constructor_takes_exactly_the_declared_params(self, kind):
        cls = _MODEL_KINDS[kind]
        assert set(inspect.signature(cls).parameters) == set(cls.params)

    def test_every_kind_is_covered(self):
        assert set(_MODEL_KINDS) == set(fitted_models())

    @pytest.mark.parametrize("kind", ["tree", "forest", "gbdt", "lccde", "frequency"])
    def test_layout_and_reserialization(self, kind):
        model = fitted_models()[kind]
        cls = type(model)
        obj = model.to_json_obj()
        header = ("format_version", "kind") + (("classes",) if kind != "frequency" else ())
        assert tuple(obj) == header + cls.params + ("latency_us",) + cls.state
        text = json.dumps(obj)
        assert json.dumps(cls.from_json_obj(json.loads(text)).to_json_obj()) == text

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_documents_raise_only_value_error(self, data):
        kind = data.draw(st.sampled_from(sorted(fitted_models())))
        # The document sits under a root key so that it can be replaced whole.
        doc = {"root": fitted_models()[kind].to_json_obj()}
        path = ("root",) + data.draw(st.sampled_from(list(json_paths(doc["root"]))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if len(path) > 1 and data.draw(st.booleans()):
            # Truncate: drop a field, or a list element and all after it.
            if isinstance(parent, list):
                del parent[path[-1]:]
            else:
                del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(json_values())
        try:
            model_from_json_obj(doc["root"])
        except ValueError:
            pass

    @pytest.mark.parametrize("field, values, message", [
        ("threshold", lambda t: [str(v) for v in t], r"'threshold' is not an array of numbers"),
        ("threshold", lambda t: t[:-1] + ["0.0223"], r"'threshold' is not an array of numbers"),
        ("feature", lambda f: [v >= 0 for v in f], r"'feature' is not an array of integers"),
        ("feature", lambda f: [True] + f[1:], r"'feature' is not an array of integers"),
        ("threshold", lambda t: [False] + t[1:], r"'threshold' is not an array of numbers"),
        ("feature", lambda f: [float(v) for v in f], r"'feature' is not an array of integers"),
        ("left", lambda f: [2**64 - 1] * len(f), r"'left' is not an array of integers"),
        ("value", lambda v: [[str(x) for x in row] for row in v], r"'value' is not an array"),
    ], ids=["text-thresholds", "one-text-threshold", "bool-features", "one-bool-feature",
            "one-bool-threshold", "float-features", "past-int64", "text-values"])
    def test_tree_fields_must_hold_numbers_of_their_kind(self, field, values, message):
        # The node arrays are read whole, so their dtype is checked before
        # the cast, which would read "1.5" as 1.5 and true as column 1.
        doc = fitted_models()["tree"].to_json_obj()
        doc["tree"][field] = values(doc["tree"][field])
        with pytest.raises(ValueError, match=message):
            model_from_json_obj(doc)

    @pytest.mark.parametrize("kind", ["forest", "gbdt"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_trees_read_together_as_each_alone(self, kind, data):
        """A model's trees are read field by field for all of them at once.
        Every document, plain or edited, must give the trees that reading
        each alone gives, or the error of the first that fails alone."""
        model = fitted_models()[kind]
        doc = model.to_json_obj()
        docs = doc["trees"] if kind == "forest" else [t for rt in doc["rounds"] for t in rt]
        width = len(model.classes) if kind == "forest" else 1
        for _ in range(data.draw(st.integers(0, 2))):
            tree = data.draw(st.sampled_from(docs))
            field = data.draw(st.sampled_from(sorted(tree)))
            if not tree[field]:
                continue
            if data.draw(st.booleans()):
                # Move a field's last entry to another tree: the lengths
                # still add up over the model, but not tree by tree.
                data.draw(st.sampled_from(docs))[field].append(tree[field].pop())
                continue
            at = data.draw(st.integers(0, len(tree[field]) - 1))
            # len(...) links one node past the tree, to the next tree's first.
            scalars = [0, 1, -1, 2, len(tree[field]), 2**63, -(2**63) - 1, 0.5, 1.0,
                       float("nan"), True, "1", None]
            rows = [[0.5] * (width - 1), [0.5] * (width + 1), [1] * width, [True] * width,
                    [[0.5]] * width, 0.5, None]
            tree[field][at] = data.draw(st.sampled_from(rows if field == "value" else scalars))
        alone, error = [], None
        try:
            alone = [_TreeArrays.from_json_objs([t], width)[0] for t in docs]
        except ValueError as exc:
            error = str(exc)
        if error is not None:
            with pytest.raises(ValueError) as raised:
                _TreeArrays.from_json_objs(docs, width)
            assert str(raised.value) == error
            return
        together = _TreeArrays.from_json_objs(docs, width)
        assert [tree_json(t) for t in together] == [tree_json(t) for t in alone]
        for a, b in zip(together, alone):
            assert a.depth == b.depth
            assert all(np.array_equal(x, y) for x, y in zip(a._walk, b._walk))

    @pytest.mark.parametrize("edit, message", [
        (lambda ids, key: ids[key].update(count=True), r"frequency id \w+ field 'count': True"),
        (lambda ids, key: ids[key].update(mean_us=True), r"field 'mean_us': True is not a number"),
        (lambda ids, key: ids[key].update(std_us="3"), r"field 'std_us': '3' is not a number"),
        (lambda ids, key: ids.update({"-1": ids.pop(key)}), r"field 'ids': '-1' is not a CAN id"),
        (lambda ids, key: ids.update({"zz": ids.pop(key)}), r"field 'ids': 'zz' is not a CAN id"),
        (lambda ids, key: ids.update({"20000000": ids.pop(key)}), r"field 'ids': '20000000'"),
        (lambda ids, key: ids.update({"0x1": ids.pop(key)}), r"field 'ids': '0x1'"),
        (lambda ids, key: ids.update({"0" + key: ids[key]}), rf"field 'ids': '0\w+' repeats id"),
    ], ids=["bool-count", "bool-mean", "text-std", "negative-id", "non-hex-id", "id-past-29-bits",
            "prefixed-id", "repeated-id"])
    def test_frequency_document_fields(self, edit, message):
        doc = fitted_models()["frequency"].to_json_obj()
        edit(doc["ids"], next(iter(doc["ids"])))
        with pytest.raises(ValueError, match=message):
            model_from_json_obj(doc)

    @pytest.mark.parametrize("fit, params", [
        (fit_decision_tree, dict(max_depth=np.int64(3), min_leaf=np.uint8(1))),
        (fit_random_forest, dict(n_trees=np.int64(2), bootstrap=np.True_,
                                 feature_frac=np.float16(0.5), seed=np.uint32(3))),
        (fit_gbdt, dict(n_rounds=np.int64(2), learning_rate=np.float32(0.1), subsample=np.int8(1))),
    ], ids=["tree", "forest", "gbdt"])
    def test_numpy_hyperparameters_are_saved_as_plain_values(self, fit, params):
        X, y = blobs(seed=26, gap=1.0)
        model = fit(X, y, **params)
        plain = {name: value.item() for name, value in params.items()}
        assert fit(X, y, **plain).to_json_obj() == model.to_json_obj()
        buf = io.StringIO()
        save_model(model, buf)
        assert load_model(io.StringIO(buf.getvalue())).descriptor() == model.descriptor()

    def test_frequency_ids_take_the_synth_id_rule(self):
        doc = fitted_models()["frequency"].to_json_obj()
        key = next(iter(doc["ids"]))
        doc["ids"][key.lower().rjust(8, "0")] = doc["ids"].pop(key)
        assert sorted(model_from_json_obj(doc).stats) == sorted(fitted_models()["frequency"].stats)


@st.composite
def repeated_row_matrices(draw, width=4):
    """0 to 12 rows drawn from a pool of a few rows, each one cell away
    from the one before, and their copies with the sign of every zero
    flipped, so rows repeat, differ in single columns and -0.0 meets 0.0."""
    cells = st.sampled_from([-1.0, -0.0, 0.0, 0.3, 0.6, 1.0, 2.0, 5.0, 7.0])
    pool = [draw(st.lists(cells, min_size=width, max_size=width))]
    for col, value in draw(st.lists(st.tuples(st.integers(0, width - 1), cells), max_size=4)):
        pool.append(pool[-1][:col] + [value] + pool[-1][col + 1 :])
    pool += [[-v if v == 0 else v for v in row] for row in pool]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
    return np.array([pool[i] for i in picks]).reshape(len(picks), width)


class TestDistinctRowScoring:
    """Scoring each distinct row once gives every row the scores it gets
    on its own."""

    @staticmethod
    def row_by_row(model, X):
        rows = [model.predict_scores(X[i : i + 1]) for i in range(len(X))]
        return np.vstack(rows) if rows else np.empty((0, len(model.classes)))

    @pytest.mark.parametrize("kind", ["tree", "forest", "gbdt", "lccde"])
    @given(X=repeated_row_matrices())
    @settings(max_examples=40, deadline=None)
    def test_scores_match_row_by_row(self, kind, X):
        model = fitted_models()[kind]
        assert np.array_equal(model.predict_scores(X), self.row_by_row(model, X))

    @given(n=st.integers(0, 5))
    def test_single_leaf_tree_on_zero_columns(self, n):
        model = fit_decision_tree(np.zeros((3, 2)), np.zeros(3, dtype=int))
        X = np.empty((n, 0))
        assert model.n_nodes == 1
        assert np.array_equal(model.predict_scores(X), self.row_by_row(model, X))
        assert model.predict_scores(X).shape == (n, 1)


def _reference_apply(tree, X):
    """The walk that `_TreeArrays.apply` replaced, kept as its oracle: each
    pass selects the rows still on an internal node and moves only them."""
    node = np.zeros(len(X), dtype=np.int64)
    while True:
        feat = tree.feature[node]
        active = np.flatnonzero(feat >= 0)
        if len(active) == 0:
            return node
        go_left = X[active, feat[active]] <= tree.threshold[node[active]]
        node[active] = np.where(go_left, tree.left[node[active]], tree.right[node[active]])


def _reference_distinct_rows(X):
    """The row-major `_distinct_rows` that the column-major one replaced."""
    n, d = X.shape
    order = np.lexsort(X.T) if d else np.arange(n)
    ranked = X[order]
    new = np.ones(n, dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


EDGE_CELLS = [-np.inf, -1.5, -0.0, 0.0, 0.5, 1.0, 2.5, np.inf, np.nan]


@st.composite
def walk_trees(draw, width):
    """A tree of depth 0 to 40 over `width` features, grown by splitting
    leaves picked at random, so nodes are numbered after their parent but
    not in preorder; thresholds include +-inf, both zeros and NaN.  Most
    splits pick one of the last split's children, which grows chains past
    the passes (16 and 32) after which the walk drops rows."""
    tree = _TreeArrays(value_width=1)
    depth = [0]
    open_leaves = [tree.add_node(np.zeros(1))]
    for _ in range(draw(st.integers(0, 80))):
        splittable = [k for k in open_leaves if depth[k] < 40]
        if not splittable:
            break
        node = draw(st.sampled_from(splittable[-2:] if draw(st.integers(0, 3)) else splittable))
        open_leaves.remove(node)
        tree.feature[node] = draw(st.integers(0, width - 1))
        tree.threshold[node] = draw(st.sampled_from(EDGE_CELLS))
        for link in (tree.left, tree.right):
            child = tree.add_node(np.zeros(1))
            link[node] = child
            depth.append(depth[node] + 1)
            open_leaves.append(child)
    tree.finalize()
    return tree, max(depth)


class TestTreeWalk:
    """`_TreeArrays.apply` moves every row one level per pass and drops
    rows on a leaf only after passes 16, 32, ...; it must land each row
    where the walk that compacts after every pass does."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 4), st.integers(0, 3), st.integers(0, 40), st.booleans())
    def test_matches_the_compacting_walk(self, data, width, extra, n, fortran):
        tree, depth = data.draw(walk_trees(width))
        cells = data.draw(st.lists(st.sampled_from(EDGE_CELLS), min_size=n * (width + extra),
                                   max_size=n * (width + extra)))
        X = np.array(cells, dtype=np.float64).reshape(n, width + extra)
        if fortran:
            X = np.asfortranarray(X)
        assert tree.depth == depth
        assert np.array_equal(tree.apply(X), _reference_apply(tree, X))

    def test_rows_dropped_on_the_way_down_a_deep_tree(self):
        # A staircase: each split peels one value off, so rows stop at every
        # depth from 1 to 199, around each pass after which rows are dropped.
        X = np.arange(200.0)[:, None]
        tree = fit_decision_tree(X, np.arange(200) % 2)._tree
        X = np.vstack([X[::-1], [[np.nan], [np.inf], [-np.inf], [-0.0], [99.5]]])
        assert tree.depth == 199
        assert np.array_equal(tree.apply(X), _reference_apply(tree, X))

    def test_trees_read_together_keep_their_depths(self):
        stump = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
                 "value": [[1.0]]}
        pair = {"feature": [0, -1, 0, -1, -1], "threshold": [0.0] * 5, "left": [1, -1, 3, -1, -1],
                "right": [2, -1, 4, -1, -1], "value": [[1.0]] * 5}
        trees = _TreeArrays.from_json_objs([pair, stump, pair], 1)
        assert [tree.depth for tree in trees] == [2, 0, 2]
        assert np.array_equal(trees[2].apply(np.array([[1.0], [0.0]])), [4, 1])

    def test_links_that_are_not_a_tree_rejected(self):
        # Four links for five nodes, but node 3 is both children of node 1
        # and node 4 hangs under nothing.
        doc = {"feature": [0, 0, -1, -1, -1], "threshold": [0.0] * 5, "left": [1, 3, -1, -1, -1],
               "right": [2, 3, -1, -1, -1], "value": [[1.0]] * 5}
        with pytest.raises(ValueError, match="node links"):
            _TreeArrays.from_json_objs([doc], 1)
        # One node, marked internal, whose links point past the tree.
        doc = {"feature": [0], "threshold": [0.0], "left": [5], "right": [6], "value": [[1.0]]}
        with pytest.raises(ValueError, match="node links"):
            _TreeArrays.from_json_objs([doc], 1)


@st.composite
def distinct_row_matrices(draw):
    """Rows drawn from a few with repeats, -0.0 beside 0.0 and NaN, of zero
    to 5 columns and zero to 30 rows."""
    width = draw(st.integers(0, 5))
    pool = draw(st.lists(st.lists(st.sampled_from([-0.0, 0.0, 1.0, -2.0, np.nan, np.inf]),
                                  min_size=width, max_size=width), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=30))
    return np.array([pool[i] for i in picks], dtype=np.float64).reshape(len(picks), width)


class TestDistinctRows:
    @settings(max_examples=200, deadline=None)
    @given(distinct_row_matrices())
    def test_matches_the_row_major_version(self, X):
        first, inverse = _distinct_rows(X)
        ref_first, ref_inverse = _reference_distinct_rows(X)
        assert np.array_equal(first, ref_first) and np.array_equal(inverse, ref_inverse)
        assert np.array_equal(X[first][inverse], X, equal_nan=True)


class TestLatencyAndPredictions:
    def test_measure_latency(self):
        X, y = blobs(seed=17, gap=2.0)
        model = fit_decision_tree(X, y, max_depth=3)
        latency = measure_latency(model, X)
        assert latency > 0
        assert model.latency_us == latency

    def test_predict_objects(self):
        X, y = blobs(seed=18, gap=3.0)
        model = fit_decision_tree(X, y, classes=("Normal", "Attack"), max_depth=3)
        scores = model.predict_scores(X[:5])
        assert np.abs(scores.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.array_equal(scores.argmax(axis=1), model.predict_labels(X[:5]))
