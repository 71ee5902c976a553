"""Classical detectors sharing one train/predict interface.

Four model kinds: a CART decision tree split on Gini impurity, a
bootstrap forest of such trees, softmax gradient-boosted regression
trees with Newton leaf weights, and a per-id inter-arrival frequency
baseline.  All trees come from one grower, `_grow_tree`, which runs the
split search from an explicit stack (no recursion, so any depth works)
and takes its criterion as a plug-in: `_Gini` for classification trees,
`_Newton` for boosting.  The tree learners are written directly on
numpy so split tie-breaking (lowest feature index, then lowest
threshold) and per-tree seeding are fully specified; given identical
inputs the fitted models are identical.

The split search is exact and rank-coded: each fit encodes every feature
column once as integer ranks (`_rank_codes`, 8 or 16 bits for up to
65,536 distinct values) and every node sorts those small codes instead
of the float values.  Ranks keep order and ties exactly, so the fitted
trees are byte-identical to sorting the values themselves; thresholds
are still midpoints of the two feature values either side of the split.
Forests and boosting encode once for all their trees.  Fitting rejects
NaN features with a `ValueError` naming the column; +-inf are ordinary
values.

All score outputs are probability vectors over the fitted class list.
Models serialize to self-describing JSON documents with a format
version.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import IO, Any, Iterable, Iterator, Sequence

import numpy as np

from .core import CanFrame, LabeledFrame, TrafficLog

MODEL_FORMAT_VERSION = 1

DEFAULT_FOREST_TREES = 100
DEFAULT_FOREST_DEPTH = 12
DEFAULT_GBDT_ROUNDS = 200
DEFAULT_GBDT_RATE = 0.1
DEFAULT_GBDT_DEPTH = 6
DEFAULT_K_SIGMA = 4.0


class NotFittedError(RuntimeError):
    pass


@dataclass(frozen=True)
class Prediction:
    """A predicted class with its probability vector."""

    name: str
    confidence: float
    scores: np.ndarray

    def __post_init__(self) -> None:
        if abs(float(self.scores.sum()) - 1.0) > 1e-9:
            raise ValueError("per-class scores must sum to 1")
        if abs(self.confidence - float(self.scores.max())) > 1e-12:
            raise ValueError("confidence must equal the largest score")


def _predictions_from_scores(scores: np.ndarray, classes: Sequence[str]) -> list[Prediction]:
    out = []
    for row in scores:
        j = int(np.argmax(row))
        out.append(Prediction(name=classes[j], confidence=float(row[j]), scores=row))
    return out


def _default_classes(y: np.ndarray) -> tuple[str, ...]:
    return tuple(str(c) for c in range(int(y.max()) + 1))


class _TreeArrays:
    """Flat binary-tree storage: node i splits on feature[i] (or is a
    leaf when feature[i] < 0) at threshold[i]; value[i] is the leaf
    payload (class distribution or regression weight)."""

    def __init__(self, value_width: int) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[np.ndarray] = []
        self.value_width = value_width

    def add_node(self, value: np.ndarray) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.feature) - 1

    def finalize(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.vstack(self.value) if len(self.value) else np.zeros((0, self.value_width))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row; walks one level per iteration."""
        node = np.zeros(len(X), dtype=np.int64)
        while True:
            feat = self.feature[node]
            active = np.flatnonzero(feat >= 0)
            if len(active) == 0:
                return node
            f = feat[active]
            go_left = X[active, f] <= self.threshold[node[active]]
            nxt = np.where(go_left, self.left[node[active]], self.right[node[active]])
            node[active] = nxt

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "feature": np.asarray(self.feature).tolist(),
            "threshold": np.asarray(self.threshold).tolist(),
            "left": np.asarray(self.left).tolist(),
            "right": np.asarray(self.right).tolist(),
            "value": np.asarray(self.value).tolist(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict[str, Any]) -> "_TreeArrays":
        value = np.asarray(obj["value"], dtype=np.float64)
        tree = cls(value.shape[1] if value.ndim == 2 else 1)
        tree.feature = np.asarray(obj["feature"], dtype=np.int64)
        tree.threshold = np.asarray(obj["threshold"], dtype=np.float64)
        tree.left = np.asarray(obj["left"], dtype=np.int64)
        tree.right = np.asarray(obj["right"], dtype=np.int64)
        tree.value = value.reshape(len(tree.feature), -1)
        # Growth numbers children after their parent; walking a tree and
        # measuring its depth rely on it, and a cycle would never end.
        internal = np.flatnonzero(tree.feature >= 0)
        for child in (tree.left[internal], tree.right[internal]):
            if not ((child > internal) & (child < len(tree.feature))).all():
                raise ValueError("tree node links must point past their parent and stay in range")
        return tree


def _split_candidates(sv: np.ndarray, m: int, min_leaf: int) -> np.ndarray:
    """Positions i where the sorted feature changes value and both sides
    keep at least min_leaf samples; left side = first i samples."""
    lo, hi = min_leaf, m - min_leaf
    return np.flatnonzero(sv[lo : hi + 1] > sv[lo - 1 : hi]) + lo


def _safe_threshold(lo: float, hi: float) -> float:
    """Midpoint, pulled back to the left value if rounding reaches hi or
    lo is -inf (the midpoint is then NaN), so `x <= threshold` always
    reproduces the fit-time partition."""
    mid = lo + (hi - lo) / 2.0
    return mid if mid < hi else lo


class _Gini:
    """Classification criterion: leaves hold class distributions, a pure
    node stays a leaf, and a split scores the weighted Gini decrease."""

    floor = -np.inf

    def __init__(self, y: np.ndarray, n_classes: int) -> None:
        self.y = y
        self.eye = np.eye(n_classes, dtype=np.float64)
        self.width = n_classes

    def node(self, idx: np.ndarray) -> tuple[np.ndarray, bool, Any]:
        counts = np.bincount(self.y[idx], minlength=self.width).astype(np.float64)
        return counts / len(idx), counts.max() < len(idx), None

    def scores(self, rows: np.ndarray, cand: np.ndarray, _: Any) -> np.ndarray:
        cum = np.cumsum(self.eye[self.y[rows]], axis=0)
        lc = cum[cand - 1]
        rc = cum[-1] - lc
        ln = cand.astype(np.float64)
        rn = len(rows) - ln
        # Minimizing weighted Gini is maximizing the sum of squared
        # class counts over each side's size.
        return (lc * lc).sum(axis=1) / ln + (rc * rc).sum(axis=1) / rn


class _Newton:
    """Regression criterion on gradient/hessian pairs: leaves hold the
    Newton step -G/(H + lambda) and splits maximize the usual gain."""

    floor = 1e-12
    width = 1

    def __init__(self, g: np.ndarray, h: np.ndarray, reg_lambda: float) -> None:
        self.g = g
        self.h = h
        self.reg_lambda = reg_lambda

    def node(self, idx: np.ndarray) -> tuple[np.ndarray, bool, Any]:
        # Node totals in the node's own row order; a cumsum's last element
        # rounds differently.
        G = self.g[idx].sum()
        H = self.h[idx].sum()
        return np.array([-G / (H + self.reg_lambda)]), True, (G, H)

    def scores(self, rows: np.ndarray, cand: np.ndarray, totals: Any) -> np.ndarray:
        G, H = totals
        lam = self.reg_lambda
        at = cand - 1
        gl = self.g[rows].cumsum()[at]
        hl = self.h[rows].cumsum()[at]
        gr = G - gl
        hr = H - hl
        return gl * gl / (hl + lam) + gr * gr / (hr + lam) - G * G / (H + lam)


def _reject_nan(X: np.ndarray) -> None:
    """Fitting refuses NaN features: NaN orders against nothing, so no
    split could place it."""
    bad = np.isnan(X).any(axis=0)
    if bad.any():
        raise ValueError(f"feature column {int(np.argmax(bad))} contains NaN")


def _rank_codes(X: np.ndarray) -> np.ndarray:
    """Every feature column of X as integer ranks, column-major:
    codes[f, i] is the rank of X[i, f] among the column's distinct
    values, in the smallest dtype that holds every column's ranks.
    Ranks keep order and ties exactly (-0.0 and 0.0 share a rank), so a
    stable sort of a node's codes is the stable sort of its values."""
    _reject_nan(X)
    n, d = X.shape
    ranks = []
    distinct = 0
    for f in range(d):
        values, rank = np.unique(X[:, f], return_inverse=True)
        ranks.append(rank)
        distinct = max(distinct, len(values))
    dtype = np.uint8 if distinct <= 2**8 else np.uint16 if distinct <= 2**16 else np.int64
    return np.array(ranks, dtype=dtype).reshape(d, n)


def _grow_tree(
    X: np.ndarray,
    codes: np.ndarray,
    criterion: _Gini | _Newton,
    max_depth: int | None,
    min_leaf: int,
) -> _TreeArrays:
    """Greedy binary tree grown from an explicit stack, so depth is
    bounded only by max_depth.  Node ids are preorder, left child first.
    A split must beat criterion.floor; ties go to the lowest feature,
    then the lowest threshold.

    The split search sorts `codes` (the `_rank_codes` of X, or a row
    and column subset of them, which stays order-preserving); X is read
    only for the two values on either side of the chosen split."""
    tree = _TreeArrays(value_width=criterion.width)
    # (rows, depth, parent node, child array the parent links through)
    stack: list[tuple[np.ndarray, int, int, list[int]]] = [
        (np.arange(len(X), dtype=np.int64), 0, -1, tree.left)
    ]
    while stack:
        idx, depth, parent, link = stack.pop()
        value, may_split, state = criterion.node(idx)
        node = tree.add_node(value)
        if parent >= 0:
            link[parent] = node
        m = len(idx)
        if not may_split or m < 2 * min_leaf or (max_depth is not None and depth >= max_depth):
            continue
        best_score = criterion.floor
        best: tuple[int, np.ndarray, int] | None = None
        for f, col in enumerate(codes):
            v = col[idx]
            order = np.argsort(v, kind="stable")
            cand = _split_candidates(v[order], m, min_leaf)
            if len(cand) == 0:
                continue
            rows = idx[order]
            score = criterion.scores(rows, cand, state)
            j = int(np.argmax(score))
            if score[j] > best_score:
                best_score = float(score[j])
                best = (f, rows, int(cand[j]))
        if best is None:
            continue
        f, rows, i = best
        tree.feature[node] = f
        tree.threshold[node] = _safe_threshold(float(X[rows[i - 1], f]), float(X[rows[i], f]))
        stack.append((rows[i:], depth + 1, node, tree.right))
        stack.append((rows[:i], depth + 1, node, tree.left))
    tree.finalize()
    return tree


class Detector:
    """Shared surface: fit once, then predict probability vectors."""

    kind = "base"

    def __init__(self) -> None:
        self.classes: tuple[str, ...] = ()
        self.latency_us: float | None = None
        self._fitted = False

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{self.kind} model is not fitted")

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_scores(X), axis=1)

    def predict(self, X: np.ndarray) -> list[Prediction]:
        return _predictions_from_scores(self.predict_scores(X), self.classes)

    def descriptor(self) -> dict[str, Any]:
        return {"kind": self.kind, "classes": list(self.classes)}


class DecisionTree(Detector):
    """CART classifier: greedy Gini splits, deterministic tie-breaks."""

    kind = "tree"

    def __init__(self, max_depth: int | None = None, min_leaf: int = 1) -> None:
        super().__init__()
        if min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self._tree: _TreeArrays | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, classes: Sequence[str] | None = None) -> "DecisionTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if len(X) == 0:
            raise ValueError("cannot fit on an empty set")
        self.classes = tuple(classes) if classes is not None else _default_classes(y)
        self._tree = _grow_tree(
            X, _rank_codes(X), _Gini(y, len(self.classes)), self.max_depth, self.min_leaf
        )
        self._fitted = True
        return self

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return self._tree.leaf_values(np.asarray(X, dtype=np.float64))

    @property
    def n_nodes(self) -> int:
        self._check_fitted()
        return len(self._tree.feature)

    @property
    def depth(self) -> int:
        self._check_fitted()
        tree = self._tree
        # Children always follow their parent, so one forward pass suffices.
        depth = np.zeros(len(tree.feature), dtype=np.int64)
        for node in np.flatnonzero(tree.feature >= 0):
            depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
        return int(depth.max())

    def descriptor(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "classes": list(self.classes),
        }

    def to_json_obj(self) -> dict[str, Any]:
        self._check_fitted()
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": self.kind,
            "classes": list(self.classes),
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "latency_us": self.latency_us,
            "tree": self._tree.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict[str, Any]) -> "DecisionTree":
        model = cls(max_depth=obj["max_depth"], min_leaf=obj["min_leaf"])
        model.classes = tuple(obj["classes"])
        model._tree = _TreeArrays.from_json_obj(obj["tree"])
        model.latency_us = obj.get("latency_us")
        model._fitted = True
        return model


class RandomForest(Detector):
    """Bagged CART trees; every tree sees a bootstrap sample and a fixed
    random feature subset, and the forest averages leaf distributions."""

    kind = "forest"

    def __init__(
        self,
        n_trees: int = DEFAULT_FOREST_TREES,
        max_depth: int | None = DEFAULT_FOREST_DEPTH,
        min_leaf: int = 1,
        bootstrap: bool = True,
        feature_frac: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if not 0.0 < feature_frac <= 1.0:
            raise ValueError("feature_frac must be in (0, 1]")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.bootstrap = bootstrap
        self.feature_frac = feature_frac
        self.seed = seed
        self._trees: list[_TreeArrays] = []
        self._feats: list[np.ndarray] = []

    def fit(self, X: np.ndarray, y: np.ndarray, classes: Sequence[str] | None = None) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if len(X) == 0:
            raise ValueError("cannot fit on an empty set")
        self.classes = tuple(classes) if classes is not None else _default_classes(y)
        n, d = X.shape
        n_feats = max(1, int(round(self.feature_frac * d)))
        codes = _rank_codes(X)
        self._trees = []
        self._feats = []
        for t in range(self.n_trees):
            rng = np.random.default_rng([self.seed, t])
            rows = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            cols = np.sort(rng.permutation(d)[:n_feats])
            tree = _grow_tree(
                X[rows][:, cols],
                codes[cols][:, rows],
                _Gini(y[rows], len(self.classes)),
                self.max_depth,
                self.min_leaf,
            )
            self._trees.append(tree)
            self._feats.append(cols)
        self._fitted = True
        return self

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        total = np.zeros((len(X), len(self.classes)))
        for tree, cols in zip(self._trees, self._feats):
            total += tree.leaf_values(X[:, cols])
        return total / len(self._trees)

    def descriptor(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "bootstrap": self.bootstrap,
            "feature_frac": self.feature_frac,
            "seed": self.seed,
            "classes": list(self.classes),
        }

    def to_json_obj(self) -> dict[str, Any]:
        self._check_fitted()
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": self.kind,
            "classes": list(self.classes),
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "bootstrap": self.bootstrap,
            "feature_frac": self.feature_frac,
            "seed": self.seed,
            "latency_us": self.latency_us,
            "trees": [t.to_json_obj() for t in self._trees],
            "tree_features": [f.tolist() for f in self._feats],
        }

    @classmethod
    def from_json_obj(cls, obj: dict[str, Any]) -> "RandomForest":
        model = cls(
            n_trees=obj["n_trees"],
            max_depth=obj["max_depth"],
            min_leaf=obj["min_leaf"],
            bootstrap=obj["bootstrap"],
            feature_frac=obj["feature_frac"],
            seed=obj["seed"],
        )
        model.classes = tuple(obj["classes"])
        model._trees = [_TreeArrays.from_json_obj(t) for t in obj["trees"]]
        model._feats = [np.asarray(f, dtype=np.int64) for f in obj["tree_features"]]
        model.latency_us = obj.get("latency_us")
        model._fitted = True
        return model


def _softmax(raw: np.ndarray) -> np.ndarray:
    shifted = raw - raw.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class GradientBoosting(Detector):
    """Additive regression trees on softmax cross-entropy gradients,
    one tree per class per round, Newton leaf weights."""

    kind = "gbdt"

    def __init__(
        self,
        n_rounds: int = DEFAULT_GBDT_ROUNDS,
        learning_rate: float = DEFAULT_GBDT_RATE,
        max_depth: int = DEFAULT_GBDT_DEPTH,
        min_leaf: int = 1,
        reg_lambda: float = 1.0,
        subsample: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_rounds = n_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.reg_lambda = reg_lambda
        self.subsample = subsample
        self.seed = seed
        self._rounds: list[list[_TreeArrays]] = []

    def fit(self, X: np.ndarray, y: np.ndarray, classes: Sequence[str] | None = None) -> "GradientBoosting":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if len(X) == 0:
            raise ValueError("cannot fit on an empty set")
        self.classes = tuple(classes) if classes is not None else _default_classes(y)
        n = len(X)
        n_classes = len(self.classes)
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y] = 1.0
        raw = np.zeros((n, n_classes))
        codes = _rank_codes(X)
        self._rounds = []
        for r in range(self.n_rounds):
            p = _softmax(raw)
            if self.subsample < 1.0:
                rng = np.random.default_rng([self.seed, r])
                size = max(1, int(self.subsample * n))
                rows = np.sort(rng.permutation(n)[:size])
            else:
                rows = np.arange(n)
            X_rows, codes_rows = X[rows], codes[:, rows]
            round_trees: list[_TreeArrays] = []
            for c in range(n_classes):
                g = p[rows, c] - onehot[rows, c]
                h = np.maximum(p[rows, c] * (1.0 - p[rows, c]), 1e-12)
                criterion = _Newton(g, h, self.reg_lambda)
                tree = _grow_tree(X_rows, codes_rows, criterion, self.max_depth, self.min_leaf)
                round_trees.append(tree)
                raw[:, c] += self.learning_rate * tree.leaf_values(X)[:, 0]
            self._rounds.append(round_trees)
        self._fitted = True
        return self

    def _accumulate(self, X: np.ndarray) -> Iterator[np.ndarray]:
        """The running raw scores after each round, as one array that
        every later round updates in place."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        raw = np.zeros((len(X), len(self.classes)))
        for round_trees in self._rounds:
            for c, tree in enumerate(round_trees):
                raw[:, c] += self.learning_rate * tree.leaf_values(X)[:, 0]
            yield raw

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        # Fitting and loading both guarantee at least one round.
        for raw in self._accumulate(X):
            pass
        return raw

    def staged_raw_scores(self, X: np.ndarray) -> Iterator[np.ndarray]:
        """Raw scores after each boosting round, for loss diagnostics."""
        for raw in self._accumulate(X):
            yield raw.copy()

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        return _softmax(self.raw_scores(X))

    def descriptor(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "n_rounds": self.n_rounds,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "reg_lambda": self.reg_lambda,
            "subsample": self.subsample,
            "seed": self.seed,
            "classes": list(self.classes),
        }

    def to_json_obj(self) -> dict[str, Any]:
        self._check_fitted()
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": self.kind,
            "classes": list(self.classes),
            "n_rounds": self.n_rounds,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "reg_lambda": self.reg_lambda,
            "subsample": self.subsample,
            "seed": self.seed,
            "latency_us": self.latency_us,
            "rounds": [[t.to_json_obj() for t in rt] for rt in self._rounds],
        }

    @classmethod
    def from_json_obj(cls, obj: dict[str, Any]) -> "GradientBoosting":
        model = cls(
            n_rounds=obj["n_rounds"],
            learning_rate=obj["learning_rate"],
            max_depth=obj["max_depth"],
            min_leaf=obj["min_leaf"],
            reg_lambda=obj["reg_lambda"],
            subsample=obj["subsample"],
            seed=obj["seed"],
        )
        model.classes = tuple(obj["classes"])
        model._rounds = [[_TreeArrays.from_json_obj(t) for t in rt] for rt in obj["rounds"]]
        if len(model._rounds) != model.n_rounds or any(
            len(rt) != len(model.classes) for rt in model._rounds
        ):
            raise ValueError("gbdt rounds must be n_rounds lists of one tree per class")
        model.latency_us = obj.get("latency_us")
        model._fitted = True
        return model


def softmax_cross_entropy(raw: np.ndarray, y: np.ndarray) -> float:
    """Mean negative log-likelihood of the true class under softmax."""
    p = _softmax(raw)
    return float(-np.log(np.maximum(p[np.arange(len(y)), y], 1e-300)).mean())


def _iter_frames(frames: TrafficLog | Iterable[CanFrame | LabeledFrame]) -> Iterator[CanFrame]:
    for f in frames:
        yield f.frame if isinstance(f, LabeledFrame) else f


class FrequencyDetector(Detector):
    """Per-id inter-arrival baseline.

    Learns the mean and sample standard deviation of same-id gaps from
    attack-free traffic.  A frame is flagged when its gap to the
    previous frame of the same id falls below mean - k_sigma * std, or
    when its id has no usable ambient statistics.  Attacks that insert
    extra frames compress gaps and are caught; attacks that replace
    frames in place keep the ambient gap distribution and are not.
    """

    kind = "frequency"

    def __init__(self, k_sigma: float = DEFAULT_K_SIGMA) -> None:
        super().__init__()
        if k_sigma < 0:
            raise ValueError("k_sigma must be nonnegative")
        self.k_sigma = k_sigma
        self.classes = ("Normal", "Attack")
        self.stats: dict[int, dict[str, float]] = {}

    def fit(self, ambient: TrafficLog | Iterable[CanFrame | LabeledFrame]) -> "FrequencyDetector":
        arrivals: dict[int, list[int]] = {}
        for frame in _iter_frames(ambient):
            arrivals.setdefault(frame.can_id, []).append(frame.timestamp_us)
        self.stats = {}
        for can_id, times in arrivals.items():
            if len(times) < 3:
                continue
            gaps = np.diff(np.asarray(times, dtype=np.int64)).astype(np.float64)
            mean = float(gaps.mean())
            std = float(gaps.std(ddof=1))
            self.stats[can_id] = {
                "mean_us": mean,
                "std_us": std,
                "threshold_us": mean - self.k_sigma * std,
                "count": len(times),
            }
        if not self.stats:
            raise ValueError("no id with at least 3 ambient observations")
        self._fitted = True
        return self

    def predict_frames(self, frames: TrafficLog | Iterable[CanFrame | LabeledFrame]) -> np.ndarray:
        """1 per frame flagged as attack, 0 otherwise, in frame order."""
        self._check_fitted()
        flags: list[int] = []
        last_seen: dict[int, int] = {}
        for frame in _iter_frames(frames):
            stat = self.stats.get(frame.can_id)
            if stat is None:
                flags.append(1)
                continue
            prev = last_seen.get(frame.can_id)
            last_seen[frame.can_id] = frame.timestamp_us
            if prev is None:
                flags.append(0)
                continue
            gap = frame.timestamp_us - prev
            flags.append(1 if gap < stat["threshold_us"] else 0)
        return np.asarray(flags, dtype=np.int64)

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError(
            "the frequency baseline scores traffic logs, not feature matrices; "
            "use predict_frames"
        )

    def descriptor(self) -> dict[str, Any]:
        return {"kind": self.kind, "k_sigma": self.k_sigma, "n_ids": len(self.stats)}

    def to_json_obj(self) -> dict[str, Any]:
        self._check_fitted()
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": self.kind,
            "k_sigma": self.k_sigma,
            "latency_us": self.latency_us,
            "ids": {f"{can_id:X}": dict(stat) for can_id, stat in sorted(self.stats.items())},
        }

    @classmethod
    def from_json_obj(cls, obj: dict[str, Any]) -> "FrequencyDetector":
        model = cls(k_sigma=obj["k_sigma"])
        model.stats = {int(k, 16): dict(v) for k, v in obj["ids"].items()}
        model.latency_us = obj.get("latency_us")
        model._fitted = True
        return model


def fit_decision_tree(
    X: np.ndarray,
    y: np.ndarray,
    classes: Sequence[str] | None = None,
    max_depth: int | None = None,
    min_leaf: int = 1,
) -> DecisionTree:
    return DecisionTree(max_depth=max_depth, min_leaf=min_leaf).fit(X, y, classes)


def fit_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    classes: Sequence[str] | None = None,
    n_trees: int = DEFAULT_FOREST_TREES,
    max_depth: int | None = DEFAULT_FOREST_DEPTH,
    min_leaf: int = 1,
    bootstrap: bool = True,
    feature_frac: float = 1.0,
    seed: int = 0,
) -> RandomForest:
    return RandomForest(
        n_trees=n_trees,
        max_depth=max_depth,
        min_leaf=min_leaf,
        bootstrap=bootstrap,
        feature_frac=feature_frac,
        seed=seed,
    ).fit(X, y, classes)


def fit_gbdt(
    X: np.ndarray,
    y: np.ndarray,
    classes: Sequence[str] | None = None,
    n_rounds: int = DEFAULT_GBDT_ROUNDS,
    learning_rate: float = DEFAULT_GBDT_RATE,
    max_depth: int = DEFAULT_GBDT_DEPTH,
    min_leaf: int = 1,
    reg_lambda: float = 1.0,
    subsample: float = 1.0,
    seed: int = 0,
) -> GradientBoosting:
    return GradientBoosting(
        n_rounds=n_rounds,
        learning_rate=learning_rate,
        max_depth=max_depth,
        min_leaf=min_leaf,
        reg_lambda=reg_lambda,
        subsample=subsample,
        seed=seed,
    ).fit(X, y, classes)


def fit_frequency_detector(
    ambient: TrafficLog | Iterable[CanFrame | LabeledFrame], k_sigma: float = DEFAULT_K_SIGMA
) -> FrequencyDetector:
    return FrequencyDetector(k_sigma=k_sigma).fit(ambient)


def measure_latency(model: Detector, X: np.ndarray, repeats: int = 3) -> float:
    """Median per-sample predict wall time in microseconds; stored on
    the model for speed tie-breaks."""
    if len(X) == 0:
        raise ValueError("need at least one sample to time")
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        model.predict_scores(X)
        times.append((time.perf_counter() - start) / len(X))
    model.latency_us = float(np.median(times) * 1e6)
    return model.latency_us


_MODEL_KINDS = {
    "tree": DecisionTree,
    "forest": RandomForest,
    "gbdt": GradientBoosting,
    "frequency": FrequencyDetector,
}


def register_model_kind(kind: str, cls: type) -> None:
    """Hook for model classes defined outside this module so that
    load_model can dispatch on their documents."""
    _MODEL_KINDS[kind] = cls


def model_from_json_obj(obj: dict[str, Any]) -> Detector:
    version = obj.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    kind = obj.get("kind")
    if kind not in _MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    return _MODEL_KINDS[kind].from_json_obj(obj)


def save_model(model: Detector, stream: IO[str]) -> None:
    json.dump(model.to_json_obj(), stream)
    stream.write("\n")


def load_model(stream: IO[str]) -> Detector:
    return model_from_json_obj(json.load(stream))
