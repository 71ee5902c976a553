"""Classical detectors sharing one train/predict interface.

Four model kinds: a CART decision tree split on Gini impurity, a
bootstrap forest of such trees, softmax gradient-boosted regression
trees with Newton leaf weights, and a per-id inter-arrival frequency
baseline.  All trees come from one grower, `_grow_trees`, which runs the
split search from an explicit stack (no recursion, so any depth works)
and takes its criteria as plug-ins: `_Gini` for classification trees,
`_Newton` for boosting.  A boosting round's class trees grow together:
all of them fit the same rows, so a node that several trees share (its
row set is the same in each; for two classes the class-1 tree nearly
mirrors the class-0 one) sorts each feature once for all of them, and the
grower hands back every training row's leaf, so the round's raw-score
update walks only the rows that subsampling left out.  The tree learners
are written directly on numpy so split tie-breaking (lowest feature
index, then lowest threshold) and per-tree seeding are fully specified;
given identical inputs the fitted models are identical.

The split search is exact and rank-coded: each fit encodes every feature
column once as integer ranks (`_rank_codes`, 8 or 16 bits for up to
65,536 distinct values) and every node searches those small codes instead
of the float values.  A column of whole numbers over a range shorter than
the column (every CAN id and byte column) is ranked in linear time from a
presence table, any other by np.unique.  Ranks keep order and ties
exactly, so the fitted trees are byte-identical to sorting the values
themselves; thresholds are still midpoints of the two feature values
either side of the split.  Forests and boosting encode once for all their
trees, and a forest grows every tree from its bootstrap row indices over
the one encoding, X and `_Gini`, with no per-tree copies.

A node searches its features in groups of `_GROUP_CELLS // m` features
(m node rows, at least one feature), with one gather of the codes each.
A node of `_Gini` trees whose count table, its widest feature's rank
count times the number of classes, is at most `_COUNT_CELLS_PER_ROW * m`
cells counts instead of sorting: one bincount of code * classes + class
and a cumulative sum over the codes give the left class counts after
every code present in the node, which are exactly the candidates of the
sorted search, scored with the same integer sums of squares and the same
float division.  Only the winning feature is then stably sorted, to list
the children's rows in the order the sorted search gives them, so the
thresholds read the same rows (which tells -0.0 from 0.0 next to +-inf).
Every other node, and every `_Newton` node, whose float prefix sums
depend on row order, sorts: one stable sort per feature row, one compare
for every candidate split, and for each tree one 2-D prefix sum, one
score array and one argmax.  `_Newton` holds the gradients and hessians
as the real and imaginary parts of one complex array; complex addition
adds the parts separately and a prefix sum adds in row order, so each
part is the float prefix sum bit for bit.  A sorting `_Gini` node runs
one integer prefix sum per class but the last, whose left counts are the
left side's size minus the others'.  Either way the first argmax of a
group is its lowest feature, then its lowest threshold, and a later
group must score strictly higher, so the trees are those of a
one-feature-at-a-time search.

A tree walks all its rows together, one level per pass
(`_TreeArrays.apply`): a leaf leads back to itself, so a tree of depth D
takes D passes of a few gathers each.  Rows that reached a leaf are
dropped only after passes 16, 32, 64, ..., so a shallow tree never
selects rows and a deep, lopsided one does not carry its early leaves to
the end.  The walk arrays and the depth are built once per tree, when it
is grown or loaded.

Fitting rejects NaN features with a `ValueError` naming the column;
+-inf are ordinary values.  Labels must be one class index per row; a
label that is negative, fractional or past the class list is refused
naming its row (`core._class_indices`).  Hyperparameters are read by
`core._read_field` when the model is built: `n_trees`, `n_rounds`,
`max_depth` (or null) and `min_leaf` are integers from 1;
`feature_frac`, `learning_rate` and `subsample` numbers in (0, 1];
`reg_lambda` and `k_sigma` finite numbers from 0.  Any other value is
refused naming its field.

Every kind scores through `Detector.predict_scores`: it scores each
distinct row once, through the kind's own `_scores`, and hands the
scores back row for row.  All score outputs are probability vectors over
the fitted class list.  A feature matrix narrower than the columns a
model's trees read, fixed when a tree is grown or loaded, is refused
with a `ValueError` naming both widths.

Each model class declares its hyperparameters (`params`, its constructor
arguments) and fitted fields (`state`); `Detector` lays out every JSON
document from them as `format_version, kind, classes, *params,
latency_us, *state` (the frequency baseline, whose classes are fixed,
leaves out `classes`).  A malformed document raises `ValueError`.
"""

from __future__ import annotations

import copy
import json
import time
from itertools import chain
from typing import IO, Any, Iterable, Sequence

import numpy as np

from .core import (
    CanFrame,
    LabeledFrame,
    TrafficLog,
    _class_indices,
    _read_field,
    _require_fields,
    _short_whole_range,
)

MODEL_FORMAT_VERSION = 1


class NotFittedError(RuntimeError):
    pass


def _numbers(value: Any, dtype: type, what: str) -> np.ndarray:
    """value as an array of dtype (np.int64 or np.float64).  What numpy
    reads it as is checked before the cast, which would read strings and
    bools as numbers and wrap integers past int64.  numpy reads a bool
    among numbers as 0 or 1, so the element types are checked too, by
    `map` over the object array (no Python loop per value)."""
    try:
        raw = np.asarray(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} is not an array of numbers") from None
    integer = dtype is np.int64
    if raw.size and (raw.dtype.kind not in ("i" if integer else "iuf") or not {bool, np.bool_}
                     .isdisjoint(map(type, np.asarray(value, dtype=object).flat))):
        raise ValueError(f"{what} is not an array of {'integers' if integer else 'numbers'}")
    return raw.astype(dtype, copy=False)


def _feature_matrix(X: np.ndarray, n_read: int) -> np.ndarray:
    """X as C-contiguous float64 (each tree walk reads it flat), refused
    unless it is 2-D with at least the n_read columns a model reads."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"a feature matrix is 2-D (rows, columns), not {X.ndim}-D")
    if X.shape[1] < n_read:
        raise ValueError(f"the model reads {n_read} feature columns, the matrix has {X.shape[1]}")
    return np.ascontiguousarray(X)


def _distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One row index per distinct row of X, and each row's position among
    them: X[first][inverse] equals X row for row (-0.0 and 0.0 are equal,
    as they are to a split).  Scoring X[first] and taking [inverse] gives
    the scores of X whenever a row's score depends only on that row.  The
    columns are sorted as contiguous rows of X.T and compared one sorted
    column at a time."""
    n, d = X.shape
    columns = X.T.copy()
    order = np.lexsort(columns) if d else np.arange(n)
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for column in columns:
        ranked = column.take(order)
        new[1:] |= ranked[1:] != ranked[:-1]
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


# The first pass after which `_TreeArrays.apply` drops rows on a leaf.
_SHRINK_FROM = 16

# A tree document's fields, in document order, with their dtypes.
_TREE_FIELDS = dict(
    feature=np.int64, threshold=np.float64, left=np.int64, right=np.int64, value=np.float64
)


class _TreeArrays:
    """Flat binary-tree storage: node i splits on feature[i] (or is a
    leaf when feature[i] < 0) at threshold[i]; value[i] is the leaf
    payload (class distribution or regression weight).  Every node but
    the root is the child of exactly one node, numbered after it."""

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
        depths, self._walk = _tree_walks(self.feature, self.left, self.right,
                                         np.array([len(self.feature)]))
        self.depth = int(depths[0])
        # The feature columns a row needs: one past the largest split feature.
        self.n_read = int(self.feature.max(initial=-1)) + 1

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row.  A pass moves every row down one
        level, and a row on a leaf stays there, so `depth` passes of a
        fixed handful of gathers take every row to its leaf.  Rows on a
        leaf are dropped only after passes 16, 32, 64, ...: a tree of
        depth 16 or less never selects rows, and in a deeper one a row
        that stops at level L is carried for fewer than 2L passes."""
        feature, left, right = self._walk
        n, d = X.shape
        flat = X.reshape(-1)
        rows = np.arange(n)
        at = rows * d
        node = np.zeros(n, dtype=np.int64)
        leaf = np.empty(n, dtype=np.int64)
        for level in range(1, self.depth + 1):
            go = flat.take(at + feature.take(node)) <= self.threshold.take(node)
            node = np.where(go, left.take(node), right.take(node))
            if level >= _SHRINK_FROM and level & (level - 1) == 0:
                leaf[rows] = node
                inner = (self.feature.take(node) >= 0).nonzero()[0]
                rows, at, node = rows.take(inner), at.take(inner), node.take(inner)
        if len(rows) == n:
            return node
        leaf[rows] = node
        return leaf

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        return self.value.take(self.apply(X), axis=0)

    def to_json_obj(self) -> dict[str, Any]:
        return {name: np.asarray(getattr(self, name)).tolist() for name in _TREE_FIELDS}

    @classmethod
    def from_json_objs(cls, objs: Sequence[Any], width: int) -> list["_TreeArrays"]:
        """Trees from tree documents, each with one entry per node in every
        field and `width` leaf values per node.  Each field is read once for
        all the trees, and their links are checked and indexed together;
        when that fails, the documents are checked one by one only to word
        the first bad one's error."""
        if not objs:
            return []
        joined = _joined_tree_fields(objs, width)
        walks = None if joined is None else _tree_walks(
            joined[0]["feature"], joined[0]["left"], joined[0]["right"], joined[1])
        if walks is None:
            for obj in objs:
                _check_tree(obj, width)
            raise AssertionError("tree documents that read one by one did not read together")
        (fields, sizes), (depths, walk) = joined, walks
        stops = np.cumsum(sizes).tolist()
        n_reads = np.maximum.reduceat(fields["feature"], [0] + stops[:-1]) + 1
        trees = []
        for depth, n_read, lo, hi in zip(depths.tolist(), n_reads.tolist(), [0] + stops, stops):
            tree = cls(width)
            for name in _TREE_FIELDS:
                setattr(tree, name, fields[name][lo:hi])
            tree.depth, tree.n_read, tree._walk = depth, n_read, tuple(a[lo:hi] for a in walk)
            trees.append(tree)
        return trees


def _joined_tree_fields(objs: Sequence[Any],
                        width: int) -> tuple[dict[str, np.ndarray], np.ndarray] | None:
    """The fields of tree documents laid end to end, as `_numbers` reads
    them, and each tree's node count; None unless every document is an
    object whose fields hold one entry per node and `width` leaf values
    per node."""
    if not all(isinstance(obj, dict) and obj.keys() >= _TREE_FIELDS.keys() for obj in objs):
        return None
    try:
        sizes = [len(obj["feature"]) for obj in objs]
        if any(len(obj[name]) != n for name in _TREE_FIELDS for obj, n in zip(objs, sizes)):
            return None
        fields = {name: _numbers(list(chain.from_iterable(obj[name] for obj in objs)), dtype, name)
                  for name, dtype in _TREE_FIELDS.items()}
    except (TypeError, ValueError):
        return None
    n = sum(sizes)
    if [a.shape for a in fields.values()] != [(n,)] * 4 + [(n, width)]:
        return None
    return fields, np.array(sizes)


def _check_tree(obj: Any, width: int) -> None:
    """Raise the ValueError that the tree document obj breaks, if any."""
    _require_fields(obj, _TREE_FIELDS, "tree")
    fields = {name: _numbers(obj[name], dtype, f"tree field {name!r}")
              for name, dtype in _TREE_FIELDS.items()}
    n = len(fields["feature"]) if fields["feature"].ndim == 1 else 0
    shapes = {name: a.shape for name, a in fields.items()}
    if n == 0 or list(shapes.values()) != [(n,)] * 4 + [(n, width)]:
        raise ValueError(f"tree fields need one entry and {width} leaf values per node: {shapes}")
    if _tree_walks(fields["feature"], fields["left"], fields["right"], np.array([n])) is None:
        raise ValueError("tree node links must point past their parent, stay in range "
                         "and reach every node but the root once")


def _tree_walks(feature: np.ndarray, left: np.ndarray, right: np.ndarray,
                sizes: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]] | None:
    """For trees laid end to end, `sizes` nodes each, whose links count
    from their own first node: each tree's depth, and what
    `_TreeArrays.apply` walks, laid out like the fields: each node's
    feature and children, where a leaf reads feature 0 and leads back to
    itself.  None unless the links make each a tree: two per internal
    node, each past its parent and inside its tree, and every node but a
    tree's first the child of one node, which also rules out cycles and
    trees of no nodes.

    The depths come from each node's parent by pointer doubling: every
    round adds a node's distance to its current ancestor and moves on to
    that ancestor's, so a tree of depth D takes about log2(D) rounds."""
    n, first = len(feature), np.cumsum(sizes) - sizes
    root = np.repeat(first, sizes)  # each node's tree's first node
    node = np.arange(n)
    internal = (feature >= 0).nonzero()[0]
    base, stop = root.take(internal), np.repeat(first + sizes, sizes).take(internal)
    left, right = left.take(internal) + base, right.take(internal) + base
    up = node.copy()
    linked = 2 * len(internal) == n - len(sizes) and bool(
        ((left > internal) & (right > internal) & (left < stop) & (right < stop)).all())
    if linked:
        up[left] = internal
        up[right] = internal
    if not linked or np.count_nonzero(up < node) != n - len(sizes):
        return None
    local = node - root
    depth = np.minimum(local, 1)
    while np.count_nonzero(up != root):
        depth += depth.take(up)
        up = up.take(up)
    walk_left, walk_right = local.copy(), local.copy()
    walk_left[internal] = left - base
    walk_right[internal] = right - base
    return np.maximum.reduceat(depth, first), (np.maximum(feature, 0), walk_left, walk_right)


def _safe_threshold(lo: float, hi: float) -> float:
    """Midpoint, pulled back to the left value if rounding reaches hi or
    lo is -inf (the midpoint is then NaN), so `x <= threshold` always
    reproduces the fit-time partition."""
    mid = lo + (hi - lo) / 2.0
    return mid if mid < hi else lo


class _Gini:
    """Classification criterion: leaves hold class distributions, a pure
    node stays a leaf, and a split scores the weighted Gini decrease.  The
    node state is its class counts and its rows' classes."""

    floor = -np.inf

    def __init__(self, y: np.ndarray, n_classes: int) -> None:
        self.y = y
        self.width = n_classes
        # One indicator row per class but the last, whose left counts are
        # the candidate position minus the others'.
        self.indicators = (y == np.arange(n_classes - 1)[:, None]).astype(np.int64)

    def node(self, idx: np.ndarray) -> tuple[np.ndarray, bool, Any]:
        labels = self.y.take(idx)
        counts = np.bincount(labels, minlength=self.width)
        return counts / len(idx), counts.max() < len(idx), (counts, labels)

    def scores(self, idx: np.ndarray, order: np.ndarray, at: np.ndarray, state: Any) -> np.ndarray:
        # Minimizing weighted Gini is maximizing the sum of squared
        # class counts over each side's size.  The counts are integers,
        # so the sums of squares are exact in any order.
        counts, _ = state
        m = len(idx)
        cand = at % m + 1
        left = right = 0
        rest = cand
        for c, indicator in enumerate(self.indicators):
            lc = indicator.take(idx).take(order).cumsum(axis=1).take(at)
            rest = rest - lc
            rc = counts[c] - lc
            left = left + lc * lc
            right = right + rc * rc
        rc = counts[-1] - rest
        left = left + rest * rest
        right = right + rc * rc
        return self._divide(left, right, cand, m)

    @staticmethod
    def _divide(left: np.ndarray, right: np.ndarray, sizes: np.ndarray, m: int) -> np.ndarray:
        """Each side's integer sum of squared class counts over its size;
        `sizes` holds the left sizes."""
        ln = sizes.astype(np.float64)
        return left / ln + right / (m - ln)

    def counted_scores(self, v: np.ndarray, ranks: int, lo: int, hi: int,
                       state: Any) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scores of a node's candidate splits from class counts per rank
        code, with no sort: v holds the node's (q, m) codes of q features,
        each below `ranks`.  One bincount of code * classes + class, each
        feature offset past the one before, and a cumulative sum over the
        codes give the left class counts after every code.  A candidate is
        a code present in the node whose left size lies in [lo, hi]; these
        are the positions where the sorted codes change.  It is numbered
        feat * ranks + code, ascending.  Returns the scores, those numbers
        and the left sizes."""
        counts, labels = state
        q, m = v.shape
        width = self.width
        key = np.multiply(v, width, dtype=np.intp)
        key += labels
        key += np.arange(0, q * ranks * width, ranks * width)[:, None]
        left = np.bincount(key.ravel(), minlength=q * ranks * width).reshape(q, ranks, width)
        left = left.cumsum(axis=1).reshape(q * ranks, width)
        sizes = left.sum(axis=1)
        # A code is present in the node where the left size grows.
        present = np.diff(sizes.reshape(q, ranks), axis=1, prepend=0).ravel() > 0
        at = np.flatnonzero(present & (sizes >= lo) & (sizes <= hi))
        lc = left.take(at, axis=0)
        rc = counts - lc
        sizes = sizes.take(at)
        return self._divide((lc * lc).sum(axis=1), (rc * rc).sum(axis=1), sizes, m), at, sizes


class _Newton:
    """Regression criterion on gradient/hessian pairs: leaves hold the
    Newton step -G/(H + lambda) and splits maximize the usual gain.  The
    node state is its totals (G, H)."""

    floor = 1e-12
    width = 1

    def __init__(self, g: np.ndarray, h: np.ndarray, reg_lambda: float) -> None:
        self.g = g
        self.h = h
        # g and h as one complex array, so one gather and one cumsum give
        # both prefix sums.  Complex addition adds the real and imaginary
        # parts separately, so each part is the float cumsum bit for bit;
        # the parts are written in place because g + 1j*h would add 0.0
        # to g and turn -0.0 into 0.0.
        self.gh = np.empty(len(g), dtype=np.complex128)
        self.gh.real = g
        self.gh.imag = h
        self.reg_lambda = reg_lambda

    def node(self, idx: np.ndarray) -> tuple[np.ndarray, bool, Any]:
        # Node totals in the node's own row order, as two float sums: a
        # cumsum's last element, or a sum over the complex array, may
        # round differently.
        G = self.g.take(idx).sum()
        H = self.h.take(idx).sum()
        return np.array([-G / (H + self.reg_lambda)]), True, (G, H)

    def scores(self, idx: np.ndarray, order: np.ndarray, at: np.ndarray, totals: Any) -> np.ndarray:
        G, H = totals
        lam = self.reg_lambda
        ghl = self.gh.take(idx).take(order).cumsum(axis=1).take(at)
        gl = ghl.real
        hl = ghl.imag
        gr = G - gl
        hr = H - hl
        return gl * gl / (hl + lam) + gr * gr / (hr + lam) - G * G / (H + lam)


def _reject_nan(X: np.ndarray) -> None:
    """Fitting refuses NaN features: NaN orders against nothing, so no
    split could place it.  The minimum is NaN exactly when X holds a NaN;
    the full mask is built only to name the column."""
    if np.isnan(X.min(initial=np.inf)):
        raise ValueError(f"feature column {int(np.argmax(np.isnan(X).any(axis=0)))} contains NaN")


def _rank_codes(X: np.ndarray) -> np.ndarray:
    """Every feature column of X as integer ranks, column-major:
    codes[f, i] is the rank of X[i, f] among the column's distinct
    values, in the smallest dtype that holds every column's ranks.
    Ranks keep order and ties exactly (-0.0 and 0.0 share a rank), so a
    stable sort of a node's codes is the stable sort of its values.

    A column of whole numbers over a range shorter than the column (every
    CAN id and byte column; `core._short_whole_range`) is ranked in linear
    time: a presence table over the range, its cumulative sum, and one
    take.  Any other column is ranked by np.unique."""
    _reject_nan(X)
    n, d = X.shape
    ranks = []
    distinct = 0
    for f in range(d):
        column = np.ascontiguousarray(X[:, f])  # read several times below
        whole = _short_whole_range(column)
        if whole is None:
            values, rank = np.unique(column, return_inverse=True)
            count = len(values)
        else:
            lo, hi, ints = whole
            offset = ints - lo
            present = np.zeros(hi - lo + 1, dtype=bool)
            present[offset] = True
            rank_of = present.cumsum() - 1
            rank, count = rank_of.take(offset), int(rank_of[-1]) + 1
        ranks.append(rank)
        distinct = max(distinct, count)
    dtype = np.uint8 if distinct <= 2**8 else np.uint16 if distinct <= 2**16 else np.int64
    return np.array(ranks, dtype=dtype).reshape(d, n)


# The split search scores a node's features in groups of about this many
# cells (features x node rows), so that a group's sort orders, prefix sums
# and scores stay in cache.
_GROUP_CELLS = 65_536

# A node whose trees are all `_Gini` counts classes per rank code instead of
# sorting when the count table of its widest feature, ranks x classes cells,
# is at most this many times its row count.
_COUNT_CELLS_PER_ROW = 1


def _grow_trees(
    X: np.ndarray,
    codes: np.ndarray,
    criteria: Sequence[_Gini | _Newton],
    max_depth: int | None,
    min_leaf: int,
    rows: np.ndarray | None = None,
    cols: np.ndarray | None = None,
) -> tuple[list[_TreeArrays], np.ndarray]:
    """One greedy binary tree per criterion over the same rows, grown
    together from an explicit stack, so depth is bounded only by
    max_depth.  Each tree's node ids are its own preorder, left child
    first.  A split must beat the criterion's floor; ties go to the
    lowest feature, then the lowest threshold.  Also returns leaves,
    (trees, rows of X): leaves[k, i] is tree k's leaf for row i of X, for
    each row the trees grew from.

    The root holds `rows`, indices into X that may repeat (a bootstrap
    sample), or every row of X.  Tree feature f is code row f of `codes`
    and column cols[f] of X (column f without cols); the criteria are
    indexed by X's rows.  So a forest grows every tree over one encoding,
    one X and one criterion, with no per-tree copies.

    A stack entry is a row set with the group of trees that have a node
    of exactly those rows; each feature is searched once for the group and
    each tree scores it with its own criterion.  Trees that choose the
    same split share the children.  The search reads `codes` (the
    `_rank_codes` of X, or a row and column subset of them, which stays
    order-preserving); X is read only for the two values on either side
    of a chosen split.

    A node of m rows searches its features in groups of q =
    max(1, _GROUP_CELLS // m).  A group's codes are gathered as one (q, m)
    array.  When every tree of the node is a `_Gini` one and ranks x
    classes <= _COUNT_CELLS_PER_ROW * m (ranks: the widest feature's rank
    count), each tree scores the group from its class counts per code
    (`_Gini.counted_scores`), with no sort.  Otherwise each row of the
    group is stably sorted; `order[j]` holds the node positions of feature
    f0 + j in sorted order.  Every candidate of the group is found by one
    compare, and each searching tree scores all of them in one
    `criterion.scores(idx, order, at, state)` call, where `at` holds the
    candidates' flat positions feat * m + i - 1 in (q, m) (the last row of
    the left side), ascending.  Either way the first argmax is the lowest
    feature, then the lowest threshold, of the group; a later group must
    beat it strictly.  The children of a split list the node's rows in
    the stable sort order of the chosen feature, whichever search found
    it, so both give the same trees."""
    trees = [_TreeArrays(value_width=c.width) for c in criteria]
    leaves = np.empty((len(criteria), len(X)), dtype=np.int64)
    columns = range(X.shape[1]) if cols is None else cols
    # Every code is below `ranks`; a node of Gini trees counts per code
    # when `count_cells` is small enough for it.
    gini = all(isinstance(c, _Gini) for c in criteria)
    ranks = int(codes.max(initial=0)) + 1
    count_cells = ranks * max((c.width for c in criteria), default=0)
    # (rows, depth, [(tree, parent node, child array the parent links through)])
    stack: list[tuple[np.ndarray, int, list[tuple[int, int, list[int]]]]] = [
        (np.arange(len(X), dtype=np.int64) if rows is None else rows, 0,
         [(k, -1, t.left) for k, t in enumerate(trees)])
    ]
    while stack:
        idx, depth, group = stack.pop()
        m = len(idx)
        stop = m < 2 * min_leaf or (max_depth is not None and depth >= max_depth)
        # (tree, node, criterion state, best score, best (feature, node sort order or None, position))
        searching: list[list[Any]] = []
        for k, parent, link in group:
            value, may_split, state = criteria[k].node(idx)
            node = trees[k].add_node(value)
            if parent >= 0:
                link[parent] = node
            if may_split and not stop:
                searching.append([k, node, state, criteria[k].floor, None])
            else:
                leaves[k, idx] = node
        if not searching:
            continue
        # A candidate splits a feature's sorted rows after row i - 1, where
        # the codes change, and leaves both sides at least min_leaf rows.
        lo, hi = min_leaf, m - min_leaf
        count = gini and count_cells <= _COUNT_CELLS_PER_ROW * m
        size = max(1, _GROUP_CELLS // m)
        for f0 in range(0, len(codes), size):
            v = codes[f0 : f0 + size].take(idx, axis=1)
            if count:
                for entry in searching:
                    score, at, sizes = criteria[entry[0]].counted_scores(v, ranks, lo, hi, entry[2])
                    if len(at) == 0:
                        continue
                    j = int(score.argmax())
                    if score[j] > entry[3]:
                        entry[3] = float(score[j])
                        entry[4] = (f0 + int(at[j]) // ranks, None, int(sizes[j]))
                continue
            order = v.argsort(axis=1, kind="stable")
            sv = v.take(order + np.arange(0, v.size, m)[:, None])
            last_left = np.zeros(v.shape, dtype=bool)
            np.greater(sv[:, lo : hi + 1], sv[:, lo - 1 : hi], out=last_left[:, lo - 1 : hi])
            at = np.flatnonzero(last_left)
            if len(at) == 0:
                continue
            for entry in searching:
                score = criteria[entry[0]].scores(idx, order, at, entry[2])
                j = int(score.argmax())
                if score[j] > entry[3]:
                    entry[3] = float(score[j])
                    feat, i = divmod(int(at[j]), m)
                    entry[4] = (f0 + feat, order[feat], i + 1)
        # One pair of children per distinct (feature, position) choice.
        children: dict[tuple[int, int], tuple[np.ndarray | None, list[tuple[int, int]]]] = {}
        for k, node, _, _, best in searching:
            if best is None:
                leaves[k, idx] = node
                continue
            f, order_f, i = best
            children.setdefault((f, i), (order_f, []))[1].append((k, node))
        for (f, i), (order_f, split) in children.items():
            if order_f is None:
                order_f = codes[f].take(idx).argsort(kind="stable")
            node_rows = idx.take(order_f)
            column = columns[f]
            threshold = _safe_threshold(float(X[node_rows[i - 1], column]),
                                        float(X[node_rows[i], column]))
            for k, node in split:
                trees[k].feature[node] = f
                trees[k].threshold[node] = threshold
            stack.append((node_rows[i:], depth + 1, [(k, node, trees[k].right) for k, node in split]))
            stack.append((node_rows[:i], depth + 1, [(k, node, trees[k].left) for k, node in split]))
    for tree in trees:
        tree.finalize()
    return trees, leaves


class Detector:
    """Shared surface: fit once, then predict probability vectors.

    A model class declares `params`, its hyperparameters in document order
    (constructor arguments and attributes of the same names), and `state`,
    its fitted fields, which its `_state_json` writes and `_load_state`
    reads; the descriptor and the model document are built from them.  It
    scores the distinct rows `predict_scores` hands its `_scores`."""

    kind = "base"
    params: tuple[str, ...] = ()
    state: tuple[str, ...] = ()
    n_read = 0  # feature columns a row needs; a kind with trees reads it from them

    def __init__(self, **params: tuple[Any, str]) -> None:
        """Store each hyperparameter, given as name=(value, kind), as the
        plain value `core._read_field` reads."""
        for name, (value, kind) in params.items():
            setattr(self, name, _read_field(f"{self.kind} model", name, value, kind))
        self.classes: tuple[str, ...] = ()
        self.latency_us: float | None = None
        self._fitted = False

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{self.kind} model is not fitted")

    def _fit_data(
        self, X: np.ndarray, y: np.ndarray, classes: Sequence[str] | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """X and y as arrays; sets the class list, by default "0".."max(y)".
        y must hold one class index per row of X: an integer from 0, and
        below the number of classes when they are given."""
        X = np.asarray(X, dtype=np.float64)
        if len(X) == 0:
            raise ValueError("cannot fit on an empty set")
        labels = np.asarray(y)
        if labels.ndim != 1 or len(labels) != len(X):
            raise ValueError(
                f"labels must be 1-D with one per row: X has {len(X)} rows, y has shape {labels.shape}"
            )
        y = _class_indices(labels, None if classes is None else len(classes))
        self.classes = tuple(classes) if classes is not None else tuple(map(str, range(y.max() + 1)))
        return X, y

    def _distinct(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rows of X, as the matrix the model reads, and each
        row's position among them: a row's score depends only on that row."""
        self._check_fitted()
        X = _feature_matrix(X, self.n_read)
        first, inverse = _distinct_rows(X)
        return X[first], inverse

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """One probability vector per row of X; each distinct row is scored once."""
        distinct, inverse = self._distinct(X)
        return self._scores(distinct)[inverse]

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_scores(X), axis=1)

    def _params_json(self) -> dict[str, Any]:
        return {name: copy.deepcopy(getattr(self, name)) for name in self.params}

    def descriptor(self) -> dict[str, Any]:
        return {"kind": self.kind, **self._params_json(), "classes": list(self.classes)}

    def to_json_obj(self) -> dict[str, Any]:
        self._check_fitted()
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": self.kind,
            "classes": list(self.classes),
            **self._params_json(),
            "latency_us": self.latency_us,
            **self._state_json(),
        }

    @classmethod
    def _from_params(cls, obj: Any, *header: str) -> "Detector":
        """The unfitted model of a document that holds every declared field."""
        _require_fields(obj, (*header, *cls.params, *cls.state), f"{cls.kind} model")
        try:
            model = cls(**{name: obj[name] for name in cls.params})
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{cls.kind} model has a bad hyperparameter: {exc}") from None
        model.latency_us = _read_field(f"{cls.kind} model", "latency_us", obj.get("latency_us"),
                                       "number or null")
        return model

    @classmethod
    def from_json_obj(cls, obj: Any) -> "Detector":
        model = cls._from_params(obj, "classes")
        model.classes = _read_field(f"{cls.kind} model", "classes", obj["classes"], "list of text")
        model._load_state(obj)
        model._fitted = True
        return model


class DecisionTree(Detector):
    """CART classifier: greedy Gini splits, deterministic tie-breaks."""

    kind = "tree"
    params = ("max_depth", "min_leaf")
    state = ("tree",)

    def __init__(self, max_depth: int | None = None, min_leaf: int = 1) -> None:
        super().__init__(max_depth=(max_depth, "integer from 1 or null"),
                         min_leaf=(min_leaf, "integer from 1"))
        self._tree: _TreeArrays | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, classes: Sequence[str] | None = None) -> "DecisionTree":
        X, y = self._fit_data(X, y, classes)
        (self._tree,), _ = _grow_trees(
            X, _rank_codes(X), [_Gini(y, len(self.classes))], self.max_depth, self.min_leaf
        )
        self._fitted = True
        return self

    n_read = property(lambda self: self._tree.n_read)

    def _scores(self, X: np.ndarray) -> np.ndarray:
        return self._tree.leaf_values(X)

    @property
    def n_nodes(self) -> int:
        self._check_fitted()
        return len(self._tree.feature)

    @property
    def depth(self) -> int:
        self._check_fitted()
        return self._tree.depth

    def _state_json(self) -> dict[str, Any]:
        return {"tree": self._tree.to_json_obj()}

    def _load_state(self, obj: dict[str, Any]) -> None:
        self._tree = _TreeArrays.from_json_objs([obj["tree"]], len(self.classes))[0]


class RandomForest(Detector):
    """Bagged CART trees; every tree sees a bootstrap sample and a fixed
    random feature subset, and the forest averages leaf distributions."""

    kind = "forest"
    params = ("n_trees", "max_depth", "min_leaf", "bootstrap", "feature_frac", "seed")
    state = ("trees", "tree_features")

    def __init__(
        self,
        n_trees: int = 100,
        max_depth: int | None = 12,
        min_leaf: int = 1,
        bootstrap: bool = True,
        feature_frac: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(n_trees=(n_trees, "integer from 1"),
                         max_depth=(max_depth, "integer from 1 or null"),
                         min_leaf=(min_leaf, "integer from 1"), bootstrap=(bootstrap, "flag"),
                         feature_frac=(feature_frac, "number in (0, 1]"), seed=(seed, "seed"))
        self._trees: list[_TreeArrays] = []
        self._feats: list[np.ndarray] = []

    def fit(self, X: np.ndarray, y: np.ndarray, classes: Sequence[str] | None = None) -> "RandomForest":
        X, y = self._fit_data(X, y, classes)
        n, d = X.shape
        n_feats = max(1, int(round(self.feature_frac * d)))
        codes = _rank_codes(X)
        criterion = _Gini(y, len(self.classes))
        self._trees = []
        self._feats = []
        for t in range(self.n_trees):
            rng = np.random.default_rng([self.seed, t])
            rows = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            cols = np.sort(rng.permutation(d)[:n_feats])
            (tree,), _ = _grow_trees(
                X,
                codes if n_feats == d else codes[cols],
                [criterion],
                self.max_depth,
                self.min_leaf,
                rows,
                cols,
            )
            self._trees.append(tree)
            self._feats.append(cols)
        self._fitted = True
        return self

    n_read = property(lambda self: max(int(cols.max()) for cols in self._feats) + 1)

    def _scores(self, X: np.ndarray) -> np.ndarray:
        total = np.zeros((len(X), len(self.classes)))
        for tree, cols in zip(self._trees, self._feats):
            total += tree.leaf_values(X[:, cols])
        return total / len(self._trees)

    def _state_json(self) -> dict[str, Any]:
        return {
            "trees": [t.to_json_obj() for t in self._trees],
            "tree_features": [f.tolist() for f in self._feats],
        }

    def _load_state(self, obj: dict[str, Any]) -> None:
        for name in self.state:
            if not isinstance(obj[name], list) or len(obj[name]) != self.n_trees:
                raise ValueError(f"forest {name} must have n_trees = {self.n_trees!r} entries")
        self._trees = _TreeArrays.from_json_objs(obj["trees"], len(self.classes))
        self._feats = [_numbers(f, np.int64, "forest tree_features") for f in obj["tree_features"]]
        for tree, cols in zip(self._trees, self._feats):
            if cols.ndim != 1 or cols.size == 0 or cols.min() < 0 or tree.n_read > cols.size:
                raise ValueError("forest tree_features must be columns >= 0 that cover each tree")


def _softmax(raw: np.ndarray) -> np.ndarray:
    shifted = raw - raw.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class GradientBoosting(Detector):
    """Additive regression trees on softmax cross-entropy gradients,
    one tree per class per round, Newton leaf weights."""

    kind = "gbdt"
    params = ("n_rounds", "learning_rate", "max_depth", "min_leaf", "reg_lambda", "subsample", "seed")
    state = ("rounds",)

    def __init__(
        self,
        n_rounds: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 6,
        min_leaf: int = 1,
        reg_lambda: float = 1.0,
        subsample: float = 1.0,
        seed: int = 0,
    ) -> None:
        # A negative or NaN lambda gives infinite or NaN leaves and scores,
        # and a NaN score would hide every other split of its feature group.
        super().__init__(n_rounds=(n_rounds, "integer from 1"),
                         learning_rate=(learning_rate, "number in (0, 1]"),
                         max_depth=(max_depth, "integer from 1 or null"),
                         min_leaf=(min_leaf, "integer from 1"),
                         reg_lambda=(reg_lambda, "number in [0, inf)"),
                         subsample=(subsample, "number in (0, 1]"), seed=(seed, "seed"))
        self._rounds: list[list[_TreeArrays]] = []

    def fit(self, X: np.ndarray, y: np.ndarray, classes: Sequence[str] | None = None) -> "GradientBoosting":
        X, y = self._fit_data(X, y, classes)
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
                # Every row: a slice, so X and codes are not copied.
                rows = slice(None)
            criteria = [
                _Newton(
                    p[rows, c] - onehot[rows, c],
                    np.maximum(p[rows, c] * (1.0 - p[rows, c]), 1e-12),
                    self.reg_lambda,
                )
                for c in range(n_classes)
            ]
            round_trees, leaves = _grow_trees(
                X[rows], codes[:, rows], criteria, self.max_depth, self.min_leaf
            )
            # The grower's leaves are where the sampled rows land; a
            # threshold reproduces its fit-time partition, so only the rows
            # left out are walked down the tree.
            left_out = np.ones(n, dtype=bool)
            left_out[rows] = False
            X_out = X[left_out]
            step = np.empty(n)
            for c, tree in enumerate(round_trees):
                step[rows] = tree.value[leaves[c], 0]
                step[left_out] = tree.leaf_values(X_out)[:, 0]
                raw[:, c] += self.learning_rate * step
            self._rounds.append(round_trees)
        self._fitted = True
        return self

    n_read = property(lambda self: max(tree.n_read for rt in self._rounds for tree in rt))

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        """The learning-rate-weighted sum of every round's class trees, before softmax."""
        self._check_fitted()
        X = _feature_matrix(X, self.n_read)
        raw = np.zeros((len(X), len(self.classes)))
        for round_trees in self._rounds:
            for c, tree in enumerate(round_trees):
                raw[:, c] += self.learning_rate * tree.leaf_values(X)[:, 0]
        return raw

    def _scores(self, X: np.ndarray) -> np.ndarray:
        return _softmax(self.raw_scores(X))

    def _state_json(self) -> dict[str, Any]:
        return {"rounds": [[t.to_json_obj() for t in rt] for rt in self._rounds]}

    def _load_state(self, obj: dict[str, Any]) -> None:
        rounds = obj["rounds"]
        if not isinstance(rounds, list) or len(rounds) != self.n_rounds or any(
            not isinstance(rt, list) or len(rt) != len(self.classes) for rt in rounds
        ):
            raise ValueError("gbdt rounds must be n_rounds lists of one tree per class")
        trees = iter(_TreeArrays.from_json_objs([t for rt in rounds for t in rt], 1))
        self._rounds = [[next(trees) for _ in rt] for rt in rounds]


_FREQUENCY_STATS = ("mean_us", "std_us", "threshold_us", "count")


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
    params = ("k_sigma",)
    state = ("ids",)

    def __init__(self, k_sigma: float = 4.0) -> None:
        super().__init__(k_sigma=(k_sigma, "number in [0, inf)"))
        self.classes = ("Normal", "Attack")
        self.stats: dict[int, dict[str, float]] = {}

    def fit(self, ambient: TrafficLog | Iterable[CanFrame | LabeledFrame]) -> "FrequencyDetector":
        """Learn gap statistics from a log, or from time-ordered frames."""
        log = ambient if isinstance(ambient, TrafficLog) else TrafficLog(ambient)
        # A stable sort by id keeps each id's rows in time order.
        gaps = np.diff(log.ts_us[np.argsort(log.can_id, kind="stable")]).astype(np.float64)
        ids, counts = np.unique(log.can_id, return_counts=True)
        self.stats = {}
        for can_id, end, count in zip(ids.tolist(), np.cumsum(counts).tolist(), counts.tolist()):
            if count < 3:
                continue
            run = gaps[end - count:end - 1]
            mean = float(run.mean())
            std = float(run.std(ddof=1))
            self.stats[can_id] = dict(
                mean_us=mean, std_us=std, threshold_us=mean - self.k_sigma * std, count=count
            )
        if not self.stats:
            raise ValueError("no id with at least 3 ambient observations")
        self._fitted = True
        return self

    def predict_frames(self, frames: TrafficLog | Iterable[CanFrame | LabeledFrame]) -> np.ndarray:
        """1 per frame flagged as attack, 0 otherwise, in frame order.

        Frames given as an iterable must be in time order."""
        self._check_fitted()
        log = frames if isinstance(frames, TrafficLog) else TrafficLog(frames)
        order = np.argsort(log.can_id, kind="stable")
        ids = log.can_id[order].astype(np.int64)
        known = np.array(sorted(self.stats), dtype=np.int64)
        threshold = np.array([self.stats[i]["threshold_us"] for i in known.tolist()] + [0.0])
        # Gaps to the previous frame of the same id; an id's first frame
        # has none, and an id without statistics is always flagged.
        first = np.diff(ids, prepend=-1) != 0
        gap = np.diff(log.ts_us[order], prepend=0)
        flags = np.empty(len(log), dtype=np.int64)
        late = gap < threshold[np.searchsorted(known, ids)]
        flags[order] = ~np.isin(ids, known) | (~first & late)
        return flags

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError(
            "the frequency baseline scores traffic logs, not feature matrices; "
            "use predict_frames"
        )

    def descriptor(self) -> dict[str, Any]:
        desc = super().descriptor()
        del desc["classes"]
        desc["n_ids"] = len(self.stats)
        return desc

    def to_json_obj(self) -> dict[str, Any]:
        doc = super().to_json_obj()
        del doc["classes"]
        return doc

    @classmethod
    def from_json_obj(cls, obj: Any) -> "FrequencyDetector":
        model = cls._from_params(obj)
        model._load_state(obj)
        model._fitted = True
        return model

    def _state_json(self) -> dict[str, Any]:
        return {"ids": {f"{can_id:X}": dict(stat) for can_id, stat in sorted(self.stats.items())}}

    def _load_state(self, obj: dict[str, Any]) -> None:
        self.stats = {}
        for key, stat in _read_field("frequency model", "ids", obj["ids"], "object").items():
            where = f"frequency id {key}"
            _require_fields(stat, _FREQUENCY_STATS, where)
            can_id = _read_field("frequency model", "ids", key, "id")
            if can_id in self.stats:
                raise ValueError(f"frequency model field 'ids': {key!r} repeats id {can_id:X}")
            self.stats[can_id] = {
                name: _read_field(where, name, stat[name], "number") for name in _FREQUENCY_STATS}


def fit_decision_tree(
    X: np.ndarray, y: np.ndarray, classes: Sequence[str] | None = None, **params: Any
) -> DecisionTree:
    return DecisionTree(**params).fit(X, y, classes)


def fit_random_forest(
    X: np.ndarray, y: np.ndarray, classes: Sequence[str] | None = None, **params: Any
) -> RandomForest:
    return RandomForest(**params).fit(X, y, classes)


def fit_gbdt(
    X: np.ndarray, y: np.ndarray, classes: Sequence[str] | None = None, **params: Any
) -> GradientBoosting:
    return GradientBoosting(**params).fit(X, y, classes)


def fit_frequency_detector(
    ambient: TrafficLog | Iterable[CanFrame | LabeledFrame], **params: Any
) -> FrequencyDetector:
    return FrequencyDetector(**params).fit(ambient)


def measure_latency(model: Detector, X: np.ndarray, repeats: int = 3) -> float:
    """Median per-sample predict wall time in microseconds; stored on
    the model for speed tie-breaks.  The timed call is `predict_scores`,
    which for the tree kinds scores each distinct row of X once, so the
    figure falls as X repeats rows."""
    repeats = _read_field("latency", "repeats", repeats, "integer from 1")
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


def model_from_json_obj(obj: Any) -> Detector:
    """The model a document describes; a malformed document raises ValueError."""
    _require_fields(obj, (), "model document")
    version = obj.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    return _MODEL_KINDS[kind].from_json_obj(obj)


def save_model(model: Detector, stream: IO[str]) -> None:
    # json.dumps, unlike json.dump, encodes with json's C encoder: same text.
    stream.write(json.dumps(model.to_json_obj()) + "\n")


def load_model(stream: IO[str]) -> Detector:
    return model_from_json_obj(json.load(stream))
