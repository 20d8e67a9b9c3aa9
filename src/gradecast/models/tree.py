"""CART-style decision tree classifier on the Gini criterion.

Split search runs on integer histograms.  A ``Grower`` codes one matrix
once: each column's distinct sorted values become consecutive integer codes,
numbered column after column, so one flat code names a (column, value).  A
node's histogram counts its rows per (grade, code).  Within-column cumulative
sums of it give the class counts left of every cut.  A cut may fall only
after a code present at the node, with some of the node's rows to its right;
its threshold is the midpoint of the two adjacent values present at the
node.  The best split maximizes the Gini impurity decrease, scored from
exact integer counts; exact ties are broken by lower feature index, then
lower threshold.  Of the two children, the smaller counts its rows into a
fresh histogram and the larger takes its parent's minus its sibling's, as in
LightGBM (Ke et al., NeurIPS 2017).  The counts are exact integers, so the
tree equals the one a per-node sort of the rows would give.

``fit`` grows one tree on all rows of a matrix.  Leave-one-out folds that
share a transform share one grower (``folds``): fold i grows on every row
but i, from the full histogram minus row i's counts.  A code that only row
i holds counts zero at every node of that tree, so no cut uses it, and
nothing in fold i's tree depends on row i.  A subtree depends only on
its rows and the grower's codes, so a grower keeps every subtree it grows,
keyed by its rows: a fold whose node has the rows of one an earlier fold
grew reuses that subtree and computes no histogram for it.

Nodes grow until pure or until no split strictly reduces weighted impurity;
there is no pruning or depth limit.  Leaf class scores are the training
class proportions at the leaf.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import (N_GRADES, ModelSpec, PredictionOutcome, argmax_lower_grade,
                   check_dim, validate_training_data)

# Splits whose impurity decrease is below this are treated as zero-gain and
# rejected; genuine gains on integer class counts are orders of magnitude
# larger, so only float noise on algebraically zero gains is absorbed.
GAIN_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class _Leaf:
    grade: int
    scores: np.ndarray


@dataclass(frozen=True, eq=False)
class _Split:
    feature: int
    threshold: float
    left: object
    right: object


def _leaf(counts: np.ndarray, n: int) -> _Leaf:
    scores = counts / n
    return _Leaf(argmax_lower_grade(scores), scores)


@dataclass(frozen=True, eq=False)
class DecisionTree:
    root: object
    n_features: int
    warnings: tuple[str, ...] = ()

    def predict(self, x) -> PredictionOutcome:
        x = check_dim(x, self.n_features)
        node = self.root
        while isinstance(node, _Split):
            node = node.left if x[node.feature] <= node.threshold else node.right
        return PredictionOutcome(node.grade, node.scores.copy())


class Grower:
    """Decision trees on the rows of one matrix, or on all its rows but one.

    Holds the value codes of ``X`` and the histogram of all its rows, which
    growing only reads, and every subtree grown so far, which later trees
    reuse.  Every row must pass the training-data checks, a left-out one
    too.
    """

    def __init__(self, X, y):
        X, y = validate_training_data(X, y)
        self.X, self.y = X, y
        n, d = X.shape
        order = np.argsort(X, axis=0, kind="stable")
        sorted_vals = np.take_along_axis(X, order, axis=0)
        first = np.ones((n, d), dtype=bool)               # first of a run of equal values
        first[1:] = sorted_vals[1:] != sorted_vals[:-1]
        codes = np.cumsum(first, axis=0, dtype=np.intp)   # 1 + code within the column
        sizes = codes[-1].copy()                          # distinct values per column
        codes += np.cumsum(sizes) - sizes - 1             # flat code, in sorted order
        self.values = sorted_vals.T[first.T]              # the value of each code
        self.column = np.repeat(np.arange(d), sizes)      # the column of each code
        self.n_codes = self.values.size
        self.bins = np.empty((n, d), dtype=np.intp)
        np.put_along_axis(self.bins, order, codes, axis=0)
        # Flat histogram bin of every entry: its grade's row, then its code.
        self.bins += ((y - 1) * self.n_codes)[:, None]
        self.full = self.histogram(np.arange(n))
        self.subtrees = {}       # rows.tobytes() -> the subtree grown on those rows

    def histogram(self, rows: np.ndarray) -> np.ndarray:
        """Counts of ``rows`` per (grade - 1, code)."""
        return np.bincount(self.bins[rows].ravel(), minlength=N_GRADES * self.n_codes
                           ).reshape(N_GRADES, self.n_codes)

    def tree(self, without: int | None = None) -> DecisionTree:
        """The tree grown on every row, or on every row but ``without``."""
        rows = np.arange(self.y.size)
        if without is not None:
            rows = np.delete(rows, without)
        root = self.subtrees.get(rows.tobytes())
        if root is None:
            hist = self.full.copy()
            if without is not None:
                hist.reshape(-1)[self.bins[without]] -= 1
            root = self._grow(rows, hist)
        return DecisionTree(root, self.X.shape[1])

    def best_split(self, hist: np.ndarray, counts: np.ndarray, n: int):
        """Best (feature, threshold) of a node, or None when no split gains.

        ``hist`` and ``counts`` are the node's histogram and class counts and
        ``n`` its row count.  Maximizing sum(left_counts^2)/n_left +
        sum(right_counts^2)/n_right is equivalent to maximizing the Gini
        decrease at fixed parent counts.
        """
        grades = np.flatnonzero(counts)
        at_node = np.flatnonzero(hist.any(axis=0))      # codes present, ascending
        # Every row holds one code per column, so a grade's count in the
        # columns before a code's own is that column's index times the count.
        left = np.cumsum(hist.take(at_node, axis=1)[grades], axis=1)
        left -= self.column[at_node] * counts[grades][:, None]
        n_left = left.sum(axis=0)
        cuts = np.flatnonzero(n_left < n)               # not its column's last value
        if cuts.size == 0:
            return None
        left, n_left = left.take(cuts, axis=1), n_left[cuts]
        right = counts[grades][:, None] - left
        # Exact integer sums of squared class counts on each side of every cut.
        metric = (np.einsum("gk,gk->k", left, left) / n_left
                  + np.einsum("gk,gk->k", right, right) / (n - n_left))
        pick = int(np.argmax(metric))                   # lowest feature, then lowest threshold
        parent = float((counts.astype(float) ** 2).sum() / n)
        if metric[pick] <= parent + GAIN_EPS:
            return None
        cut, after = at_node[cuts[pick]], at_node[cuts[pick] + 1]
        v1, v2 = self.values[cut], self.values[after]
        threshold = 0.5 * (v1 + v2)
        if threshold >= v2:
            threshold = v1   # midpoint rounded up between adjacent floats
        return int(self.column[cut]), float(threshold)

    def _grow(self, rows: np.ndarray, hist: np.ndarray):
        """The subtree on ``rows``, whose histogram ``hist`` it consumes.

        ``rows`` ascend and have no subtree yet.  A child whose rows already
        have one, grown for another fold, reuses it and needs no histogram.
        """
        counts = np.bincount(self.y[rows], minlength=N_GRADES + 1)[1:]
        n = rows.size
        split = None if counts.max() == n else self.best_split(hist, counts, n)
        if split is None:
            node = _leaf(counts, n)
        else:
            feature, threshold = split
            goes_left = self.X[rows, feature] <= threshold
            kids = rows[goes_left], rows[~goes_left]
            grown = [self.subtrees.get(kid.tobytes()) for kid in kids]
            if None in grown:
                small = 0 if kids[0].size <= kids[1].size else 1
                hists = [None, None]
                hists[small] = self.histogram(kids[small])
                if grown[1 - small] is None:
                    hist -= hists[small]                # now the larger child's
                    hists[1 - small] = hist
                # Both histograms exist before either child consumes its own.
                for k in (0, 1):
                    if grown[k] is None:
                        grown[k] = self._grow(kids[k], hists[k])
            node = _Split(feature, threshold, *grown)
        self.subtrees[rows.tobytes()] = node
        return node


def fit(spec: ModelSpec, X, y) -> DecisionTree:
    return Grower(X, y).tree()


def folds(spec: ModelSpec, X, y, held):
    """The tree's leave-one-out ``folds``: a group codes its matrix once, in
    one ``Grower``, and fold i grows on every row but i."""
    grower = Grower(X, y)

    def fold(i, _):
        model = grower.tree(without=i)
        return model.predict(X[i]), model.warnings
    return [[] for _ in held], fold
