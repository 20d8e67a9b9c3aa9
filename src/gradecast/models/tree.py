"""CART-style decision tree classifier on the Gini criterion.

Candidate thresholds are midpoints between consecutive distinct sorted
values of each feature.  The best split maximizes the Gini impurity
decrease; exact ties are broken by lower feature index, then lower
threshold.  Nodes grow until pure or until no split strictly reduces
weighted impurity; there is no pruning or depth limit.  Leaf class scores
are the training class proportions at the leaf.
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


def gini(labels) -> float:
    """Gini impurity of a label multiset."""
    arr = np.asarray(labels)
    if arr.size == 0:
        return 0.0
    counts = np.bincount(arr)
    p = counts[counts > 0] / arr.size
    return float(1.0 - np.sum(p * p))


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


def _best_split(X: np.ndarray, y: np.ndarray, counts: np.ndarray):
    """Best (feature, threshold, left_mask) or None when no split gains.

    Maximizing sum(left_counts^2)/n_left + sum(right_counts^2)/n_right is
    equivalent to maximizing the Gini decrease at fixed parent counts.
    """
    n, d = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(X, order, axis=0)
    y_sorted = y[order[:-1]]
    # Exact integer sums of squared class counts on each side of every cut.
    left_sq = np.zeros((n - 1, d), dtype=np.int64)
    right_sq = np.zeros((n - 1, d), dtype=np.int64)
    left = np.empty((n - 1, d), dtype=np.int64)
    for grade in np.flatnonzero(counts) + 1:
        np.cumsum(y_sorted == grade, axis=0, out=left)   # the grade's count left of the cut
        left_sq += left * left
        left -= counts[grade - 1]                        # minus its count right of the cut
        right_sq += left * left
    n_left = np.arange(1, n, dtype=float)[:, None]
    n_right = n - n_left
    metric = left_sq / n_left + right_sq / n_right
    metric[sorted_vals[1:] <= sorted_vals[:-1]] = -np.inf
    best = metric.max() if metric.size else -np.inf
    parent = float((counts.astype(float) ** 2).sum() / n)
    if not np.isfinite(best) or best <= parent + GAIN_EPS:
        return None
    rows, cols = np.nonzero(metric == best)
    pick = np.lexsort((rows, cols))[0]     # lowest feature, then lowest threshold
    r, c = int(rows[pick]), int(cols[pick])
    v1, v2 = sorted_vals[r, c], sorted_vals[r + 1, c]
    threshold = 0.5 * (v1 + v2)
    if threshold >= v2:
        threshold = v1   # midpoint rounded up between adjacent floats
    return c, float(threshold), X[:, c] <= threshold


def _build(X: np.ndarray, y: np.ndarray):
    counts = np.bincount(y, minlength=N_GRADES + 1)[1:]
    n = y.size
    if counts.max() == n:
        return _leaf(counts, n)
    split = _best_split(X, y, counts)
    if split is None:
        return _leaf(counts, n)
    feature, threshold, left_mask = split
    return _Split(feature, threshold,
                  _build(X[left_mask], y[left_mask]),
                  _build(X[~left_mask], y[~left_mask]))


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


def fit(spec: ModelSpec, X, y) -> DecisionTree:
    X, y = validate_training_data(X, y)
    return DecisionTree(_build(X, y), X.shape[1])
