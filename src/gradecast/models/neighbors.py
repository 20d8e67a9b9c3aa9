"""K-nearest-neighbors classifier (Euclidean metric, uniform votes)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import (N_GRADES, ModelSpec, PredictionOutcome, check_dim,
                   validate_training_data)


@dataclass(frozen=True, eq=False)
class Knn:
    train_x: np.ndarray
    train_y: np.ndarray
    k: int
    n_features: int
    warnings: tuple[str, ...] = ()

    def predict(self, x) -> PredictionOutcome:
        x = check_dim(x, self.n_features)
        return _vote(np.sum((self.train_x - x) ** 2, axis=1), self.train_y, self.k)


def _vote(d2: np.ndarray, train_y: np.ndarray, k: int) -> PredictionOutcome:
    """The vote of the k training rows nearest by squared distances ``d2``."""
    # Stable sort: equal distances rank by lower training-row index.
    order = np.argsort(d2, kind="stable")[:k]
    votes = np.bincount(train_y[order], minlength=N_GRADES + 1)[1:]
    scores = votes / k
    top = votes.max()
    tied = np.flatnonzero(votes == top) + 1
    if tied.size == 1:
        grade = int(tied[0])
    else:
        # Vote tie: the tied class owning the nearest neighbor wins.
        tied_set = set(int(g) for g in tied)
        grade = next(int(train_y[i]) for i in order if int(train_y[i]) in tied_set)
    return PredictionOutcome(grade, scores)


def fit(spec: ModelSpec, X, y) -> Knn:
    X, y = validate_training_data(X, y)
    return Knn(X, y, min(spec.k, X.shape[0]), X.shape[1])


def folds(spec: ModelSpec, X, y, held):
    """KNN's leave-one-out ``folds``: fold i's distances are those of the
    group's rows to row i, less its own."""
    k = min(spec.k, y.size - 1)

    def fold(i, _):
        d2 = np.sum((X - X[i]) ** 2, axis=1)
        return _vote(np.delete(d2, i), np.delete(y, i), k), ()
    return [[] for _ in held], fold
