"""Gaussian naive Bayes with frequency priors and variance smoothing."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import (N_GRADES, SCORE_FLOOR, ModelSpec, PredictionOutcome,
                   argmax_lower_grade, check_dim, validate_training_data)

VAR_SMOOTHING = 1e-9
_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class GaussianNb:
    classes: tuple[int, ...]
    log_priors: np.ndarray
    means: np.ndarray       # (n_classes, d)
    variances: np.ndarray   # (n_classes, d), smoothed, strictly positive
    n_features: int
    warnings: tuple[str, ...] = ()

    def predict(self, x) -> PredictionOutcome:
        x = check_dim(x, self.n_features)
        log_density = -0.5 * np.sum(
            _LOG_2PI + np.log(self.variances)
            + (x - self.means) ** 2 / self.variances, axis=1)
        scores = np.full(N_GRADES, SCORE_FLOOR)
        for pos, grade in enumerate(self.classes):
            scores[grade - 1] = self.log_priors[pos] + log_density[pos]
        return PredictionOutcome(argmax_lower_grade(scores), scores)


def fit(spec: ModelSpec, X, y) -> GaussianNb:
    X, y = validate_training_data(X, y)
    return _model(_stats_by_grade(X, y))


def _stats_by_grade(X: np.ndarray, y: np.ndarray) -> dict:
    return {grade: _grade_stats(X[y == grade]) for grade in sorted(set(y.tolist()))}


def _grade_stats(rows: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """One grade's row count and its rows' per-feature mean and variance."""
    return rows.shape[0], rows.mean(axis=0), rows.var(axis=0)


def _model(stats: dict) -> GaussianNb:
    """The model of ``stats``, the ``_grade_stats`` of each training grade in
    ascending order.

    Smoothing keeps zero-variance features usable: it adds a fixed fraction
    of the largest single-feature variance over all training rows, taken
    from the grades' statistics by the law of total variance.  When no
    column varies (every grade's variance is 0 and every grade's mean the
    same), it is 1e-12; the weighted mean would otherwise round a constant
    column to a variance near 1e-40.
    """
    counts, means, variances = (np.array(col) for col in zip(*stats.values()))
    weights = counts / counts.sum()
    if variances.any() or (means != means[0]).any():
        mean = weights @ means
        max_var = float((weights @ (variances + (means - mean) ** 2)).max())
    else:
        max_var = 0.0
    smoothing = VAR_SMOOTHING * max_var if max_var > 0.0 else 1e-12
    return GaussianNb(tuple(stats), np.log(weights), means, variances + smoothing,
                      means.shape[1])


def folds(spec: ModelSpec, X, y, held):
    """Naive Bayes's leave-one-out ``folds``.

    Fold i's rows of a grade other than row i's are the group's rows of that
    grade, in the same order, so a group computes each grade's statistics
    once.  Fold i recomputes those of row i's grade without it (a grade
    whose only row is i leaves the fold), and its smoothing from its grades'
    statistics.
    """
    stats = _stats_by_grade(X, y)

    def fold(i, _):
        grade = int(y[i])
        own = X[(y == grade) & (np.arange(y.size) != i)]
        fold_stats = {g: _grade_stats(own) if g == grade else s
                      for g, s in stats.items() if g != grade or own.shape[0]}
        return _model(fold_stats).predict(X[i]), ()
    return [[] for _ in held], fold
