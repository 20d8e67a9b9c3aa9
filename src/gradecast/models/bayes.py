"""Gaussian naive Bayes with frequency priors and variance smoothing."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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
    return _model(_stats_by_grade(X, y), _smoothing(X), X.shape)


def _stats_by_grade(X: np.ndarray, y: np.ndarray) -> dict:
    return {grade: _grade_stats(X[y == grade]) for grade in sorted(set(y.tolist()))}


def _grade_stats(rows: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """One grade's row count and its rows' per-feature mean and variance."""
    return rows.shape[0], rows.mean(axis=0), rows.var(axis=0)


def _smoothing(X: np.ndarray) -> float:
    # Smoothing keeps zero-variance features usable: add a fixed fraction of
    # the largest single-feature variance over the whole training set.
    max_var = float(np.var(X, axis=0).max())
    return VAR_SMOOTHING * max_var if max_var > 0.0 else 1e-12


def _model(stats: dict, smoothing: float, shape: tuple[int, int]) -> GaussianNb:
    """The model of ``stats``, the ``_grade_stats`` of each training grade in
    ascending order, on a training matrix of ``shape``."""
    n, d = shape
    log_priors = np.empty(len(stats))
    means = np.empty((len(stats), d))
    variances = np.empty_like(means)
    for pos, (count, mean, var) in enumerate(stats.values()):
        log_priors[pos] = np.log(count / n)
        means[pos] = mean
        variances[pos] = var + smoothing
    return GaussianNb(tuple(stats), log_priors, means, variances, d)


def predict_held_out(spec: ModelSpec, groups, map_folds) -> Iterator[list]:
    """Naive Bayes's ``models.predict_held_out``, folds mapped by ``map_folds``.

    Fold i's rows of a grade other than row i's are the group's rows of that
    grade, in the same order, so a group computes each grade's statistics
    once.  Fold i recomputes those of row i's grade without it (a grade
    whose only row is i leaves the fold) and the smoothing on its own rows.
    """
    for X, y, held in groups:
        X, y = validate_training_data(X, y)
        stats = _stats_by_grade(X, y)

        def fold(i):
            grade = int(y[i])
            others = np.arange(y.size) != i
            own = X[(y == grade) & others]
            fold_stats = {g: _grade_stats(own) if g == grade else s
                          for g, s in stats.items() if g != grade or own.shape[0]}
            model = _model(fold_stats, _smoothing(np.delete(X, i, axis=0)),
                           (y.size - 1, X.shape[1]))
            return model.predict(X[i]), ()
        yield map_folds(fold, held)
