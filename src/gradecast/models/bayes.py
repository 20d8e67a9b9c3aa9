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
    classes = tuple(sorted(set(y.tolist())))
    # Smoothing keeps zero-variance features usable: add a fixed fraction of
    # the largest single-feature variance over the whole training set.
    max_var = float(np.var(X, axis=0).max())
    smoothing = VAR_SMOOTHING * max_var if max_var > 0.0 else 1e-12
    log_priors = np.empty(len(classes))
    means = np.empty((len(classes), X.shape[1]))
    variances = np.empty_like(means)
    for pos, grade in enumerate(classes):
        rows = X[y == grade]
        log_priors[pos] = np.log(rows.shape[0] / X.shape[0])
        means[pos] = rows.mean(axis=0)
        variances[pos] = rows.var(axis=0) + smoothing
    return GaussianNb(classes, log_priors, means, variances, X.shape[1])
