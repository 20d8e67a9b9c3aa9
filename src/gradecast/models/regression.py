"""Regression-to-grade: fit a numeric predictor, then snap to a grade.

Two interchangeable backends:

* least_squares (default): linear least squares with an unpenalized
  intercept, fitted as ridge regression on the centered data with damping
  RIDGE_DAMPING = 1e-6 (the feature count can exceed the row count, which
  leaves the plain normal equations singular).  One direct solve in the
  smaller space: the n-by-n dual w = Xc'(Xc Xc' + damping I)^-1 yc when
  there are no more rows than features, the d-by-d primal otherwise; both
  give the same estimator.  The weights match an SVD solution to rounding,
  except where the centered rows (dual) or columns (primal) are exactly
  dependent: there the system's condition is about |Xc|^2 / damping and
  about 1e-7 of relative accuracy remains.
* epsilon_svr: linear epsilon-insensitive support vector regression.  Its
  dual over the 2n variables (alpha; alpha*) goes to the shared solver in
  ``dual`` with signs s = (1; -1) and linear term (epsilon - y; epsilon + y),
  the duals of every training fold in lock-step batches; the weights are
  X' beta with beta = alpha - alpha*.  A fit that reaches
  the solver's iteration cap keeps its best-so-far beta and carries a
  warning.

Prediction for both: clamp the numeric estimate to [1, 5], round half away
from zero; class_scores[g] = -|estimate - g|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import dual
from .base import (N_GRADES, ModelSpec, PredictionOutcome, check_dim,
                   validate_training_data)

RIDGE_DAMPING = 1e-6


def round_half_away_from_zero(value: float) -> int:
    # Grades are positive, so half-away-from-zero is floor(v + 0.5).
    return int(math.floor(value + 0.5))


def _ridge_weights(Xc: np.ndarray, yc: np.ndarray, damping: float) -> np.ndarray:
    """Solve (Xc'Xc + damping*I) w = Xc'yc directly, in the smaller space.

    With no more rows than columns the n-by-n dual form
    w = Xc' (Xc Xc' + damping*I)^-1 yc gives the same estimator.
    """
    n, d = Xc.shape
    if n <= d:
        gram = Xc @ Xc.T
        gram[np.diag_indices(n)] += damping
        return Xc.T @ np.linalg.solve(gram, yc)
    gram = Xc.T @ Xc
    gram[np.diag_indices(d)] += damping
    return np.linalg.solve(gram, Xc.T @ yc)


def svr_dual(K: np.ndarray, y: np.ndarray, C: float,
             epsilon: float) -> tuple[np.ndarray, float, bool, int]:
    """Solve one epsilon-SVR dual.  Returns (beta, b, converged, iterations).

    The estimate is sum_i beta_i K(x_i, x) + b, with |beta_i| <= C and
    sum(beta) = 0.
    """
    [[(a, rho, converged, iterations)]] = dual.solve([K], [[_svr_problem(y, C, epsilon)]])
    n = y.size
    return a[:n] - a[n:], -rho, converged, iterations


def _svr_problem(y: np.ndarray, C: float, epsilon: float) -> dual.Problem:
    """The doubled dual over (alpha; alpha*): both halves index the rows of K."""
    n = y.size
    return dual.Problem(np.tile(np.arange(n), 2), np.repeat([1.0, -1.0], n),
                        np.concatenate([epsilon - y, epsilon + y]), C)


@dataclass(frozen=True, eq=False)
class RegressionModel:
    weights: np.ndarray
    intercept: float
    n_features: int
    backend: str
    warnings: tuple[str, ...] = ()

    def numeric_estimate(self, x) -> float:
        x = check_dim(x, self.n_features)
        return float(x @ self.weights + self.intercept)

    def predict(self, x) -> PredictionOutcome:
        estimate = min(max(self.numeric_estimate(x), 1.0), float(N_GRADES))
        grade = round_half_away_from_zero(estimate)
        grade = min(max(grade, 1), N_GRADES)
        scores = -np.abs(estimate - np.arange(1, N_GRADES + 1, dtype=float))
        return PredictionOutcome(grade, scores)


def fit_least_squares(spec: ModelSpec, X, y) -> RegressionModel:
    X, y = validate_training_data(X, y)
    yf = y.astype(float)
    xmean = X.mean(axis=0)
    ymean = float(yf.mean())
    w = _ridge_weights(X - xmean, yf - ymean, RIDGE_DAMPING)
    return RegressionModel(w, ymean - float(xmean @ w), X.shape[1], "least_squares")


def _svr_plan(spec: ModelSpec, X, y):
    X, y = validate_training_data(X, y)
    return X @ X.T, [_svr_problem(y.astype(float), spec.C, spec.epsilon)], None


def fit_svr_folds(spec: ModelSpec, folds) -> Iterator[RegressionModel]:
    """Fit one epsilon-SVR per training set (X, y) in ``folds``, yielded in order.

    The duals of all folds are solved together in lock-step batches
    (``dual.solve_folds``, which reads each fold twice).
    """
    for X, _, [(a, rho, converged, _)] in dual.solve_folds(
            folds, lambda X, y: _svr_plan(spec, X, y)):
        n = X.shape[0]
        warnings = () if converged else ("svr: iteration cap reached",)
        yield RegressionModel(X.T @ (a[:n] - a[n:]), -rho, X.shape[1],
                              "epsilon_svr", warnings)
