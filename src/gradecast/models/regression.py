"""Regression-to-grade: fit a numeric predictor, then snap to a grade.

Two models, each fitted to a RegressionModel whose ``backend`` names it:

* linreg (``fit_least_squares``, backend "least_squares"): linear least
  squares with an unpenalized intercept, fitted as ridge regression on the
  centered data with damping RIDGE_DAMPING = 1e-6 (the feature count can
  exceed the row count, which leaves the plain normal equations singular).
  One direct solve in the smaller space: the n-by-n dual
  w = Xc'(Xc Xc' + damping I)^-1 yc when there are no more rows than
  features, the d-by-d primal otherwise; both give the same estimator.
  The weights match an SVD solution to rounding, except where the centered
  rows (dual) or columns (primal) are exactly dependent: there the
  system's condition is about |Xc|^2 / damping and about 1e-7 of relative
  accuracy remains.
* svr (``fit_svr``, backend "epsilon_svr"): linear epsilon-insensitive
  support vector regression.  Its dual over the 2n variables
  (alpha; alpha*) goes to the shared solver in ``dual`` with signs
  s = (1; -1) and linear term (epsilon - y; epsilon + y) on the linear
  kernel X X' (``base.linear_kernel``), the duals of every training fold
  in lock-step batches; the weights are X' beta with beta = alpha - alpha*.
  Leave-one-out folds that share a transform share one kernel on all rows
  of the group's matrix, and fold i's dual uses its rows other than i
  (``predict_svr_held_out``).  A fit that reaches the solver's iteration
  cap keeps its best-so-far beta and carries a warning.

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
                   linear_kernel, validate_training_data)

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


def _svr_problem(K: np.ndarray, rows: np.ndarray, y: np.ndarray, C: float,
                 epsilon: float) -> dual.Problem:
    """The doubled dual over (alpha; alpha*) of the rows ``rows`` of y: both
    halves index those rows of the kernel K."""
    t = y[rows]
    return dual.Problem(K, np.tile(rows, 2), np.repeat([1.0, -1.0], rows.size),
                        np.concatenate([epsilon - t, epsilon + t]), C)


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


def _svr_plan(spec: ModelSpec, X, y, held):
    """The dual of each fold on the linear kernel of one matrix, and the
    note ``held``, for ``dual.solve_groups``: fold f trains on every row but
    ``held[f]``, or on every row when that is None."""
    X, y = validate_training_data(X, y)
    K, rows, yf = linear_kernel(X, X), np.arange(y.size), y.astype(float)
    problems = [[_svr_problem(K, rows if r is None else np.delete(rows, r), yf,
                              spec.C, spec.epsilon)] for r in held]
    return problems, held


def _svr_fits(spec: ModelSpec, groups) -> Iterator[list]:
    """Per group (X, y, held) of ``groups``, each fold's (held row, beta,
    intercept, warnings); the fold's weights are X' beta over its rows."""
    for held, solutions in dual.solve_groups(groups, lambda g: _svr_plan(spec, *g)):
        fits = []
        for r, [(a, rho, converged, _)] in zip(held, solutions):
            n = a.size // 2
            warnings = () if converged else ("svr: iteration cap reached",)
            fits.append((r, a[:n] - a[n:], -rho, warnings))
        yield fits


def fit_svr(spec: ModelSpec, X, y) -> RegressionModel:
    """One epsilon-SVR on every row of X."""
    [[(_, beta, b, warnings)]] = _svr_fits(spec, [(X, y, [None])])
    X = np.asarray(X, dtype=float)
    return RegressionModel(X.T @ beta, b, X.shape[1], "epsilon_svr", warnings)


def predict_svr_held_out(spec: ModelSpec, groups) -> Iterator[list]:
    """Leave-one-out over groups of folds that share one matrix.

    ``groups[g]`` is (X, y, held): fold f of group g trains on every row of X
    but ``held[f]`` and predicts that row.  Yields, per group, each fold's
    (PredictionOutcome, warnings).  A group builds one kernel for its solves;
    its matrix is read once more, after them, for the fold weights.
    """
    for g, fits in enumerate(_svr_fits(spec, groups)):
        X = np.asarray(groups[g][0], dtype=float)
        out = []
        for r, beta, b, warnings in fits:
            # np.delete keeps the matrix's memory order, so the weights are
            # bit-identical to those of the fold's own training matrix.
            model = RegressionModel(np.delete(X, r, axis=0).T @ beta, b, X.shape[1],
                                    "epsilon_svr", warnings)
            out.append((model.predict(np.ascontiguousarray(X[r])), warnings))
        yield out
