"""Regression-to-grade: fit a numeric predictor, then snap to a grade.

Two models, each fitted to a RegressionModel whose ``backend`` names it:

* linreg (``fit_least_squares``, backend "least_squares"): linear least
  squares with an unpenalized intercept, fitted as ridge regression on the
  centered data with damping RIDGE_DAMPING = 1e-6 (the feature count can
  exceed the row count, which leaves the plain normal equations singular).
  One direct solve in the smaller space.  With more rows than features it
  is the d-by-d primal (Xc'Xc + damping I) w = Xc'yc.  Otherwise it is the
  n-by-n dual in kernel space (``KernelRidge``): the linear kernel K of the
  training rows less their first row, centered as
  Kc = K - r1' - 1r' + s, where r holds K's row means and s their mean
  (Schoelkopf, Smola & Mueller, Neural Computation 1998), so that Kc is
  Xc Xc'; then (Kc + damping I) alpha = yc, and a row x is estimated from
  its kernel column k as mean(y) + (k - r - mean(k) + s)'alpha.  Shifting
  by a training row keeps K near the size of Kc on columns with large
  means, where the unshifted kernel would cancel digits.  The dual model
  also reports the weights Xc'alpha, which it does not predict with.  The
  weights match an SVD solution to rounding, except where the centered
  rows (dual) or columns (primal) are exactly dependent: there the
  system's condition is about |Xc|^2 / damping and about 1e-7 of relative
  accuracy remains.  Leave-one-out folds that share a transform share the
  kernel of the group's matrix shifted by row 0 (by row 1 for fold 0,
  whose first training row it is): fold i solves on that kernel without
  row i and column i, and reads its estimate from column i
  (``predict_least_squares_held_out``).
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


@dataclass(frozen=True, eq=False)
class KernelRidge:
    """linreg's dual solution on the linear kernel of its training rows,
    each less one shift row: alpha, the kernel's row means r and their mean
    s, and the labels' mean."""

    alpha: np.ndarray
    row_means: np.ndarray
    grand_mean: float
    ymean: float

    @classmethod
    def fit(cls, K: np.ndarray, y: np.ndarray) -> KernelRidge:
        """Solve (Kc + damping I) alpha = y - mean(y) on the centered K."""
        r = K.mean(axis=1)
        s = float(r.mean())
        Kc = K - r[:, None] - r[None, :] + s
        Kc[np.diag_indices(r.size)] += RIDGE_DAMPING
        ymean = float(y.mean())
        return cls(np.linalg.solve(Kc, y - ymean), r, s, ymean)

    def estimate(self, k: np.ndarray) -> float:
        """The estimate of a row whose shifted kernel column is ``k``."""
        return self.ymean + float((k - self.row_means - k.mean() + self.grand_mean)
                                  @ self.alpha)


def _svr_problem(K: np.ndarray, rows: np.ndarray, y: np.ndarray, C: float,
                 epsilon: float) -> dual.Problem:
    """The doubled dual over (alpha; alpha*) of the rows ``rows`` of y: both
    halves index those rows of the kernel K."""
    t = y[rows]
    return dual.Problem(K, np.tile(rows, 2), np.repeat([1.0, -1.0], rows.size),
                        np.concatenate([epsilon - t, epsilon + t]), C)


def _grade_outcome(estimate: float) -> PredictionOutcome:
    estimate = min(max(estimate, 1.0), float(N_GRADES))
    grade = round_half_away_from_zero(estimate)
    grade = min(max(grade, 1), N_GRADES)
    scores = -np.abs(estimate - np.arange(1, N_GRADES + 1, dtype=float))
    return PredictionOutcome(grade, scores)


@dataclass(frozen=True, eq=False)
class RegressionModel:
    weights: np.ndarray
    intercept: float
    n_features: int
    backend: str
    warnings: tuple[str, ...] = ()
    # A dual least-squares fit estimates from its kernel, not its weights:
    # (shift row, training rows less the shift row, KernelRidge).
    dual: tuple[np.ndarray, np.ndarray, KernelRidge] | None = None

    def numeric_estimate(self, x) -> float:
        x = check_dim(x, self.n_features)
        if self.dual is None:
            return float(x @ self.weights + self.intercept)
        shift, rows, ridge = self.dual
        return ridge.estimate(linear_kernel(rows, x - shift)[:, 0])

    def predict(self, x) -> PredictionOutcome:
        return _grade_outcome(self.numeric_estimate(x))


def fit_least_squares(spec: ModelSpec, X, y) -> RegressionModel:
    X, y = validate_training_data(X, y)
    return _least_squares(X, y.astype(float))


def _least_squares(X: np.ndarray, y: np.ndarray) -> RegressionModel:
    """linreg on validated rows X and float labels y."""
    n, d = X.shape
    xmean = X.mean(axis=0)
    if n > d:
        ymean = float(y.mean())
        Xc = X - xmean
        gram = Xc.T @ Xc
        gram[np.diag_indices(d)] += RIDGE_DAMPING
        w = np.linalg.solve(gram, Xc.T @ (y - ymean))
        return RegressionModel(w, ymean - float(xmean @ w), d, "least_squares")
    shift = X[0].copy()
    rows = X - shift
    ridge = KernelRidge.fit(linear_kernel(rows, rows), y)
    w = (X - xmean).T @ ridge.alpha
    return RegressionModel(w, ridge.ymean - float(xmean @ w), d, "least_squares",
                           dual=(shift, rows, ridge))


def predict_least_squares_held_out(spec: ModelSpec, groups, map_folds) -> Iterator[list]:
    """linreg's ``models.predict_held_out``, folds mapped by ``map_folds``.

    A dual group builds the kernel of its rows less row 0, and less row 1
    if it holds out fold 0; each fold solves on its rows of one of them and
    copies no row of X.  A primal group fits fold by fold.
    """
    for X, y, held in groups:
        X, y = validate_training_data(X, y)
        y = y.astype(float)
        n, d = X.shape
        if n - 1 > d:
            def fold(i):
                # np.delete keeps X's memory order, which decides how the
                # primal's BLAS Gram sums, so the fold's rows are
                # bit-identical to its own transformed rows.  The held-out
                # row is made contiguous: a strided row of a Fortran-ordered
                # X changes how a dot product sums it.
                model = _least_squares(np.delete(X, i, axis=0), np.delete(y, i))
                return model.predict(np.ascontiguousarray(X[i])), ()
        else:
            kernels = {}
            for first in {int(i == 0) for i in held}:
                rows = X - X[first]
                kernels[first] = linear_kernel(rows, rows)

            def fold(i):
                K = kernels[int(i == 0)]
                keep = np.delete(np.arange(n), i)
                ridge = KernelRidge.fit(K[np.ix_(keep, keep)], y[keep])
                return _grade_outcome(ridge.estimate(K[keep, i])), ()
        yield map_folds(fold, held)


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
