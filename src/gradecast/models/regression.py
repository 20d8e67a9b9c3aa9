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
  (``least_squares_folds``).
* svr (``fit_svr``, backend "epsilon_svr"): linear epsilon-insensitive
  support vector regression.  Its dual over the 2n variables
  (alpha; alpha*) goes to the shared solver in ``dual`` with signs
  s = (1; -1) and linear term (epsilon - y; epsilon + y) on the linear
  kernel X X' (``base.linear_kernel``), the duals of every training fold
  in lock-step batches.  The fit is a kernel expansion (``KernelSum``):
  a row x is estimated as sum_j beta_j K(x_j, x) + b over the training
  rows x_j, with beta = alpha - alpha* (Smola & Schoelkopf, Statistics
  and Computing 2004).  The model also reports the weights X' beta, which
  it does not predict with.  Leave-one-out folds that share a transform
  share one kernel on all rows of the group's matrix: fold r's dual uses
  its rows other than r, and it estimates from column r of that kernel
  less entry r (``svr_folds``).  A fit that reaches the solver's
  iteration cap keeps its best-so-far beta and carries a warning.

Prediction for both: clamp the numeric estimate to [1, 5], round half away
from zero; class_scores[g] = -|estimate - g|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dual
from .base import N_GRADES, ModelSpec, PredictionOutcome, check_dim, linear_kernel

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


@dataclass(frozen=True, eq=False)
class KernelSum:
    """The SVR's kernel expansion sum_j beta_j K(x_j, x) + b over its
    training rows x_j."""

    beta: np.ndarray
    b: float

    def estimate(self, k: np.ndarray) -> float:
        """The estimate of a row whose kernel column is ``k``."""
        return float(self.beta @ k + self.b)


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
    # A dual fit estimates from its kernel, not its weights: (shift row,
    # training rows less the shift row, KernelRidge or KernelSum).  The SVR
    # shifts by 0.0.
    dual: tuple[np.ndarray | float, np.ndarray, KernelRidge | KernelSum] | None = None

    def numeric_estimate(self, x) -> float:
        x = check_dim(x, self.n_features)
        if self.dual is None:
            return float(x @ self.weights + self.intercept)
        shift, rows, estimator = self.dual
        return estimator.estimate(linear_kernel(rows, x - shift)[:, 0])

    def predict(self, x) -> PredictionOutcome:
        return _grade_outcome(self.numeric_estimate(x))


def fit_least_squares(spec: ModelSpec, X, y) -> RegressionModel:
    """linreg on every row of X."""
    y = y.astype(float)
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


def least_squares_folds(spec: ModelSpec, X, y, held):
    """linreg's leave-one-out ``folds``.

    A dual group builds the kernel of its rows less row 0, and less row 1
    if it holds out fold 0; each fold solves on its rows of one of them and
    copies no row of X.  A primal group fits fold by fold.
    """
    y = y.astype(float)
    n, d = X.shape
    if n - 1 > d:
        def fold(i, _):
            model = fit_least_squares(spec, np.delete(X, i, axis=0), np.delete(y, i))
            return model.predict(X[i]), ()
        return [[] for _ in held], fold
    kernels = {}
    for first in {int(i == 0) for i in held}:
        rows = X - X[first]
        kernels[first] = linear_kernel(rows, rows)

    def fold(i, _):
        K = kernels[int(i == 0)]
        keep = np.delete(np.arange(n), i)
        ridge = KernelRidge.fit(K[np.ix_(keep, keep)], y[keep])
        return _grade_outcome(ridge.estimate(K[keep, i])), ()
    return [[] for _ in held], fold


def _kernel_sum(solution: dual.Solution) -> tuple[KernelSum, tuple[str, ...]]:
    """The SVR's fit from its dual's solution, with beta over its rows, and
    its warnings."""
    a, rho, converged, _ = solution
    n = a.size // 2
    return KernelSum(a[:n] - a[n:], -rho), () if converged else ("svr: iteration cap reached",)


def fit_svr(spec: ModelSpec, X, y) -> RegressionModel:
    """One epsilon-SVR on every row of X."""
    problem = _svr_problem(linear_kernel(X, X), np.arange(y.size), y.astype(float),
                           spec.C, spec.epsilon)
    svr, warnings = _kernel_sum(dual.solve([problem])[0])
    return RegressionModel(X.T @ svr.beta, svr.b, X.shape[1], "epsilon_svr", warnings,
                           dual=(0.0, X, svr))


def svr_folds(spec: ModelSpec, X, y, held):
    """The SVR's leave-one-out ``folds``: a group builds one kernel, fold r's
    dual uses its rows other than r, and fold r estimates from column r of
    the kernel less entry r."""
    K, rows, yf = linear_kernel(X, X), np.arange(y.size), y.astype(float)
    problems = [[_svr_problem(K, np.delete(rows, r), yf, spec.C, spec.epsilon)]
                for r in held]

    def fold(r, solutions):
        svr, warnings = _kernel_sum(solutions[0])
        return _grade_outcome(svr.estimate(np.delete(K[:, r], r))), warnings
    return problems, fold
