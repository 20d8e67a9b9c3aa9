"""Regression-to-grade: fit a numeric predictor, then snap to a grade.

Two interchangeable backends:

* least_squares (default): minimum-norm linear least squares with an
  unpenalized intercept, computed by conjugate gradient on the ridge-damped
  normal equations of the centered system (damping 1e-6; required because
  the feature count can exceed the row count, leaving the plain normal
  equations singular).
* epsilon_svr: linear epsilon-insensitive support vector regression.  Its
  dual over the 2n variables (alpha; alpha*) goes to the shared solver in
  ``dual`` with signs s = (1; -1) and linear term (epsilon - y; epsilon + y);
  the weights are X' beta with beta = alpha - alpha*.  A fit that reaches
  the solver's iteration cap keeps its best-so-far beta and carries a
  warning.

Prediction for both: clamp the numeric estimate to [1, 5], round half away
from zero; class_scores[g] = -|estimate - g|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dual
from .base import (N_GRADES, ModelSpec, PredictionOutcome, check_dim,
                   validate_training_data)

RIDGE_DAMPING = 1e-6
_CG_REL_TOL = 1e-10


def round_half_away_from_zero(value: float) -> int:
    # Grades are positive, so half-away-from-zero is floor(v + 0.5).
    return int(math.floor(value + 0.5))


def _cg_normal_equations(Xc: np.ndarray, yc: np.ndarray, damping: float) -> np.ndarray:
    """Jacobi-preconditioned CG on (Xc'Xc + damping*I) w = Xc'yc, matrix-free."""
    d = Xc.shape[1]
    rhs = Xc.T @ yc
    norm_rhs = float(np.linalg.norm(rhs))
    w = np.zeros(d)
    if norm_rhs == 0.0:
        return w
    diag = np.sum(Xc * Xc, axis=0) + damping
    r = rhs.copy()
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    for _ in range(max(2 * d, 200)):
        ap = Xc.T @ (Xc @ p) + damping * p
        pap = float(p @ ap)
        if pap <= 0.0:
            break
        step = rz / pap
        w += step * p
        r -= step * ap
        if np.linalg.norm(r) <= _CG_REL_TOL * norm_rhs:
            break
        z = r / diag
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return w


def svr_dual(K: np.ndarray, y: np.ndarray, C: float,
             epsilon: float) -> tuple[np.ndarray, float, bool, int]:
    """Solve the epsilon-SVR dual.  Returns (beta, b, converged, iterations).

    The estimate is sum_i beta_i K(x_i, x) + b, with |beta_i| <= C and
    sum(beta) = 0.
    """
    n = y.size
    a, rho, converged, iterations = dual.solve(
        np.block([[K, -K], [-K, K]]), np.repeat([1.0, -1.0], n),
        np.concatenate([epsilon - y, epsilon + y]), C)
    return a[:n] - a[n:], -rho, converged, iterations


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


def fit(spec: ModelSpec, X, y) -> RegressionModel:
    X, y = validate_training_data(X, y)
    yf = y.astype(float)
    if spec.regression_backend == "least_squares":
        xmean = X.mean(axis=0)
        ymean = float(yf.mean())
        w = _cg_normal_equations(X - xmean, yf - ymean, RIDGE_DAMPING)
        return RegressionModel(w, ymean - float(xmean @ w), X.shape[1],
                               "least_squares")
    beta, b, converged, _ = svr_dual(X @ X.T, yf, spec.C, spec.epsilon)
    warnings = () if converged else ("svr: iteration cap reached",)
    return RegressionModel(X.T @ beta, b, X.shape[1], "epsilon_svr", warnings)
