"""RBF-kernel support vector classifier, one-vs-one over grade pairs.

One soft-margin binary machine per unordered grade pair.  The pair duals
of every training fold go to the shared solver in ``dual`` together, in
lock-step batches (two-variable updates chosen by maximal violating pair and
second-order gain, stopping tolerance 1e-3); a pair that reaches the
solver's iteration cap keeps its best-so-far alphas and the fitted model
carries a warning.  Multiclass prediction is by
pairwise voting; the sum of |decision value| over won pairs, weighted at
1e-6, breaks vote ties deterministically, and any remaining exact tie goes
to the lower grade.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import dual
from .base import (N_GRADES, ModelSpec, PredictionOutcome, argmax_lower_grade,
                   check_dim, validate_training_data)


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """K(u, v) = exp(-gamma * ||u - v||^2), computed blockwise."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    a2 = np.sum(A * A, axis=1)[:, None]
    b2 = np.sum(B * B, axis=1)[None, :]
    d2 = np.maximum(a2 + b2 - 2.0 * (A @ B.T), 0.0)
    if A is B:
        np.fill_diagonal(d2, 0.0)
    return np.exp(-gamma * d2)


def dual_objective(alpha: np.ndarray, y: np.ndarray, K: np.ndarray) -> float:
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ K @ ay)


def kkt_max_violation(alpha: np.ndarray, y: np.ndarray, K: np.ndarray,
                      b: float, C: float) -> float:
    """Largest violation of the soft-margin KKT conditions."""
    margins = y * (K @ (alpha * y) + b)
    atol = 1e-9
    zero = alpha <= atol
    at_c = alpha >= C - atol
    free = ~zero & ~at_c
    v = np.zeros_like(margins)
    v[zero] = np.maximum(0.0, 1.0 - margins[zero])
    v[at_c] = np.maximum(0.0, margins[at_c] - 1.0)
    v[free] = np.abs(margins[free] - 1.0)
    return float(v.max()) if v.size else 0.0


def smo(K: np.ndarray, y: np.ndarray, C: float) -> tuple[np.ndarray, float, bool, int]:
    """Solve one binary soft-margin dual.  Returns (alpha, b, converged, iterations)."""
    y = np.asarray(y, dtype=float)
    [[(alpha, rho, converged, iterations)]] = dual.solve(
        [K], [[_pair_problem(np.arange(y.size), y, C)]])
    return alpha, -rho, converged, iterations


def _pair_problem(rows: np.ndarray, y: np.ndarray, C: float) -> dual.Problem:
    return dual.Problem(rows, y, np.full(y.size, -1.0), C)


@dataclass(frozen=True, eq=False)
class PairMachine:
    lower: int          # grade voted on positive decision values
    upper: int
    sv_x: np.ndarray
    sv_coef: np.ndarray  # alpha_i * y_i at the support vectors
    b: float
    gamma: float

    def decision(self, x: np.ndarray) -> float:
        if self.sv_x.shape[0] == 0:
            return self.b
        k = rbf_kernel(self.sv_x, x[None, :], self.gamma)[:, 0]
        return float(self.sv_coef @ k + self.b)


@dataclass(frozen=True, eq=False)
class PairwiseSvm:
    classes: tuple[int, ...]
    pairs: tuple[PairMachine, ...]
    n_features: int
    gamma: float
    warnings: tuple[str, ...] = ()

    def predict(self, x) -> PredictionOutcome:
        x = check_dim(x, self.n_features)
        scores = np.zeros(N_GRADES)
        if len(self.classes) == 1:
            scores[self.classes[0] - 1] = 1.0
            return PredictionOutcome(self.classes[0], scores)
        votes = np.zeros(N_GRADES)
        margin = np.zeros(N_GRADES)
        for pair in self.pairs:
            f = pair.decision(x)
            winner = pair.lower if f >= 0 else pair.upper
            votes[winner - 1] += 1.0
            margin[winner - 1] += abs(f)
        scores = votes + 1e-6 * margin
        return PredictionOutcome(argmax_lower_grade(scores), scores)


def _plan(spec: ModelSpec, X, y):
    """The kernel and pair duals of one training set, for ``dual.solve_folds``."""
    X, y = validate_training_data(X, y)
    classes = tuple(sorted(int(g) for g in np.unique(y)))
    pairs = []
    for a_pos in range(len(classes)):
        for b_pos in range(a_pos + 1, len(classes)):
            lower, upper = classes[a_pos], classes[b_pos]
            idx = np.flatnonzero((y == lower) | (y == upper))
            pairs.append((lower, upper, idx, np.where(y[idx] == lower, 1.0, -1.0)))
    gamma = 1.0 / X.shape[1]
    K = rbf_kernel(X, X, gamma) if pairs else None
    problems = [_pair_problem(idx, ysub, spec.C) for _, _, idx, ysub in pairs]
    return K, problems, (classes, pairs)


def fit_folds(spec: ModelSpec, folds) -> Iterator[PairwiseSvm]:
    """Fit one machine per training set (X, y) in ``folds``, yielded in order.

    The pair duals of all folds are solved together in lock-step batches
    (``dual.solve_folds``, which reads each fold twice).
    """
    for X, (classes, pairs), solutions in dual.solve_folds(
            folds, lambda X, y: _plan(spec, X, y)):
        gamma = 1.0 / X.shape[1]
        machines: list[PairMachine] = []
        warnings: list[str] = []
        for (lower, upper, idx, ysub), (alpha, rho, converged, _) in zip(pairs, solutions):
            if not converged:
                warnings.append(f"svm pair {lower}-{upper}: iteration cap reached")
            sv = alpha > 1e-12
            machines.append(PairMachine(lower, upper, X[idx][sv],
                                        alpha[sv] * ysub[sv], -rho, gamma))
        yield PairwiseSvm(classes, tuple(machines), X.shape[1], gamma, tuple(warnings))
