"""RBF-kernel support vector classifier, one-vs-one over grade pairs.

One soft-margin binary machine per unordered grade pair.  The pair duals go
to the shared solver in ``dual`` in lock-step batches (two-variable updates
chosen by maximal violating pair and second-order gain, stopping tolerance
1e-3); a pair that reaches the solver's iteration cap keeps its best-so-far
alphas and the fitted model carries a warning.  A pair machine keeps its
support vectors as row indices into its model's training matrix: a
prediction computes one kernel row against the training rows, and every
pair reads its support vectors' entries from it.  Multiclass prediction is
by pairwise voting; the sum of |decision value| over won pairs, weighted at
1e-6, breaks vote ties deterministically, and any remaining exact tie goes
to the lower grade.

Leave-one-out folds that share a transform share one kernel (``folds``):
it is built once on all rows of the group's matrix, fold i's pair duals
use its rows other than i, and fold i votes on column i of the same
kernel.  ``rbf_kernel`` computes each entry from its two rows
alone, so every fold is bit-identical to a machine trained on its own rows.
Fold i's dual for a pair (l, u) that does not contain row i's grade is the
dual on the group's rows of grade l or u, the same in every such fold: the
group builds it once, the solver solves it once, and one pair machine
serves all those folds.  Fold i builds only the pairs of its own
grade, at most four.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual
from .base import (N_GRADES, ModelSpec, PredictionOutcome, argmax_lower_grade,
                   check_dim, linear_kernel, validate_training_data)


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """K(u, v) = exp(-gamma * ||u - v||^2).

    Entry (i, j) depends on rows A[i] and B[j] alone, as in ``linear_kernel``;
    the squared norms are summed the same way.
    """
    same = A is B
    A = np.ascontiguousarray(np.atleast_2d(A), dtype=float)
    B = A if same else np.ascontiguousarray(np.atleast_2d(B), dtype=float)
    a2 = np.einsum("ik,ik->i", A, A)
    b2 = a2 if same else np.einsum("ik,ik->i", B, B)
    d2 = np.maximum(a2[:, None] + b2[None, :] - 2.0 * linear_kernel(A, B), 0.0)
    if same:
        np.fill_diagonal(d2, 0.0)
    return np.exp(-gamma * d2)


def smo(K: np.ndarray, y: np.ndarray, C: float) -> tuple[np.ndarray, float, bool, int]:
    """Solve one binary soft-margin dual.  Returns (alpha, b, converged, iterations)."""
    y = np.asarray(y, dtype=float)
    [(alpha, rho, converged, iterations)] = dual.solve(
        [_pair_problem(K, np.arange(y.size), y, C)])
    return alpha, -rho, converged, iterations


def _pair_problem(K: np.ndarray, rows: np.ndarray, y: np.ndarray, C: float) -> dual.Problem:
    return dual.Problem(K, rows, y, np.full(y.size, -1.0), C)


@dataclass(frozen=True, eq=False)
class PairMachine:
    lower: int          # grade voted on positive decision values
    upper: int
    sv: np.ndarray      # support vectors, as rows of the model's training matrix
    sv_coef: np.ndarray  # alpha_i * y_i at the support vectors
    b: float

    def decision(self, k: np.ndarray) -> float:
        """Decision value of the input whose kernel values against the
        training rows are ``k``."""
        if self.sv.size == 0:
            return self.b
        return float(self.sv_coef @ k[self.sv] + self.b)


def _vote(classes: tuple[int, ...], pairs, k: np.ndarray) -> PredictionOutcome:
    """Pairwise vote on the input whose kernel values against the training
    rows are ``k``."""
    scores = np.zeros(N_GRADES)
    if len(classes) == 1:
        scores[classes[0] - 1] = 1.0
        return PredictionOutcome(classes[0], scores)
    votes = np.zeros(N_GRADES)
    margin = np.zeros(N_GRADES)
    for pair in pairs:
        f = pair.decision(k)
        winner = pair.lower if f >= 0 else pair.upper
        votes[winner - 1] += 1.0
        margin[winner - 1] += abs(f)
    scores = votes + 1e-6 * margin
    return PredictionOutcome(argmax_lower_grade(scores), scores)


@dataclass(frozen=True, eq=False)
class PairwiseSvm:
    classes: tuple[int, ...]
    pairs: tuple[PairMachine, ...]
    X: np.ndarray       # the training rows, which the support vectors index
    gamma: float
    warnings: tuple[str, ...] = ()

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def predict(self, x) -> PredictionOutcome:
        x = check_dim(x, self.n_features)
        return _vote(self.classes, self.pairs, rbf_kernel(self.X, x, self.gamma)[:, 0])


def _plan(spec: ModelSpec, X: np.ndarray, y: np.ndarray, held):
    """The kernel of one validated matrix, each fold's plan (held row,
    classes, pairs (lower, upper, rows, signs)), and each fold's pair duals:
    fold f trains on every row but ``held[f]``, or on every row when that is
    None.

    The dual of pair (l, u) on every row is built once, and every fold whose
    held-out grade is neither l nor u holds that same ``Problem``.  A fold
    builds only the pairs of its held-out grade, without that row; a grade
    whose only row is held out leaves the fold's classes.
    """
    K = rbf_kernel(X, X, 1.0 / X.shape[1])
    present = sorted(set(y.tolist()))
    count = np.bincount(y)
    shared = {}
    for a_pos, lower in enumerate(present):
        for upper in present[a_pos + 1:]:
            rows = np.flatnonzero((y == lower) | (y == upper))
            s = np.where(y[rows] == lower, 1.0, -1.0)
            shared[lower, upper] = (rows, s, _pair_problem(K, rows, s, spec.C))
    folds, problems = [], []
    for r in held:
        grade = None if r is None else int(y[r])
        classes = tuple(g for g in present if g != grade or count[g] > 1)
        pairs, probs = [], []
        for a_pos, lower in enumerate(classes):
            for upper in classes[a_pos + 1:]:
                rows, s, prob = shared[lower, upper]
                if grade in (lower, upper):
                    keep = rows != r
                    rows, s = rows[keep], s[keep]
                    prob = _pair_problem(K, rows, s, spec.C)
                pairs.append((lower, upper, rows, s))
                probs.append(prob)
        folds.append((r, classes, pairs))
        problems.append(probs)
    return K, folds, problems


def _machines(pairs, solutions, machine_of: dict) -> tuple[tuple, tuple[str, ...]]:
    """One fold's pair machines from its duals' solutions, and its warnings.

    ``machine_of`` maps the id of each solution seen so far to its machine,
    so folds that hold the same solution share one machine.
    """
    machines, warnings = [], []
    for (lower, upper, rows, s), sol in zip(pairs, solutions):
        alpha, rho, converged, _ = sol
        if not converged:
            warnings.append(f"svm pair {lower}-{upper}: iteration cap reached")
        if id(sol) not in machine_of:
            sv = alpha > 1e-12
            machine_of[id(sol)] = PairMachine(lower, upper, rows[sv], alpha[sv] * s[sv], -rho)
        machines.append(machine_of[id(sol)])
    return tuple(machines), tuple(warnings)


def fit(spec: ModelSpec, X, y) -> PairwiseSvm:
    """One pairwise machine on every row of X."""
    X, y = validate_training_data(X, y)
    _, [(_, classes, pairs)], [problems] = _plan(spec, X, y, [None])
    machines, warnings = _machines(pairs, dual.solve(problems), {})
    return PairwiseSvm(classes, machines, X, 1.0 / X.shape[1], warnings)


def folds(spec: ModelSpec, X, y, held):
    """The SVM's leave-one-out ``folds``: a group builds one kernel and the
    pair duals of every fold, and fold i votes on column i of the kernel."""
    K, plans, problems = _plan(spec, X, y, held)
    plan_of = {r: (classes, pairs) for r, classes, pairs in plans}
    machine_of = {}

    def fold(i, solutions):
        classes, pairs = plan_of[i]
        machines, warnings = _machines(pairs, solutions, machine_of)
        return _vote(classes, machines, K[:, i]), warnings
    return problems, fold
