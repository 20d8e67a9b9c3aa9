"""Shared model types: specs, prediction outcomes, validation helpers."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Every model, by the name the CLI and the report use, in report order.
KINDS = ("svm", "linreg", "svr", "tree", "nb", "knn", "random", "majority")
N_GRADES = 5

# Finite stand-in score for grades absent from the training set; argmax can
# never pick it while any real score exists.
SCORE_FLOOR = float(-np.finfo(np.float64).max)


class DimensionMismatch(ValueError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"expected {expected} features, got {got}")


@dataclass(frozen=True)
class ModelSpec:
    """Which model to train plus its hyperparameters.

    ``kind`` is one of KINDS.  Defaults: C=1.0 for the SVM and the SVR
    (the SVM's RBF kernel has gamma = 1 / n_features), k=5 neighbors,
    epsilon=0.1 for the SVR.  ``seed`` only matters for the random baseline.
    """

    kind: str
    C: float = 1.0
    k: int = 5
    epsilon: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not self.C > 0:
            raise ValueError(f"C must be positive, got {self.C!r}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k!r}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon!r}")


@dataclass(frozen=True, eq=False)
class PredictionOutcome:
    """Predicted grade plus one finite score per grade (index 0 = F)."""

    grade: int
    class_scores: np.ndarray

    def __post_init__(self):
        if self.class_scores.shape != (N_GRADES,):
            raise ValueError("class_scores must have one entry per grade")
        if not np.all(np.isfinite(self.class_scores)):
            raise ValueError("class_scores must be finite")
        if not 1 <= self.grade <= N_GRADES:
            raise ValueError(f"grade {self.grade} outside 1..{N_GRADES}")


def argmax_lower_grade(scores: np.ndarray) -> int:
    """Grade with the highest score; exact ties go to the lower grade."""
    return int(np.argmax(scores)) + 1


def check_dim(x: np.ndarray, n_features: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n_features,):
        raise DimensionMismatch(n_features, x.shape[0] if x.ndim == 1 else -1)
    return x


def linear_kernel(A, B) -> np.ndarray:
    """A @ B.T, with entry (i, j) summed from rows A[i] and B[j] alone.

    A BLAS product's bits depend on where a row sits and on how many rows
    there are.  Here both operands are made C-contiguous and ``np.einsum``
    (which does not call BLAS unless asked to optimize) sums every entry
    over the columns in the same order.  So the kernel of a row subset is
    the same subset of the full kernel, bit for bit, the kernel of a matrix
    with itself is symmetric, and a column against one row equals the
    full kernel's column: leave-one-out folds can share one kernel.
    """
    A = np.ascontiguousarray(np.atleast_2d(A), dtype=float)
    B = np.ascontiguousarray(np.atleast_2d(B), dtype=float)
    return np.einsum("ik,jk->ij", A, B)


def validate_training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError("X must be a non-empty 2-D matrix")
    if y.shape != (X.shape[0],):
        raise ValueError("y must have one label per row of X")
    if np.any((y < 1) | (y > N_GRADES)):
        raise ValueError(f"labels must be grades 1..{N_GRADES}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X must be finite")
    return X, y
