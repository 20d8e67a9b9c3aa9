"""Reference baselines: majority class and uniform random guessing."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import mix_seed, uniforms
from .base import N_GRADES, ModelSpec, PredictionOutcome, argmax_lower_grade, check_dim

_PREDICT_STREAM = 0x7D1C7


@dataclass(frozen=True, eq=False)
class MajorityBaseline:
    grade: int
    scores: np.ndarray      # training class frequencies
    n_features: int
    warnings: tuple[str, ...] = ()

    def predict(self, x) -> PredictionOutcome:
        check_dim(x, self.n_features)
        return PredictionOutcome(self.grade, self.scores.copy())


@dataclass(frozen=True, eq=False)
class RandomBaseline:
    """Uniform guess over the five grades.

    The draw comes from a counter-based stream keyed by the seed, so every
    prediction of one model is the same; callers that need independent
    draws give each prediction its own seed (the cross-validation harness
    derives one per fold with ``mix_seed``).  The five scores are
    ``rng.uniforms``, computed in plain Python without importing
    ``numpy.random``; they equal the draws of ``rng.substream`` bit for bit.
    """

    seed: int
    n_features: int
    warnings: tuple[str, ...] = ()

    def predict(self, x) -> PredictionOutcome:
        check_dim(x, self.n_features)
        return _random_outcome(self.seed)


def _random_outcome(seed: int) -> PredictionOutcome:
    # argmax of five i.i.d. uniforms is itself a uniform draw over the
    # grades, and it keeps grade consistent with class_scores.
    scores = np.array(uniforms(seed, _PREDICT_STREAM, 0, count=N_GRADES))
    return PredictionOutcome(argmax_lower_grade(scores), scores)


def _majority(counts: np.ndarray) -> tuple[int, np.ndarray]:
    """The majority grade of training grade ``counts`` and their frequencies."""
    # Frequency ties go to the higher grade.
    return N_GRADES - int(np.argmax(counts[::-1])), counts / counts.sum()


def fit_majority(spec: ModelSpec, X, y) -> MajorityBaseline:
    return MajorityBaseline(*_majority(np.bincount(y, minlength=N_GRADES + 1)[1:]),
                            X.shape[1])


def fit_random(spec: ModelSpec, X, y) -> RandomBaseline:
    return RandomBaseline(spec.seed, X.shape[1])


def majority_folds(spec: ModelSpec, X, y, held):
    """The majority baseline's leave-one-out ``folds``: fold i counts the
    group's grades less row i's."""
    counts = np.bincount(y, minlength=N_GRADES + 1)[1:]
    less = np.eye(N_GRADES, dtype=counts.dtype)
    return [[] for _ in held], lambda i, _: (
        PredictionOutcome(*_majority(counts - less[y[i] - 1])), ())


def random_folds(spec: ModelSpec, X, y, held):
    """The random baseline's leave-one-out ``folds``: fold i draws from its
    own seed ``mix_seed(spec.seed, i)``."""
    return [[] for _ in held], lambda i, _: (_random_outcome(mix_seed(spec.seed, i)), ())
