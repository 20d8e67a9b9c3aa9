"""Variance-threshold feature selection and min-max normalization.

Only the two per-question families are filtered: a performance column
survives iff its population variance strictly exceeds t_perf, a
submission-count column iff it strictly exceeds t_subs.  The 13 summary
columns are always kept.  Variances are computed on raw, pre-normalization
values; normalization (optional) comes after masking.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .features import GROUP_PERF, GROUP_SUBS, FeatureMatrix

SWEEP_THRESHOLDS = ((0.00, 0.00), (0.02, 0.05), (0.03, 0.07), (0.04, 0.10))


class SweepFailure(RuntimeError):
    """A model-training failure during the sweep, tagged with its combination."""

    def __init__(self, thresholds: tuple[float, float], cause: BaseException):
        super().__init__(f"threshold combination {thresholds}: {cause}")
        self.thresholds = thresholds


@dataclass(frozen=True, eq=False)
class SelectionMask:
    kept: np.ndarray                    # bool flag per original column
    thresholds: tuple[float, float]     # (t_perf, t_subs)


@dataclass(frozen=True, eq=False)
class Preprocessor:
    """Column mask plus optional min-max stats, fitted on training rows only."""

    kept: np.ndarray
    mins: np.ndarray | None
    ranges: np.ndarray | None

    def key(self) -> tuple:
        """Equal for preprocessors with equal fitted statistics, which
        transform every row alike."""
        return tuple(None if value is None else np.asarray(value).tobytes()
                     for value in (getattr(self, f.name) for f in fields(self)))

    def transform(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if self.mins is None:
            # One C-ordered copy: boolean column indexing returns a Fortran-
            # ordered array, and the memory order decides how BLAS sums the
            # models' Gram and kernel products, down to the last bit.
            return values.compress(self.kept, axis=1)
        # Scaled column by column in the transpose: its .T is the Fortran-
        # ordered array that boolean column indexing gave, for the same
        # reason.  Columns constant on the training rows map to 0.
        cols = values.T.compress(self.kept, axis=0)
        cols -= self.mins[:, None]
        scaled = np.zeros(cols.shape)
        np.divide(cols, self.ranges[:, None], out=scaled,
                  where=(self.ranges > 0)[:, None])
        return scaled.T


def variance_mask(values: np.ndarray, groups, t_perf: float, t_subs: float) -> np.ndarray:
    variances = np.var(np.asarray(values, dtype=float), axis=0)
    tags = np.asarray(groups)
    kept = np.ones(variances.size, dtype=bool)
    perf = tags == GROUP_PERF
    subs = tags == GROUP_SUBS
    kept[perf] = variances[perf] > t_perf
    kept[subs] = variances[subs] > t_subs
    return kept


def apply_variance_threshold(matrix: FeatureMatrix, t_perf: float,
                             t_subs: float) -> SelectionMask:
    kept = variance_mask(matrix.values, matrix.groups, t_perf, t_subs)
    return SelectionMask(kept=kept, thresholds=(float(t_perf), float(t_subs)))


def fit_preprocessor(values: np.ndarray, groups, t_perf: float, t_subs: float,
                     normalize: bool) -> Preprocessor:
    """Fit mask (and min-max stats when normalizing) on the given rows."""
    values = np.asarray(values, dtype=float)
    kept = variance_mask(values, groups, t_perf, t_subs)
    if not normalize:
        return Preprocessor(kept=kept, mins=None, ranges=None)
    sub = values[:, kept]
    mins = sub.min(axis=0)
    ranges = sub.max(axis=0) - mins
    return Preprocessor(kept=kept, mins=mins, ranges=ranges)


@dataclass(frozen=True)
class ThresholdSweepResult:
    accuracies: dict[tuple[float, float], float]
    winner: tuple[float, float]


def threshold_sweep(matrix: FeatureMatrix, y: np.ndarray, model_spec,
                    normalize: bool = False, jobs: int = 1) -> ThresholdSweepResult:
    """Leave-one-out accuracy for each fixed threshold combination.

    The winner is the combination with the highest accuracy; exact ties go
    to the lexicographically smaller (t_perf, t_subs) pair.
    """
    from .evaluation import accuracy, loocv_matrix

    accuracies: dict[tuple[float, float], float] = {}
    for combo in SWEEP_THRESHOLDS:
        try:
            preds = loocv_matrix(matrix, y, model_spec, thresholds=combo,
                                 normalize=normalize, jobs=jobs)
        except Exception as exc:
            raise SweepFailure(combo, exc) from exc
        accuracies[combo] = accuracy(preds)
    winner = min(accuracies, key=lambda combo: (-accuracies[combo], combo))
    return ThresholdSweepResult(accuracies, winner)


def write_mask_json(mask: SelectionMask, names, path) -> None:
    payload = {
        "t_perf": mask.thresholds[0],
        "t_subs": mask.thresholds[1],
        "kept": [n for n, k in zip(names, mask.kept) if k],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
