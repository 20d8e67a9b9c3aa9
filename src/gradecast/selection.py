"""Variance-threshold feature selection and min-max normalization.

Only the two per-question families are filtered: a performance column
survives iff its population variance strictly exceeds t_perf, a
submission-count column iff it strictly exceeds t_subs.  The 13 summary
columns are always kept.  Variances are computed on raw, pre-normalization
values; normalization (optional) comes after masking.

``variance_mask`` is the one place a column mask is built:
``fit_preprocessor`` masks the rows it is given, and the sweep's
``mask.json`` is the mask of all rows at the winning thresholds.  The
leave-one-out harness and the threshold sweep live in ``evaluation``,
which imports this module; this module imports nothing from it.

``fit_fold_preprocessors`` fits the preprocessor of every leave-one-out
fold in one vectorized pass, each bit-identical to ``fit_preprocessor`` on
the fold's own rows: variances from all-row column sums less the held-out
row's terms, checked against an error margin with an exact re-fit of any
fold too close to call, and exact mins and maxes from each column's two
smallest and two largest values.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .features import GROUP_PERF, GROUP_SUBS


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


def fit_fold_preprocessors(values: np.ndarray, groups, t_perf: float, t_subs: float,
                           normalize: bool) -> list[Preprocessor]:
    """Every leave-one-out fold's preprocessor, from one pass over all rows.

    Fold i's preprocessor equals ``fit_preprocessor`` on every row but i, bit
    for bit.  Fold i's column min and max are the column's smallest and
    largest values, or the runner-up where row i holds them: a tie makes the
    two equal, so this is exact.  Fold i's variances come from column sums
    over all rows, centred on the all-row mean, less row i's terms.  That
    formula rounds differently from ``np.var``, so a fold with a filtered
    column whose variance is within its error margin of the threshold is
    masked by ``variance_mask`` on its own rows, as ``fit_preprocessor``
    does.  A per-fold statistic joins this pass as one more (fold, column)
    array.
    """
    values = np.asarray(values, dtype=float)
    n, d = values.shape

    def own_rows(i):
        return values[np.arange(n) != i]

    # Fitted fold by fold: a non-finite value has no error margin, and a min
    # or max over a tie of 0.0 and -0.0 keeps whichever its reduction meets
    # last, which the runner-up rule cannot tell.
    if (n < 2 or not np.isfinite(values).all()
            or normalize and np.signbit(values[values == 0.0]).any()):
        return [fit_preprocessor(own_rows(i), groups, t_perf, t_subs, normalize)
                for i in range(n)]
    fold = np.arange(n)[:, None]
    part = np.partition(values, (1, n - 2), axis=0)
    lo = np.where(fold == values.argmin(axis=0), part[1], part[0])
    hi = np.where(fold == values.argmax(axis=0), part[n - 2], part[n - 1])

    tags = np.asarray(groups)
    perf = tags == GROUP_PERF
    filtered = perf | (tags == GROUP_SUBS)
    m = n - 1
    c = values[:, filtered]
    c -= c.mean(axis=0)
    mean = c.sum(axis=0) - c                  # fold i's sum, less row i's term
    mean /= m
    np.multiply(c, c, out=c)
    var = c.sum(axis=0) - c
    var /= m
    var -= mean * mean
    # Both this formula and np.var on the fold's rows are first-order
    # recursive sums of at most n terms of size at most 4 max|x|^2 (Higham,
    # "Accuracy and Stability of Numerical Algorithms", 2002, ch. 4):
    # together they err by less than 29 n eps max|x|^2, and the margin
    # doubles that.  A fold whose column is one value k whose multiples up
    # to m are doubles sums exactly, so np.var gives exactly 0 there.
    peak = np.maximum(-part[0], part[n - 1])[filtered]
    margin = 64.0 * n * np.finfo(float).eps * peak * peak
    zero = lo[:, filtered] == hi[:, filtered]
    zero[zero] = _exact_multiples(lo[:, filtered][zero], m)
    var[zero] = 0.0
    t = np.where(perf[filtered], t_perf, t_subs)
    unsure = ((np.abs(var - t) < margin) & ~zero).any(axis=1)
    kept = np.ones((n, d), dtype=bool)
    kept[:, filtered] = var > t

    preps = []
    for i in range(n):
        kept_i = (variance_mask(own_rows(i), groups, t_perf, t_subs) if unsure[i]
                  else kept[i])
        if not normalize:
            preps.append(Preprocessor(kept=kept_i, mins=None, ranges=None))
            continue
        mins = lo[i].compress(kept_i)
        preps.append(Preprocessor(kept=kept_i, mins=mins,
                                  ranges=hi[i].compress(kept_i) - mins))
    return preps


def _exact_multiples(k: np.ndarray, m: int) -> np.ndarray:
    """Where j * k is a double for every j <= m, so that any sum of up to m
    copies of k is exact."""
    mant, _ = np.frexp(k)
    sig = np.abs(mant * 2.0 ** 53).astype(np.int64)      # the significand, as an integer
    odd = sig // np.maximum(sig & -sig, 1)              # less its trailing zero bits
    return (odd <= (2 ** 53 - 1) // m) & (np.abs(k) <= np.finfo(float).max / m)


def write_mask_json(kept: np.ndarray, thresholds: tuple[float, float], names,
                    path) -> None:
    payload = {
        "t_perf": float(thresholds[0]),
        "t_subs": float(thresholds[1]),
        "kept": [n for n, k in zip(names, kept) if k],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
