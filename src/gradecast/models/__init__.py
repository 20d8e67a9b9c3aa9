"""Grade classifiers and baselines with a uniform train/predict contract.

``train(spec, X, y)`` returns a fitted model whose ``predict(x)`` yields a
PredictionOutcome: an integer grade 1..5 plus one finite score per grade.
Unless a model documents its own rule, score ties resolve to the lower
grade.

``predict_held_out(spec, groups, jobs)`` is leave-one-out for every model.
A group holds one matrix X, its labels y, and the rows its folds hold out;
fold i trains on every row of X but i and predicts row i.  Each fold is
bit-identical to the model ``train`` fits on that fold's own rows.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Iterator

import numpy as np

from ..rng import mix_seed
from . import baselines, bayes, dual, neighbors, regression, svm, tree
from .base import (KINDS, N_GRADES, REGRESSION_BACKENDS, DimensionMismatch,
                   ModelSpec, PredictionOutcome, argmax_lower_grade)

# One training set's fitter, by model kind or, for regression, by backend.
_FITTERS = {
    "svm": svm.fit,
    "least_squares": regression.fit_least_squares,
    "epsilon_svr": regression.fit_svr,
    "tree": tree.fit,
    "nb": bayes.fit,
    "knn": neighbors.fit,
    "random": baselines.fit_random,
    "majority": baselines.fit_majority,
}


def _model(spec: ModelSpec) -> str:
    return spec.regression_backend if spec.kind == "regression" else spec.kind


def train(spec: ModelSpec, X, y):
    """Fit the model named by ``spec.kind`` on grade-labeled rows."""
    return _FITTERS[_model(spec)](spec, X, y)


def predict_held_out(spec: ModelSpec, groups, jobs: int = 1) -> Iterator[list]:
    """Leave-one-out over groups of folds that share one matrix.

    ``groups`` yields (X, y, held): fold f of a group trains on every row of
    X but ``held[f]`` and predicts that row.  Yields, per group, each fold's
    (PredictionOutcome, warnings).

    The SVM and the epsilon-SVR build one kernel per group and solve every
    fold's duals in lock-step batches; the tree codes each group's matrix
    once and grows every fold from it.  Both run on the calling thread.  The
    other models fit fold by fold on the group's rows other than the held-out
    one, on ``jobs`` threads when jobs > 1; fold i's spec carries its own
    seed, so the thread count cannot change a result.
    """
    model = _model(spec)
    if model == "svm":
        return svm.predict_held_out(spec, groups)
    if model == "epsilon_svr":
        return regression.predict_svr_held_out(spec, groups)
    if model == "tree":
        return tree.predict_held_out(groups)
    return _fold_by_fold(spec, _FITTERS[model], groups, jobs)


def _fold_by_fold(spec: ModelSpec, fit, groups, jobs: int) -> Iterator[list]:
    def run_fold(X, y, i):
        model = fit(replace(spec, seed=mix_seed(spec.seed, i)),
                    np.delete(X, i, axis=0), np.delete(y, i))
        # np.delete keeps X's memory order, so the fold's rows are
        # bit-identical to its own transformed rows.  The held-out row is
        # made contiguous: a strided row of a Fortran-ordered X changes how
        # a dot product sums it.
        return model.predict(np.ascontiguousarray(X[i])), model.warnings

    if jobs <= 1:
        for X, y, held in groups:
            yield [run_fold(X, y, i) for i in held]
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for X, y, held in groups:
            yield list(pool.map(lambda i: run_fold(X, y, i), held))


__all__ = [
    "KINDS", "N_GRADES", "REGRESSION_BACKENDS", "DimensionMismatch",
    "ModelSpec", "PredictionOutcome", "argmax_lower_grade",
    "predict_held_out", "train",
    "baselines", "bayes", "dual", "neighbors", "regression", "svm", "tree",
]
