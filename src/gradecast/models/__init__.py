"""Grade classifiers and baselines with a uniform train/predict contract.

``train(spec, X, y)`` returns a fitted model whose ``predict(x)`` yields a
PredictionOutcome: an integer grade 1..5 plus one finite score per grade.
Unless a model documents its own rule, score ties resolve to the lower
grade.
"""
from __future__ import annotations

from typing import Iterator

from . import baselines, bayes, dual, neighbors, regression, svm, tree
from .base import (KINDS, N_GRADES, REGRESSION_BACKENDS, DimensionMismatch,
                   ModelSpec, PredictionOutcome, argmax_lower_grade)

# Models fitted one training set at a time.
_FITTERS = {
    "regression": regression.fit_least_squares,
    "tree": tree.fit,
    "nb": bayes.fit,
    "knn": neighbors.fit,
    "random": baselines.fit_random,
    "majority": baselines.fit_majority,
}


def solves_in_batch(spec: ModelSpec) -> bool:
    """True for the kernel models, whose folds share lock-step dual solves."""
    return spec.kind == "svm" or (spec.kind == "regression"
                                  and spec.regression_backend == "epsilon_svr")


def fit_folds(spec: ModelSpec, folds) -> Iterator:
    """Fit the model named by ``spec.kind`` on each training set (X, y) of
    ``folds``, yielding the fitted models in order.

    The SVM and the epsilon-SVR solve the duals of all folds together, in
    lock-step batches (see ``dual.solve_groups``); the other models fit fold
    by fold.
    """
    if spec.kind == "svm":
        return svm.fit_folds(spec, folds)
    if solves_in_batch(spec):
        return regression.fit_svr_folds(spec, folds)
    return (_FITTERS[spec.kind](spec, X, y) for X, y in folds)


def predict_held_out(spec: ModelSpec, groups) -> Iterator[list]:
    """Leave-one-out for the kernel models (``solves_in_batch``).

    ``groups[g]`` is (X, y, held): fold f of group g trains on every row of X
    but ``held[f]`` and predicts that row.  Each group builds one kernel on
    all its rows, which its folds' duals and predictions share.  Yields, per
    group, each fold's (PredictionOutcome, warnings); every fold is
    bit-identical to a model trained on its own rows.
    """
    if spec.kind == "svm":
        return svm.predict_held_out(spec, groups)
    return regression.predict_svr_held_out(spec, groups)


def train(spec: ModelSpec, X, y):
    """Fit the model named by ``spec.kind`` on grade-labeled rows."""
    return next(fit_folds(spec, [(X, y)]))


__all__ = [
    "KINDS", "N_GRADES", "REGRESSION_BACKENDS", "DimensionMismatch",
    "ModelSpec", "PredictionOutcome", "argmax_lower_grade", "fit_folds",
    "predict_held_out", "solves_in_batch", "train",
    "baselines", "bayes", "dual", "neighbors", "regression", "svm", "tree",
]
