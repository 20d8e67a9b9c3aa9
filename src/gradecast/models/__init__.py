"""Grade classifiers and baselines with a uniform train/predict contract.

``train(spec, X, y)`` returns a fitted model whose ``predict(x)`` yields a
PredictionOutcome: an integer grade 1..5 plus one finite score per grade.
Unless a model documents its own rule, score ties resolve to the lower
grade.

``predict_held_out(spec, groups, jobs)`` is leave-one-out for every model.
A group holds one matrix X, its labels y, and the rows its folds hold out;
fold i trains on every row of X but i and predicts row i.  The SVM and the
SVR solve every fold's duals in lock-step batches.  Every other model
supplies ``folds(spec, X, y, held)``, which does the work the folds of a
group share once and returns ``fold(i) -> (PredictionOutcome, warnings)``;
the engine here loops over the groups, validates each once and maps
``fold`` over its held-out rows.  Each fold is bit-identical to the model
``train`` fits on that fold's own rows.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Iterator

from . import baselines, bayes, dual, neighbors, regression, svm, tree
from .base import (KINDS, N_GRADES, DimensionMismatch, ModelSpec, PredictionOutcome,
                   argmax_lower_grade, validate_training_data)

# One training set's fitter, by model kind.
_FITTERS = {
    "svm": svm.fit,
    "linreg": regression.fit_least_squares,
    "svr": regression.fit_svr,
    "tree": tree.fit,
    "nb": bayes.fit,
    "knn": neighbors.fit,
    "random": baselines.fit_random,
    "majority": baselines.fit_majority,
}

# Each fold-by-fold model's ``folds``, and whether its folds may run on
# threads.  The tree's growers share a subtree cache, and a baseline fold is
# too small for a thread to pay.
_FOLDS = {
    "linreg": (regression.least_squares_folds, True),
    "tree": (tree.folds, False),
    "nb": (bayes.folds, True),
    "knn": (neighbors.folds, True),
    "random": (baselines.random_folds, False),
    "majority": (baselines.majority_folds, False),
}


def train(spec: ModelSpec, X, y):
    """Fit the model named by ``spec.kind`` on grade-labeled rows."""
    return _FITTERS[spec.kind](spec, X, y)


def predict_held_out(spec: ModelSpec, groups, jobs: int = 1) -> Iterator[list]:
    """Leave-one-out over groups of folds that share one matrix.

    ``groups`` yields (X, y, held) and is read once: fold f of a group
    trains on every row of X but ``held[f]`` and predicts that row.  Yields,
    per group, each fold's (PredictionOutcome, warnings).

    The SVM and the SVR build one kernel per group and solve every fold's
    duals in lock-step batches, on the calling thread.  Linear regression,
    naive Bayes and KNN map their folds on ``jobs`` threads when jobs > 1;
    a fold's result depends only on its own rows, so the thread count
    cannot change it.
    """
    if spec.kind == "svm":
        return svm.predict_held_out(spec, groups)
    if spec.kind == "svr":
        return regression.predict_svr_held_out(spec, groups)
    return _by_fold(spec, groups, jobs)


def _by_fold(spec: ModelSpec, groups, jobs: int) -> Iterator[list]:
    """``predict_held_out`` of a model in ``_FOLDS``."""
    folds, threaded = _FOLDS[spec.kind]
    with ThreadPoolExecutor(jobs) if threaded and jobs > 1 else nullcontext() as pool:
        for X, y, held in groups:
            X, y = validate_training_data(X, y)
            yield list((pool.map if pool else map)(folds(spec, X, y, held), held))


__all__ = [
    "KINDS", "N_GRADES", "DimensionMismatch",
    "ModelSpec", "PredictionOutcome", "argmax_lower_grade",
    "predict_held_out", "train",
    "baselines", "bayes", "dual", "neighbors", "regression", "svm", "tree",
]
