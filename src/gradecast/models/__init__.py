"""Grade classifiers and baselines with a uniform train/predict contract.

``train(spec, X, y)`` returns a fitted model whose ``predict(x)`` yields a
PredictionOutcome: an integer grade 1..5 plus one finite score per grade.
Unless a model documents its own rule, score ties resolve to the lower
grade.

``predict_held_out(spec, groups, jobs)`` is leave-one-out for every model.
A group holds one matrix X, its labels y, and the rows its folds hold out;
fold i trains on every row of X but i and predicts row i.  It dispatches
to one group-level function per model, which does the work the folds of
a group share once and predicts every fold from it.  Each fold is
bit-identical to the model ``train`` fits on that fold's own rows.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Iterator

from . import baselines, bayes, dual, neighbors, regression, svm, tree
from .base import (KINDS, N_GRADES, DimensionMismatch, ModelSpec, PredictionOutcome,
                   argmax_lower_grade)

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


def train(spec: ModelSpec, X, y):
    """Fit the model named by ``spec.kind`` on grade-labeled rows."""
    return _FITTERS[spec.kind](spec, X, y)


def predict_held_out(spec: ModelSpec, groups, jobs: int = 1) -> Iterator[list]:
    """Leave-one-out over groups of folds that share one matrix.

    ``groups`` yields (X, y, held): fold f of a group trains on every row of
    X but ``held[f]`` and predicts that row.  Yields, per group, each fold's
    (PredictionOutcome, warnings).

    Every model predicts a group's folds from work it does once for the
    group.  The SVM and the epsilon-SVR build one kernel per group and solve
    every fold's duals in lock-step batches; the tree codes each group's
    matrix once and grows every fold from it; the baselines read no
    feature.  All of these run on the calling thread.  Linear regression
    (one linear kernel), naive Bayes (per-grade statistics) and KNN (the
    group matrix) run their per-fold steps on ``jobs`` threads when
    jobs > 1; a fold's result depends only on its own rows, so the thread
    count cannot change it.
    """
    if spec.kind == "svm":
        return svm.predict_held_out(spec, groups)
    if spec.kind == "svr":
        return regression.predict_svr_held_out(spec, groups)
    if spec.kind == "tree":
        return tree.predict_held_out(groups)
    if spec.kind == "random":
        return baselines.predict_random_held_out(spec, groups)
    if spec.kind == "majority":
        return baselines.predict_majority_held_out(groups)
    return _on_threads(_PER_FOLD[spec.kind], spec, groups, jobs)


# Group-level leave-one-out of the models whose folds map over threads.
_PER_FOLD = {
    "linreg": regression.predict_least_squares_held_out,
    "nb": bayes.predict_held_out,
    "knn": neighbors.predict_held_out,
}


def _on_threads(predict, spec: ModelSpec, groups, jobs: int) -> Iterator[list]:
    """``predict(spec, groups, map_folds)``, where ``map_folds(fold, held)``
    is ``[fold(i) for i in held]``, on ``jobs`` threads when jobs > 1."""
    if jobs <= 1:
        yield from predict(spec, groups, lambda fold, held: [fold(i) for i in held])
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        yield from predict(spec, groups, lambda fold, held: list(pool.map(fold, held)))


__all__ = [
    "KINDS", "N_GRADES", "DimensionMismatch",
    "ModelSpec", "PredictionOutcome", "argmax_lower_grade",
    "predict_held_out", "train",
    "baselines", "bayes", "dual", "neighbors", "regression", "svm", "tree",
]
