"""Grade classifiers and baselines with a uniform train/predict contract.

``train(spec, X, y)`` returns a fitted model whose ``predict(x)`` yields a
PredictionOutcome: an integer grade 1..5 plus one finite score per grade.
Unless a model documents its own rule, score ties resolve to the lower
grade.

``predict_held_out(spec, groups, jobs)`` is leave-one-out for every model.
A group holds one matrix X, its labels y, and the rows its folds hold out;
fold i trains on every row of X but i and predicts row i.  Every model
supplies ``folds(spec, X, y, held)``, which does the work the folds of a
group share once and returns (duals, fold): ``duals[f]`` lists the
``dual.Problem``s of the fold that holds out ``held[f]`` (none for a model
that solves no dual), and ``fold(i, solutions)`` returns that fold's
(PredictionOutcome, warnings) from its duals' solutions.  The engine here
validates each group once, solves the duals of every group through
``dual.solve_groups`` and maps ``fold`` over its held-out rows.  Each fold
is bit-identical to the model ``train`` fits on that fold's own rows.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Iterator

from . import baselines, bayes, dual, neighbors, regression, svm, tree
from .base import (KINDS, N_GRADES, DimensionMismatch, ModelSpec, PredictionOutcome,
                   argmax_lower_grade, validate_training_data)

# Per model kind: the fitter of one training set, its leave-one-out
# ``folds``, and whether its folds may run on threads.  The SVM and SVR
# folds only read their solved duals, the tree's growers share a subtree
# cache, and a baseline fold is too small for a thread to pay.
_MODELS = {
    "svm": (svm.fit, svm.folds, False),
    "linreg": (regression.fit_least_squares, regression.least_squares_folds, True),
    "svr": (regression.fit_svr, regression.svr_folds, False),
    "tree": (tree.fit, tree.folds, False),
    "nb": (bayes.fit, bayes.folds, True),
    "knn": (neighbors.fit, neighbors.folds, True),
    "random": (baselines.fit_random, baselines.random_folds, False),
    "majority": (baselines.fit_majority, baselines.majority_folds, False),
}


def train(spec: ModelSpec, X, y):
    """Fit the model named by ``spec.kind`` on grade-labeled rows."""
    return _MODELS[spec.kind][0](spec, X, y)


def predict_held_out(spec: ModelSpec, groups, jobs: int = 1) -> Iterator[list]:
    """Leave-one-out over groups of folds that share one matrix.

    ``groups`` yields (X, y, held) and is read once: fold f of a group
    trains on every row of X but ``held[f]`` and predicts that row.  Yields,
    per group, each fold's (PredictionOutcome, warnings).

    The duals of all groups are solved in lock-step batches on the calling
    thread; a group without duals is yielded as soon as it is read.
    Linear regression, naive Bayes and KNN map their folds on ``jobs``
    threads when jobs > 1; a fold's result depends only on its own rows,
    so the thread count cannot change it.
    """
    _, folds, threaded = _MODELS[spec.kind]

    def plan(group):
        X, y, held = group
        duals, fold = folds(spec, *validate_training_data(X, y), held)
        return duals, (held, fold)

    with ThreadPoolExecutor(jobs) if threaded and jobs > 1 else nullcontext() as pool:
        for (held, fold), solutions in dual.solve_groups(groups, plan):
            outcomes = list((pool.map if pool else map)(fold, held, solutions))
            # Free this group's shared work before the next group is read.
            del fold, solutions
            yield outcomes


__all__ = [
    "KINDS", "N_GRADES", "DimensionMismatch",
    "ModelSpec", "PredictionOutcome", "argmax_lower_grade",
    "predict_held_out", "train",
    "baselines", "bayes", "dual", "neighbors", "regression", "svm", "tree",
]
