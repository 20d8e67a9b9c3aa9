"""Grade classifiers and baselines with a uniform train/predict contract.

``train(spec, X, y)`` returns a fitted model whose ``predict(x)`` yields a
PredictionOutcome: an integer grade 1..5 plus one finite score per grade.
Unless a model documents its own rule, score ties resolve to the lower
grade.
"""
from __future__ import annotations

from . import baselines, bayes, dual, neighbors, regression, svm, tree
from .base import (KINDS, N_GRADES, REGRESSION_BACKENDS, DimensionMismatch,
                   ModelSpec, PredictionOutcome, argmax_lower_grade)

_FITTERS = {
    "svm": svm.fit,
    "regression": regression.fit,
    "tree": tree.fit,
    "nb": bayes.fit,
    "knn": neighbors.fit,
    "random": baselines.fit_random,
    "majority": baselines.fit_majority,
}


def train(spec: ModelSpec, X, y):
    """Fit the model named by ``spec.kind`` on grade-labeled rows."""
    return _FITTERS[spec.kind](spec, X, y)


__all__ = [
    "KINDS", "N_GRADES", "REGRESSION_BACKENDS", "DimensionMismatch",
    "ModelSpec", "PredictionOutcome", "argmax_lower_grade", "train",
    "baselines", "bayes", "dual", "neighbors", "regression", "svm", "tree",
]
