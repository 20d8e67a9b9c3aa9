"""Early course-grade prediction from homework submission logs.

Pipeline: ingest raw submission/gradebook CSVs, extract per-student
features from the first weeks of activity, select features by variance
thresholds, train small from-scratch classifiers, and score them with
leave-one-out cross-validation.  A seeded synthetic-cohort generator
provides desk-scale data with a known grade distribution.
"""
from .evaluation import (EvalReport, LooPrediction, loocv, render_report, summarize,
                         threshold_sweep)
from .features import FeatureMatrix, assemble_feature_matrix
from .ingest import Dataset, Grade, StudentRecord, SubmissionEvent, load_dataset
from .models import ModelSpec, PredictionOutcome, train
from .selection import variance_mask
from .synth import CohortConfig, generate_cohort, write_cohort

__version__ = "0.1.0"

__all__ = [
    "CohortConfig",
    "Dataset",
    "EvalReport",
    "FeatureMatrix",
    "Grade",
    "LooPrediction",
    "ModelSpec",
    "PredictionOutcome",
    "StudentRecord",
    "SubmissionEvent",
    "assemble_feature_matrix",
    "generate_cohort",
    "load_dataset",
    "loocv",
    "render_report",
    "summarize",
    "threshold_sweep",
    "train",
    "variance_mask",
    "write_cohort",
    "__version__",
]
