"""Leave-one-out evaluation: fold preparation, harness, threshold sweep,
metrics, and report rendering.

Each fold holds out one student.  Feature selection and normalization
statistics are fitted on the remaining rows only, the model is retrained,
and the held-out row is transformed with the fold's own statistics before
prediction, so nothing about the held-out student leaks into fold
preparation.  ``prepare_fold_preprocessors`` is the one place that turns
settings into per-fold preprocessors, all fitted in one vectorized pass
(``selection.fit_fold_preprocessors``) and equal bit for bit to a fit on
each fold's own rows; ``global_prep=True`` switches to the fit-once
alternative for comparison.  ``loocv_matrix`` takes its output, and
``loocv`` and ``threshold_sweep`` call both.  Folds are independent and
deterministic: each derives its own seed from (master seed, fold index),
so thread count cannot change results.

Every model runs through one engine.  Folds are grouped by equal fitted
preprocessor, and ``loocv_matrix`` hands the groups to
``models.predict_held_out`` in one pass, each group's matrix (all rows,
transformed by the group's preprocessor) built once as it is read; fold i
of a group trains on that matrix's rows other than i and predicts row i.
Every fold is bit-identical to a model trained on its own transformed
rows.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .features import FeatureMatrix, assemble_feature_matrix
from .ingest import Dataset, Grade
from .models import KINDS, N_GRADES, ModelSpec, PredictionOutcome, predict_held_out
from .selection import Preprocessor, fit_fold_preprocessors, fit_preprocessor

DEFAULT_THRESHOLDS = (0.02, 0.05)
SWEEP_THRESHOLDS = ((0.00, 0.00), (0.02, 0.05), (0.03, 0.07), (0.04, 0.10))

# Report rows follow the conventional comparison-table order.
MODEL_ORDER = KINDS
DISPLAY_NAMES = {
    "svm": "SVM",
    "linreg": "Lin. Reg",
    "svr": "SVR",
    "tree": "Decision Tree",
    "nb": "Naive Bayes",
    "knn": "KNN",
    "random": "Random",
    "majority": "All A",
}


@dataclass(frozen=True, eq=False)
class LooPrediction:
    student_id: str
    true_grade: int
    outcome: PredictionOutcome
    fold_index: int


@dataclass(frozen=True)
class EvalReport:
    n: int
    accuracy: float
    mse: float
    micro_ap: float
    auroc: float
    f1_micro: float
    distance_histogram: tuple[int, int, int, int, int]
    auroc_degenerate: bool = False


@dataclass(frozen=True)
class ThresholdSweepResult:
    accuracies: dict[tuple[float, float], float]
    winner: tuple[float, float]
    # "thresholds <t_perf>,<t_subs>: fold <i>: <warning>", in combination
    # order, then fold order.
    warnings: tuple[str, ...]


class SweepFailure(RuntimeError):
    """A model-training failure during the sweep, tagged with its combination."""

    def __init__(self, thresholds: tuple[float, float], cause: BaseException):
        super().__init__(f"threshold combination {thresholds}: {cause}")
        self.thresholds = thresholds


def prepare_fold_preprocessors(matrix: FeatureMatrix,
                               thresholds: tuple[float, float],
                               normalize: bool,
                               global_prep: bool = False) -> list[Preprocessor]:
    """One preprocessor per fold, each fitted without its held-out row, all
    in one pass (``selection.fit_fold_preprocessors``)."""
    t_perf, t_subs = thresholds
    if global_prep:
        prep = fit_preprocessor(matrix.values, matrix.groups, t_perf, t_subs, normalize)
        return [prep] * matrix.values.shape[0]
    return fit_fold_preprocessors(matrix.values, matrix.groups, t_perf, t_subs, normalize)


def _folds_by_transform(preps: list[Preprocessor]) -> list[list[int]]:
    """Fold indices grouped by equal fitted preprocessor, in fold order."""
    groups: dict[tuple, list[int]] = {}
    for i, prep in enumerate(preps):
        groups.setdefault(prep.key(), []).append(i)
    return list(groups.values())


def loocv_matrix(matrix: FeatureMatrix, y: np.ndarray, spec: ModelSpec,
                 preprocessors: list[Preprocessor], jobs: int = 1,
                 warning_sink: list | None = None) -> list[LooPrediction]:
    """Leave-one-out predictions, fold i prepared by ``preprocessors[i]``."""
    values = matrix.values
    y = np.asarray(y, dtype=int)
    n = values.shape[0]
    if n < 2:
        raise ValueError("leave-one-out needs at least 2 rows")
    if len(preprocessors) != n:
        raise ValueError(f"leave-one-out needs one preprocessor per row: "
                         f"got {len(preprocessors)} for {n} rows")

    members = _folds_by_transform(preprocessors)
    # One group's matrix at a time, each transformed once.
    groups = ((preprocessors[held[0]].transform(values), y, held) for held in members)
    folds = [None] * n
    for held, outcomes in zip(members, predict_held_out(spec, groups, jobs)):
        for i, (outcome, warnings) in zip(held, outcomes):
            folds[i] = LooPrediction(matrix.row_ids[i], int(y[i]), outcome, i), warnings
    # Warnings join the sink in fold order, whatever order the threads finish in.
    if warning_sink is not None:
        for pred, warnings in folds:
            warning_sink.extend(f"fold {pred.fold_index}: {w}" for w in warnings)
    return [pred for pred, _ in folds]


def loocv(dataset: Dataset, spec: ModelSpec,
          thresholds: tuple[float, float] = DEFAULT_THRESHOLDS,
          normalize: bool = False, global_prep: bool = False,
          jobs: int = 1, warning_sink: list | None = None) -> list[LooPrediction]:
    matrix = assemble_feature_matrix(dataset)
    y = np.array([int(rec.final_grade) for rec in dataset.students])
    preprocessors = prepare_fold_preprocessors(matrix, thresholds, normalize, global_prep)
    return loocv_matrix(matrix, y, spec, preprocessors, jobs=jobs,
                        warning_sink=warning_sink)


def threshold_sweep(matrix: FeatureMatrix, y: np.ndarray, model_spec: ModelSpec,
                    normalize: bool = False, jobs: int = 1) -> ThresholdSweepResult:
    """Leave-one-out accuracy for each fixed threshold combination, every
    fold prepared on its own rows.

    The winner is the combination with the highest accuracy; exact ties go
    to the lexicographically smaller (t_perf, t_subs) pair.
    """
    accuracies: dict[tuple[float, float], float] = {}
    warnings: list[str] = []
    for combo in SWEEP_THRESHOLDS:
        sink: list[str] = []
        try:
            preprocessors = prepare_fold_preprocessors(matrix, combo, normalize)
            preds = loocv_matrix(matrix, y, model_spec, preprocessors, jobs=jobs,
                                 warning_sink=sink)
        except Exception as exc:
            raise SweepFailure(combo, exc) from exc
        accuracies[combo] = accuracy(preds)
        warnings.extend(f"thresholds {combo[0]:.2f},{combo[1]:.2f}: {w}" for w in sink)
    winner = min(accuracies, key=lambda combo: (-accuracies[combo], combo))
    return ThresholdSweepResult(accuracies, winner, tuple(warnings))


def _correct_count(preds) -> int:
    return sum(1 for p in preds if p.outcome.grade == p.true_grade)


def accuracy(preds) -> float:
    return _correct_count(preds) / len(preds)


def mse(preds) -> float:
    # Integer accumulation keeps the histogram identity exact.
    ssd = sum((p.outcome.grade - p.true_grade) ** 2 for p in preds)
    return ssd / len(preds)


def distance_histogram(preds) -> tuple[int, int, int, int, int]:
    counts = [0] * N_GRADES
    for p in preds:
        counts[abs(p.outcome.grade - p.true_grade)] += 1
    return tuple(counts)


def f1_micro(preds) -> float:
    """Micro-averaged F1 from pooled per-class confusion counts."""
    tp = fp = fn = 0
    for grade in range(1, N_GRADES + 1):
        tp += sum(1 for p in preds if p.outcome.grade == grade and p.true_grade == grade)
        fp += sum(1 for p in preds if p.outcome.grade == grade and p.true_grade != grade)
        fn += sum(1 for p in preds if p.outcome.grade != grade and p.true_grade == grade)
    return 2 * tp / (2 * tp + fp + fn)


def micro_average_precision(preds) -> float:
    """AP over the pooled one-vs-rest (indicator, score) pairs, 5 per student.

    Ranking is by score descending; exact score ties keep (student index,
    class index) order.
    """
    n = len(preds)
    scores = np.empty(n * N_GRADES)
    labels = np.empty(n * N_GRADES, dtype=bool)
    for i, p in enumerate(preds):
        scores[i * N_GRADES:(i + 1) * N_GRADES] = p.outcome.class_scores
        labels[i * N_GRADES:(i + 1) * N_GRADES] = False
        labels[i * N_GRADES + p.true_grade - 1] = True
    student_idx = np.repeat(np.arange(n), N_GRADES)
    class_idx = np.tile(np.arange(N_GRADES), n)
    order = np.lexsort((class_idx, student_idx, -scores))
    hits = np.cumsum(labels[order])
    positions = np.flatnonzero(labels[order]) + 1
    return float(np.sum(hits[positions - 1] / positions) / n)


def auroc_correct(preds) -> tuple[float, bool]:
    """AUROC for "prediction exactly correct" scored by max class score.

    Scores are min-max rescaled over the run (a monotone map; recorded
    convention).  Computed with the Mann-Whitney rank statistic, ties
    counted 1/2.  If all predictions are correct or all incorrect the task
    is degenerate: returns (0.5, True).
    """
    raw = np.array([float(p.outcome.class_scores.max()) for p in preds])
    labels = np.array([p.outcome.grade == p.true_grade for p in preds])
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5, True
    span = raw.max() - raw.min()
    scores = (raw - raw.min()) / span if span > 0 else np.zeros_like(raw)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j < scores.size and sorted_scores[j] == sorted_scores[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j - 1) + 1.0   # average rank, 1-based
        i = j
    u = float(ranks[labels].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg), False


def summarize(preds) -> EvalReport:
    """Compute all metrics; raise ValueError if an internal identity fails."""
    n = len(preds)
    acc = accuracy(preds)
    err = mse(preds)
    hist = distance_histogram(preds)
    f1 = f1_micro(preds)
    auc, degenerate = auroc_correct(preds)
    if f1 != acc:
        raise ValueError("micro-F1 must equal accuracy for single-label grades")
    if sum(hist) != n:
        raise ValueError("distance histogram must cover every prediction")
    if err != sum(d * d * h for d, h in enumerate(hist)) / n:
        raise ValueError("MSE must match its distance-histogram decomposition")
    return EvalReport(n, acc, err, micro_average_precision(preds), auc, f1,
                      hist, degenerate)


def render_report(reports: dict[str, EvalReport]) -> str:
    """Markdown metric and distance tables, one row per model."""
    keys = [k for k in MODEL_ORDER if k in reports]
    keys += [k for k in sorted(reports) if k not in MODEL_ORDER]
    lines = [
        "## Leave-one-out metrics",
        "",
        "| Model | Accuracy | Mean Square Error | Average Precision (Micro) | AUROC | f1 score |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for key in keys:
        r = reports[key]
        name = DISPLAY_NAMES.get(key, key)
        flag = " (degenerate)" if r.auroc_degenerate else ""
        lines.append(f"| {name} | {100.0 * r.accuracy:.1f}% | {r.mse:.3f} "
                     f"| {r.micro_ap:.3f} | {r.auroc:.3f}{flag} | {r.f1_micro:.3f} |")
    lines += [
        "",
        "## Distance between predicted and actual grade",
        "",
        "| Model | 0 | 1 | 2 | 3 | 4 |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for key in keys:
        hist = reports[key].distance_histogram
        name = DISPLAY_NAMES.get(key, key)
        lines.append("| " + " | ".join([name, *[str(c) for c in hist]]) + " |")
    return "\n".join(lines) + "\n"


def write_predictions_csv(preds, path, header_comment: str | None = None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment is not None:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["student_id", "true_grade", "predicted_grade",
                         "score_F", "score_D", "score_C", "score_B", "score_A"])
        for p in preds:
            writer.writerow([p.student_id,
                             Grade(p.true_grade).letter,
                             Grade(p.outcome.grade).letter,
                             *[f"{s:.10g}" for s in p.outcome.class_scores]])
