"""Feature extraction from a parsed dataset.

Five column families, concatenated in a fixed order:

* per-question performance, one binary column per question (ever correct)
* submissions per question, one count column per question
* response-time summary, 4 columns
* sessions per assignment, 4 columns
* gradebook scores, 5 columns (hw1..hw4, test1)

For Q questions that is 2Q + 13 columns.  A session is a maximal run of a
student's submissions within one assignment where adjacent timestamps are
at most two hours apart; response times are the gaps between adjacent
submissions inside a session, so they never exceed two hours.

Every family is computed from the dataset's columns; the session and
response-time families read its one session index (``Dataset.sessions``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import N_ASSIGNMENTS, Dataset, csv_field

QUICK_RESPONSE_SECONDS = 12.0    # faster than 5 submissions per minute
CSV_BLOCK_ROWS = 32              # features.csv rows whose distinct values are formatted together

GROUP_PERF = "perf"
GROUP_SUBS = "subs"
GROUP_RT = "rt"
GROUP_SESS = "sess"
GROUP_SCORE = "score"

RT_FEATURE_NAMES = ("rt:long_n", "rt:quick_n", "rt:long_f", "rt:quick_f")
SESSION_FEATURE_NAMES = tuple(f"sess:a{a}" for a in range(1, 5))
SCORE_FEATURE_NAMES = ("score:hw1", "score:hw2", "score:hw3", "score:hw4", "score:test1")


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Student-by-feature matrix with per-column names and family tags."""

    row_ids: tuple[str, ...]
    names: tuple[str, ...]
    groups: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (len(self.row_ids), len(self.names)):
            raise ValueError("feature matrix shape disagrees with its labels")
        if len(self.groups) != len(self.names):
            raise ValueError("one group tag per column required")


def per_question_performance(dataset: Dataset) -> np.ndarray:
    """Binary matrix: 1 iff the student ever answered the question correctly."""
    out = np.zeros((len(dataset.students), dataset.n_questions))
    hit = dataset.log.correct
    out[dataset.row[hit], dataset.column[hit]] = 1.0
    return out


def submissions_per_question(dataset: Dataset) -> np.ndarray:
    """Count matrix of submissions per (student, question); 0 when untouched."""
    n, q = len(dataset.students), dataset.n_questions
    counts = np.bincount(dataset.row.astype(np.intp) * q + dataset.column, minlength=n * q)
    return counts.reshape(n, q).astype(float)


def sessions_per_assignment(dataset: Dataset) -> np.ndarray:
    n = len(dataset.students)
    counts = np.bincount(dataset.sessions.key, minlength=n * N_ASSIGNMENTS)
    return counts.reshape(n, N_ASSIGNMENTS).astype(float)


def response_time_features(dataset: Dataset) -> np.ndarray:
    """Per student: [long_count, quick_count, long_fraction, quick_fraction].

    "Long" is measured against mean + 2 standard deviations of all response
    times in the dataset (population statistics, strict >); "quick" is a
    response under 12 seconds (strict <).  Fractions are per student and 0
    for students with no response times.  The pooled times are taken in
    (student row, assignment, time) order, which fixes the bits of the mean.
    """
    n = len(dataset.students)
    index = dataset.sessions
    out = np.zeros((n, 4))
    if not index.gaps.size:
        return out
    arr = index.gaps.astype(float)
    mu = float(arr.mean())
    sigma = float(np.sqrt(np.mean((arr - mu) ** 2)))
    long_cut = mu + 2.0 * sigma
    size = np.bincount(index.gap_row, minlength=n)
    long_n = np.bincount(index.gap_row[arr > long_cut], minlength=n)
    quick_n = np.bincount(index.gap_row[arr < QUICK_RESPONSE_SECONDS], minlength=n)
    out[:, 0] = long_n
    out[:, 1] = quick_n
    has = size > 0
    out[has, 2] = long_n[has] / size[has]
    out[has, 3] = quick_n[has] / size[has]
    return out


def score_features(dataset: Dataset) -> np.ndarray:
    """Raw gradebook columns: hw1..hw4 then test1."""
    return np.array([[*rec.hw_scores, rec.test_score] for rec in dataset.students],
                    dtype=float)


def assemble_feature_matrix(dataset: Dataset) -> FeatureMatrix:
    """Write all families into one matrix in the canonical 2Q + 13 column layout.

    Each family is written into its columns of one preallocated matrix and
    freed before the next is computed.
    """
    q = dataset.n_questions
    families = (
        (per_question_performance, [f"perf:q{i}" for i in range(q)], GROUP_PERF),
        (submissions_per_question, [f"subs:q{i}" for i in range(q)], GROUP_SUBS),
        (response_time_features, list(RT_FEATURE_NAMES), GROUP_RT),
        (sessions_per_assignment, list(SESSION_FEATURE_NAMES), GROUP_SESS),
        (score_features, list(SCORE_FEATURE_NAMES), GROUP_SCORE),
    )
    names: list[str] = []
    groups: list[str] = []
    values = np.empty((len(dataset.students), 2 * q + 13))
    for family, family_names, tag in families:
        values[:, len(names):len(names) + len(family_names)] = family(dataset)
        names.extend(family_names)
        groups.extend([tag] * len(family_names))
    row_ids = tuple(rec.student_id for rec in dataset.students)
    return FeatureMatrix(row_ids, tuple(names), tuple(groups), values)


def write_features_csv(matrix: FeatureMatrix, path,
                       header_comment: str | None = None) -> None:
    """Write the matrix as CSV: a header of names, then one line per student.

    A student id is quoted, with its quotes doubled, only if it holds a
    comma, a quote or a line break, as ``csv.writer`` quotes a field.  Each
    value is written as ``repr(float(v))``, which round-trips exactly.
    Rows go out in blocks of CSV_BLOCK_ROWS: the distinct bit patterns of a
    block (so ``-0.0``, ``0.0`` and each NaN stay apart) are each formatted
    once, and every line joins the formatted values it looks up.
    """
    values = np.asarray(matrix.values, dtype=np.float64)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment is not None:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(("student_id", *matrix.names)) + "\n")
        for lo in range(0, len(values), CSV_BLOCK_ROWS):
            block = np.ascontiguousarray(values[lo:lo + CSV_BLOCK_ROWS])
            bits, codes = np.unique(block.view(np.uint64).ravel(), return_inverse=True)
            text = [repr(v) for v in bits.view(np.float64).tolist()]
            for sid, row in zip(matrix.row_ids[lo:lo + CSV_BLOCK_ROWS],
                                codes.reshape(block.shape).tolist()):
                # Joined by hand: csv.writer, which checks every value of a
                # 2Q+14-field row for quoting, writes it several times slower.
                fh.write(",".join((csv_field(sid), *map(text.__getitem__, row))) + "\n")

