"""Small builders shared across test modules."""
from __future__ import annotations

import numpy as np

from gradecast.ingest import (
    Grade,
    StudentRecord,
    SubmissionEvent,
    build_dataset,
    write_gradebook,
    write_submissions,
)
from gradecast.models import dual


def event(student="s1", question="q1", assignment=1, timestamp=0,
          attempt=1, correct=False):
    return SubmissionEvent(student, question, assignment, timestamp,
                           attempt, correct)


def record(student="s1", hw=(100.0, 100.0, 100.0, 100.0), test=100.0, grade="A"):
    return StudentRecord(student, tuple(float(h) for h in hw), float(test),
                         Grade.from_letter(grade))


def log_bits(log):
    """An EventLog's ids and the dtype and bytes of each column: equal iff bit-identical."""
    return (log.student_ids, log.question_ids,
            *((column.dtype.str, column.tobytes()) for column in
              (log.student, log.question, log.assignment, log.timestamp, log.attempt,
               log.correct)))


def events_of(log):
    """An EventLog's rows as SubmissionEvents, in log order."""
    return tuple(map(SubmissionEvent,
                     [log.student_ids[c] for c in log.student.tolist()],
                     [log.question_ids[c] for c in log.question.tolist()],
                     log.assignment.tolist(), log.timestamp.tolist(),
                     log.attempt.tolist(), log.correct.tolist()))


def gaps_of(dataset, student_id):
    """One student's response times: their slice of ``dataset.sessions.gaps``."""
    row = [rec.student_id for rec in dataset.students].index(student_id)
    index = dataset.sessions
    lo, hi = np.searchsorted(index.gap_row, [row, row + 1])
    return index.gaps[lo:hi].tolist()


def dataset_from(events, records):
    return build_dataset(tuple(events), tuple(records))


def write_dataset(dataset, submissions_path, gradebook_path, header_comment=None):
    write_submissions(events_of(dataset.log), submissions_path, header_comment)
    write_gradebook(dataset.students, gradebook_path, header_comment)


def svr_dual(K, y, C, epsilon):
    """Solve one epsilon-SVR dual on kernel K with the package solver.
    Returns (beta, b, converged, iterations).

    The estimate is sum_i beta_i K(x_i, x) + b, with |beta_i| <= C and
    sum(beta) = 0.
    """
    n = y.size
    problem = dual.Problem(K, np.tile(np.arange(n), 2), np.repeat([1.0, -1.0], n),
                           np.concatenate([epsilon - y, epsilon + y]), C)
    [(a, rho, converged, iterations)] = dual.solve([problem])
    return a[:n] - a[n:], -rho, converged, iterations
