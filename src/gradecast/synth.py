"""Seeded synthetic-cohort generator.

Produces a submission log plus gradebook with the same shape as a real
course export: students with latent ability, questions with latent
difficulty, attempt-until-correct submission behaviour with per-type
attempt caps, session-structured timestamps, and letter grades cut to an
exact target distribution.

Streams are keyed per question and per student, so any one student's data
is reproducible without generating the rest of the cohort.

The order of the draws from a student's stream fixes the bytes of the
cohort.  It is:

1. ability, one standard normal;
2. test noise, one standard normal;
3. attempt rolls, one uniform array of (questions × the larger cap),
   row-major; a question reads the first ``cap`` rolls of its row;
4. per assignment, in order: the session count (``integers(1, 4)``), then
   the start jitter (``integers(0, START_JITTER)``), then per non-empty
   session one break (``exponential``, every session but the first) and
   one batch of in-session gaps (``lognormal``, one fewer than the
   session's attempts, possibly none).

A batched draw of n values gives the same values, and leaves the stream in
the same state, as n scalar draws of the same distribution, so batching
changes no byte.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import (N_ASSIGNMENTS, SUBMISSIONS_HEADER, Grade, StudentRecord, SubmissionEvent,
                     write_gradebook)
from .rng import substream

DEFAULT_GRADE_COUNTS = (26, 10, 22, 72, 119)   # F, D, C, B, A

COURSE_START = 1_357_000_000        # early-January epoch seconds
ASSIGNMENT_SPACING = 9 * 86400      # four assignments fit in six weeks
START_JITTER = 3 * 86400            # students begin up to 3 days late
SESSION_BREAK = 10_800              # >= 3 h between sessions; also > the
                                    # 2 h gap that ends a session downstream
SESSION_BREAK_SCALE = 3_600.0
GAP_LOG_MEDIAN = np.log(40.0)       # in-session gaps: right-skewed, ~40 s
GAP_LOG_SIGMA = 1.0
MAX_GAP = 7_200                     # in-session gap may not end the session
TEST_NOISE = 0.3

_QUESTION_STREAM = 1
_STUDENT_STREAM = 2


class InfeasibleConfig(ValueError):
    """Cohort parameters that cannot produce a valid cohort."""


def _logistic(x):
    # tanh form avoids overflow for large negative x
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class CohortConfig:
    n_students: int = 249
    n_questions: int = 409
    boolean_question_fraction: float = 0.2
    max_attempts_boolean: int = 1
    max_attempts_other: int = 3
    grade_counts: tuple[int, int, int, int, int] = DEFAULT_GRADE_COUNTS
    ability_spread: float = 1.5
    difficulty_spread: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_students < 1:
            raise InfeasibleConfig("n_students must be at least 1")
        if self.n_questions < N_ASSIGNMENTS:
            raise InfeasibleConfig("need at least one question per assignment")
        if not 0.0 <= self.boolean_question_fraction <= 1.0:
            raise InfeasibleConfig("boolean_question_fraction must lie in [0, 1]")
        if self.max_attempts_boolean < 1 or self.max_attempts_other < 1:
            raise InfeasibleConfig("attempt caps must be at least 1")
        counts = tuple(int(c) for c in self.grade_counts)
        if len(counts) != 5 or any(c < 0 for c in counts):
            raise InfeasibleConfig("grade_counts must be 5 non-negative integers")
        if sum(counts) != self.n_students:
            raise InfeasibleConfig(
                f"grade_counts sum to {sum(counts)}, expected {self.n_students}")
        object.__setattr__(self, "grade_counts", counts)
        if self.ability_spread < 0 or self.difficulty_spread < 0:
            raise InfeasibleConfig("spreads must be non-negative")


@dataclass(frozen=True)
class QuestionInfo:
    question_id: str
    assignment_id: int
    difficulty: float
    is_boolean: bool
    max_attempts: int


def _pad_ids(prefix: str, count: int) -> list[str]:
    width = len(str(count))
    return [f"{prefix}{i:0{width}d}" for i in range(1, count + 1)]


def question_bank(config: CohortConfig) -> tuple[QuestionInfo, ...]:
    """Latent difficulties and attempt caps, keyed off the config seed."""
    ids = _pad_ids("q", config.n_questions)
    blocks = np.array_split(np.arange(config.n_questions), N_ASSIGNMENTS)
    assignment_of = np.empty(config.n_questions, dtype=int)
    for a, block in enumerate(blocks, start=1):
        assignment_of[block] = a
    bank = []
    for q, qid in enumerate(ids):
        rng = substream(config.seed, _QUESTION_STREAM, q)
        difficulty = config.difficulty_spread * float(rng.standard_normal())
        is_boolean = bool(rng.random() < config.boolean_question_fraction)
        cap = config.max_attempts_boolean if is_boolean else config.max_attempts_other
        bank.append(QuestionInfo(qid, int(assignment_of[q]), difficulty,
                                 is_boolean, cap))
    return tuple(bank)


def generate_cohort(config: CohortConfig):
    """Return (events, records): a full synthetic course.

    Every student attempts every question.  Grades are assigned by ranking
    students on the 60/40 test/homework blend and cutting the ranking at
    the configured grade counts, lowest scores first.  Events come out by
    student, then question, then attempt.
    """
    columns, records = _cohort_columns(config)
    return tuple(map(SubmissionEvent, *columns)), records


def _cohort_columns(config: CohortConfig):
    """Return (columns, records): ``generate_cohort``'s events as six lists.

    The lists hold the event fields in ``SubmissionEvent`` order (student
    id, question id, assignment id, timestamp, attempt number, correct),
    one entry per event in the same order.
    """
    bank = question_bank(config)
    student_ids = _pad_ids("s", config.n_students)
    difficulty = np.array([info.difficulty for info in bank])
    caps = np.array([info.max_attempts for info in bank])
    assignment_of = np.array([info.assignment_id for info in bank])
    # question_bank gives each assignment one block of consecutive questions.
    edges = np.searchsorted(assignment_of, np.arange(1, N_ASSIGNMENTS + 2))
    width = max(config.max_attempts_boolean, config.max_attempts_other)
    allowed = np.arange(width) < caps[:, None]     # (question, try) within its cap

    ability = np.empty(config.n_students)
    noise = np.empty(config.n_students)
    attempts = np.empty((config.n_students, config.n_questions), dtype=np.int64)
    solved = np.empty((config.n_students, config.n_questions), dtype=bool)
    timestamps = []
    for s in range(config.n_students):
        rng = substream(config.seed, _STUDENT_STREAM, s)
        ability[s] = config.ability_spread * rng.standard_normal()
        noise[s] = TEST_NOISE * rng.standard_normal()
        rolls = rng.random((config.n_questions, width))
        # Attempts stop at the first success or at the question's cap.
        success = (rolls < _logistic(ability[s] - difficulty)[:, None]) & allowed
        solved[s] = success.any(axis=1)
        attempts[s] = np.where(solved[s], success.argmax(axis=1) + 1, caps)
        for a, n_events in enumerate(np.add.reduceat(attempts[s], edges[:-1]).tolist()):
            n_sessions = int(rng.integers(1, 4))
            jitter = int(rng.integers(0, START_JITTER))
            start = COURSE_START + a * ASSIGNMENT_SPACING + jitter
            timestamps.append(_session_timestamps(rng, start, n_events, n_sessions))

    # One row per event, in (student, question, attempt) order.
    counts = attempts.ravel()
    question = np.repeat(np.tile(np.arange(config.n_questions), config.n_students), counts)
    first_row = np.cumsum(counts) - counts
    attempt_number = np.arange(counts.sum()) - np.repeat(first_row, counts) + 1
    correct = np.repeat(solved.ravel(), counts) & (attempt_number == np.repeat(counts, counts))
    student_col = np.repeat(np.array(student_ids, dtype=object), attempts.sum(axis=1))
    question_col = np.array([info.question_id for info in bank], dtype=object)[question]
    columns = (student_col.tolist(), question_col.tolist(),
               assignment_of[question].tolist(), np.concatenate(timestamps).tolist(),
               attempt_number.tolist(), correct.tolist())

    test_scores = 100.0 * _logistic(ability + noise)
    hw_scores = np.column_stack([
        100.0 * solved[:, lo:hi].sum(axis=1) / (hi - lo)
        for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist())])
    final_numeric = 0.6 * test_scores + 0.4 * hw_scores.mean(axis=1)
    grades = _assign_grades(final_numeric, config.grade_counts)

    records = tuple(
        StudentRecord(student_ids[s],
                      tuple(float(x) for x in hw_scores[s]),
                      float(test_scores[s]),
                      Grade(grades[s]))
        for s in range(config.n_students))
    return columns, records


def _session_timestamps(rng, start: int, n_events: int, n_sessions: int) -> np.ndarray:
    """Timestamps of one assignment's n_events attempts, from ``start`` on.

    The attempts are split into n_sessions consecutive sessions as
    ``np.array_split`` splits them (the first n_events % n_sessions one
    longer); a session left empty draws nothing.  Each session after the
    first opens a break after the last one; within a session, attempts are
    one clipped log-normal gap apart.
    """
    size, longer = divmod(n_events, n_sessions)
    steps = np.empty(n_events, dtype=np.int64)     # start, then seconds since the previous attempt
    row = 0
    for session in range(n_sessions):
        n = size + (session < longer)
        if n == 0:
            break
        steps[row] = (start if session == 0 else
                      SESSION_BREAK + int(rng.exponential(SESSION_BREAK_SCALE)))
        gaps = rng.lognormal(GAP_LOG_MEDIAN, GAP_LOG_SIGMA, size=n - 1)
        steps[row + 1:row + n] = np.clip(gaps, 1, MAX_GAP)    # truncated, as int() truncates
        row += n
    return np.cumsum(steps)


def _assign_grades(final_numeric: np.ndarray, counts) -> np.ndarray:
    """Exact target distribution: rank ascending, cut at cumulative counts."""
    order = np.argsort(final_numeric, kind="stable")
    grades = np.empty(final_numeric.size, dtype=int)
    start = 0
    for grade, count in enumerate(counts, start=1):
        grades[order[start:start + count]] = grade
        start += count
    return grades


def write_cohort(config: CohortConfig, out_dir, header_comment: str | None = None):
    """Write submissions.csv and gradebook.csv under out_dir; return paths.

    The log is formatted straight from the event columns, in the bytes
    ``write_submissions`` writes for the same events: ``csv.writer`` ends
    rows in CRLF, and quotes no field here, since padded ids and integers
    hold no comma, quote or line break.
    """
    import os

    columns, records = _cohort_columns(config)
    os.makedirs(out_dir, exist_ok=True)
    sub_path = os.path.join(out_dir, "submissions.csv")
    gb_path = os.path.join(out_dir, "gradebook.csv")
    with open(sub_path, "w", newline="", encoding="utf-8") as fh:
        if header_comment is not None:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(SUBMISSIONS_HEADER) + "\r\n")
        fh.write("".join([f"{s},{q},{a},{t},{n},{c:d}\r\n"
                          for s, q, a, t, n, c in zip(*columns)]))
    write_gradebook(records, gb_path, header_comment=header_comment)
    return sub_path, gb_path
