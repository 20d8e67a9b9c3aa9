"""Submission-log and gradebook ingestion.

Turns the two course export files (``submissions.csv`` and ``gradebook.csv``)
into one immutable in-memory dataset shared by feature extraction and
evaluation.  Input rows may arrive in any order; parsing canonicalizes the
ordering, so the same set of rows always produces the same dataset.

Repairs are preferred over rejection where the log is merely untidy:
attempt numbers are re-issued densely in timestamp order, and submissions
recorded after a correct answer are dropped.  The number of repaired rows
of each kind is returned to the caller.  Structural problems (bad
fields, duplicate students, out-of-range scores) raise instead.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from enum import IntEnum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

SUBMISSIONS_HEADER = ("student_id", "question_id", "assignment_id",
                      "timestamp", "attempt_number", "correct")
GRADEBOOK_HEADER = ("student_id", "hw1", "hw2", "hw3", "hw4", "test1", "final_grade")
HW_FIELDS = ("hw1", "hw2", "hw3", "hw4")
N_ASSIGNMENTS = 4


class Grade(IntEnum):
    """Letter grade on the 5-point integer scale (A highest)."""

    F = 1
    D = 2
    C = 3
    B = 4
    A = 5

    @property
    def letter(self) -> str:
        return self.name

    @classmethod
    def from_letter(cls, letter: str) -> "Grade":
        try:
            return cls[letter.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown grade letter {letter!r}") from None


class IngestError(ValueError):
    """Base class for input-file validation failures."""


class MalformedRow(IngestError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class EmptyLog(IngestError):
    def __init__(self, source: str = ""):
        super().__init__(f"no data rows in {source or 'input'}")


class DuplicateStudent(IngestError):
    def __init__(self, student_id: str):
        super().__init__(f"duplicate student_id {student_id!r}")
        self.student_id = student_id


class ScoreOutOfRange(IngestError):
    def __init__(self, student_id: str, field: str, value: float):
        super().__init__(f"student {student_id!r}: {field}={value!r} outside [0, 100]")
        self.student_id = student_id
        self.field = field


class UnknownGrade(IngestError):
    def __init__(self, student_id: str, letter: str):
        super().__init__(f"student {student_id!r}: unknown grade {letter!r}")
        self.student_id = student_id


class OrphanEvent(IngestError):
    def __init__(self, student_id: str):
        super().__init__(f"submission by {student_id!r} who is not in the gradebook")
        self.student_id = student_id


class InconsistentAssignment(IngestError):
    def __init__(self, question_id: str):
        super().__init__(f"question {question_id!r} appears under two assignment_ids")
        self.question_id = question_id


@dataclass(frozen=True)
class SubmissionEvent:
    student_id: str
    question_id: str
    assignment_id: int
    timestamp: int
    attempt_number: int
    correct: bool


class RepairCount(int):
    """Number of repaired submission rows, split by kind.

    The int value is the total, so callers that want one number use it as
    one.  ``dropped`` counts attempts recorded after a correct answer,
    ``renumbered`` counts kept rows whose attempt number was re-issued.
    """

    dropped: int
    renumbered: int

    def __new__(cls, dropped: int, renumbered: int):
        total = super().__new__(cls, dropped + renumbered)
        total.dropped = dropped
        total.renumbered = renumbered
        return total

    def __getnewargs__(self):     # pickle and copy rebuild from the split
        return self.dropped, self.renumbered


@dataclass(frozen=True)
class StudentRecord:
    student_id: str
    hw_scores: tuple[float, float, float, float]
    test_score: float
    final_grade: Grade


@dataclass(frozen=True)
class Dataset:
    """Joined view of a submission log and a gradebook.

    ``question_catalog`` maps question_id to (assignment_id, ordinal); the
    ordinal is the question's contiguous 0-based column index, issued by
    first appearance in the canonically ordered event stream.
    """

    events: tuple[SubmissionEvent, ...]
    students: tuple[StudentRecord, ...]
    question_catalog: dict[str, tuple[int, int]]

    @property
    def n_questions(self) -> int:
        return len(self.question_catalog)

    @cached_property
    def student_rows(self) -> dict[str, int]:
        return {rec.student_id: i for i, rec in enumerate(self.students)}

    @cached_property
    def _events_by_student(self) -> dict[str, tuple[SubmissionEvent, ...]]:
        grouped: dict[str, list[SubmissionEvent]] = {}
        for ev in self.events:
            grouped.setdefault(ev.student_id, []).append(ev)
        return {sid: tuple(evs) for sid, evs in grouped.items()}

    def events_for(self, student_id: str) -> tuple[SubmissionEvent, ...]:
        return self._events_by_student.get(student_id, ())


def _data_rows(path) -> Iterable[tuple[int, list[str]]]:
    """(line number, fields) of every data line, parsed by one CSV reader.

    Leading '#' lines are run-config headers written by the CLI; blank
    lines are tolerated.  Line numbers refer to the physical file.  A row
    is one line: a quoted field left open at the end of its line makes the
    row malformed.
    """
    lines_of_row: list[int] = []    # the reader reads no further than the row it returns

    def data_lines():
        for line_no, line in enumerate(fh, start=1):
            if not line.startswith("#") and line.strip():
                lines_of_row.append(line_no)
                yield line

    with open(path, newline="", encoding="utf-8") as fh:
        for fields in csv.reader(data_lines()):
            if len(lines_of_row) > 1:
                raise MalformedRow(lines_of_row[0],
                                   "quoted field runs past the end of its line")
            yield lines_of_row.pop(), fields


def parse_submissions(path) -> tuple[tuple[SubmissionEvent, ...], RepairCount]:
    """Parse submissions.csv into canonically ordered events.

    Returns (events, repairs).  Events come back sorted by
    (student_id, question_id, timestamp).  Within each (student, question)
    group, attempts recorded after a correct answer are dropped and attempt
    numbers are re-issued densely in timestamp order; each dropped or
    renumbered row counts once in ``repairs``.
    """
    raw: list[SubmissionEvent] = []
    saw_header = False
    for line_no, fields in _data_rows(path):
        if not saw_header:
            if tuple(fields) != SUBMISSIONS_HEADER:
                raise MalformedRow(line_no, f"bad header {fields!r}")
            saw_header = True
            continue
        if len(fields) != len(SUBMISSIONS_HEADER):
            raise MalformedRow(
                line_no, f"expected {len(SUBMISSIONS_HEADER)} fields, got {len(fields)}")
        sid, qid, assignment_s, ts_s, attempt_s, correct_s = fields
        try:
            assignment = int(assignment_s)
            timestamp = int(ts_s)
            attempt = int(attempt_s)
        except ValueError:
            raise MalformedRow(line_no, "non-integer numeric field") from None
        if not 1 <= assignment <= N_ASSIGNMENTS:
            raise MalformedRow(
                line_no, f"assignment_id {assignment} outside 1..{N_ASSIGNMENTS}")
        if correct_s not in ("0", "1"):
            raise MalformedRow(line_no, f"correct must be 0 or 1, got {correct_s!r}")
        raw.append(SubmissionEvent(sid, qid, assignment, timestamp, attempt, correct_s == "1"))
    if not raw:
        raise EmptyLog(str(path))

    # Content-only sort key, so a shuffled file parses to the same result.
    raw.sort(key=lambda e: (e.student_id, e.question_id, e.timestamp,
                            e.attempt_number, e.correct))
    events: list[SubmissionEvent] = []
    dropped = renumbered = 0
    i = 0
    while i < len(raw):
        j = i
        key = (raw[i].student_id, raw[i].question_id)
        while j < len(raw) and (raw[j].student_id, raw[j].question_id) == key:
            j += 1
        group = raw[i:j]
        for pos, ev in enumerate(group):
            if ev.correct and pos + 1 < len(group):
                dropped += len(group) - pos - 1
                group = group[:pos + 1]
                break
        for pos, ev in enumerate(group, start=1):
            if ev.attempt_number != pos:
                ev = replace(ev, attempt_number=pos)
                renumbered += 1
            events.append(ev)
        i = j
    return tuple(events), RepairCount(dropped, renumbered)


def parse_gradebook(path) -> tuple[StudentRecord, ...]:
    """Parse gradebook.csv into records sorted by student_id."""
    records: dict[str, StudentRecord] = {}
    saw_header = False
    for line_no, fields in _data_rows(path):
        if not saw_header:
            if tuple(fields) != GRADEBOOK_HEADER:
                raise MalformedRow(line_no, f"bad header {fields!r}")
            saw_header = True
            continue
        if len(fields) != len(GRADEBOOK_HEADER):
            raise MalformedRow(
                line_no, f"expected {len(GRADEBOOK_HEADER)} fields, got {len(fields)}")
        sid = fields[0]
        scores: list[float] = []
        for name, text in zip((*HW_FIELDS, "test1"), fields[1:6]):
            try:
                value = float(text)
            except ValueError:
                raise MalformedRow(line_no, f"bad score {text!r}") from None
            if not 0.0 <= value <= 100.0:
                raise ScoreOutOfRange(sid, name, value)
            scores.append(value)
        try:
            grade = Grade.from_letter(fields[6])
        except ValueError:
            raise UnknownGrade(sid, fields[6]) from None
        if sid in records:
            raise DuplicateStudent(sid)
        records[sid] = StudentRecord(sid, tuple(scores[:4]), scores[4], grade)
    if not records:
        raise EmptyLog(str(path))
    return tuple(records[sid] for sid in sorted(records))


def build_dataset(events: Sequence[SubmissionEvent],
                  students: Sequence[StudentRecord]) -> Dataset:
    """Join events and records; every event must belong to a known student.

    Students with no submissions are kept: their activity features are
    legitimately all zero.  Question ordinals follow first appearance in
    the (already canonically ordered) event stream.
    """
    if not events or not students:
        raise EmptyLog("build_dataset input")
    seen: set[str] = set()
    for rec in students:
        if rec.student_id in seen:
            raise DuplicateStudent(rec.student_id)
        seen.add(rec.student_id)
    catalog: dict[str, tuple[int, int]] = {}
    for ev in events:
        if ev.student_id not in seen:
            raise OrphanEvent(ev.student_id)
        known = catalog.get(ev.question_id)
        if known is None:
            catalog[ev.question_id] = (ev.assignment_id, len(catalog))
        elif known[0] != ev.assignment_id:
            raise InconsistentAssignment(ev.question_id)
    return Dataset(tuple(events), tuple(students), catalog)


def load_dataset(submissions_path, gradebook_path) -> tuple[Dataset, RepairCount]:
    """Parse both files and join them.  Returns (dataset, repairs)."""
    events, repairs = parse_submissions(submissions_path)
    students = parse_gradebook(gradebook_path)
    return build_dataset(events, students), repairs


def write_submissions(events: Iterable[SubmissionEvent], path,
                      header_comment: str | None = None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment is not None:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(SUBMISSIONS_HEADER)
        for ev in events:
            writer.writerow([ev.student_id, ev.question_id, ev.assignment_id,
                             ev.timestamp, ev.attempt_number, int(ev.correct)])


def write_gradebook(students: Iterable[StudentRecord], path,
                    header_comment: str | None = None) -> None:
    # repr() round-trips floats exactly, so write-then-parse is lossless.
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment is not None:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(GRADEBOOK_HEADER)
        for rec in students:
            writer.writerow([rec.student_id,
                             *[repr(float(s)) for s in rec.hw_scores],
                             repr(float(rec.test_score)),
                             rec.final_grade.letter])


def write_dataset(dataset: Dataset, submissions_path, gradebook_path,
                  header_comment: str | None = None) -> None:
    write_submissions(dataset.events, submissions_path, header_comment)
    write_gradebook(dataset.students, gradebook_path, header_comment)
