"""Submission-log and gradebook ingestion.

Turns the two course export files (``submissions.csv`` and ``gradebook.csv``)
into one immutable in-memory dataset shared by feature extraction and
evaluation.  The submission log is held as columns (``EventLog``), from the
parse to the feature matrix, each at its natural width (int32 codes, an int8
assignment, int64 times and attempts), and the program reads it through
those columns alone.  Input rows may arrive in any order; parsing
canonicalizes the ordering, so the same set of rows always produces the
same dataset.

A submission log in the form ``write_submissions`` writes is read columnar:
the file is streamed in blocks of whole lines bounded by BLOCK_BYTES, and
numpy finds each block's lines and fields and converts whole columns, so
ingest never holds the whole file.  The gradebook and every other log go
through one CSV row reader (``_data_rows``), which checks the header, each
row's width and that a data row follows the header, and numbers rows by
physical line; it defines the accepted format and every error, and the two
log readers give the same log.

Repairs are preferred over rejection where the log is merely untidy:
attempt numbers are re-issued densely in timestamp order, and submissions
recorded after a correct answer are dropped.  The number of repaired rows
of each kind is returned to the caller.  Structural problems (bad
fields, duplicate students, out-of-range scores) raise instead.
"""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

SUBMISSIONS_HEADER = ("student_id", "question_id", "assignment_id",
                      "timestamp", "attempt_number", "correct")
GRADEBOOK_HEADER = ("student_id", "hw1", "hw2", "hw3", "hw4", "test1", "final_grade")
HW_FIELDS = ("hw1", "hw2", "hw3", "hw4")
N_ASSIGNMENTS = 4
SESSION_GAP_SECONDS = 7200       # adjacent tries more than 2 h apart start a new session
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1
BLOCK_BYTES = 256 << 10          # bytes of a log converted at once by the columnar reader
_MAX_DIGITS = 18                 # 10**18 - 1 < 2**63 - 1: such digits never overflow int64
_HEADER_LINE = ",".join(SUBMISSIONS_HEADER).encode()


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


class NotUtf8(MalformedRow):
    """A line of an input file whose bytes are not valid UTF-8."""

    def __init__(self, path, line_no: int):
        super().__init__(line_no, f"not valid UTF-8 in {os.fspath(path)}")
        self.path = path


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


def _codes(ids: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct ids in Python ``str`` order, and each id's index into them."""
    distinct = tuple(sorted(set(ids)))
    rank = {sid: i for i, sid in enumerate(distinct)}
    return distinct, np.fromiter(map(rank.__getitem__, ids), dtype=np.int32, count=len(ids))


@dataclass(frozen=True, eq=False)
class EventLog:
    """A submission log as columns, one entry per event.

    ``student`` and ``question`` index ``student_ids`` and ``question_ids``,
    which hold the distinct ids in Python ``str`` order (so ordering by code
    is ordering by id); every listed id occurs in the log.  Every log built
    here holds its columns at one set of widths: ``student`` and
    ``question`` int32, ``assignment`` int8, ``timestamp`` and ``attempt``
    int64, ``correct`` bool.  A product of codes (such as ``student *
    len(question_ids) + question``) is formed in int64.
    """

    student_ids: tuple[str, ...]
    question_ids: tuple[str, ...]
    student: np.ndarray
    question: np.ndarray
    assignment: np.ndarray
    timestamp: np.ndarray
    attempt: np.ndarray
    correct: np.ndarray

    @classmethod
    def from_columns(cls, student_ids: list[str], question_ids: list[str],
                     assignment, timestamp, attempt, correct) -> "EventLog":
        """Code the id columns and pack the rest at the class's widths.

        Every integer must fit in int64; an assignment outside int8 raises
        ValueError rather than wrap.
        """
        wide = np.array(assignment, dtype=np.int64)
        narrow = wide.astype(np.int8)
        if not np.array_equal(narrow, wide):
            raise ValueError(f"assignment_id {wide[narrow != wide][0]} outside the int8 range")
        sids, student = _codes(student_ids)
        qids, question = _codes(question_ids)
        return cls(sids, qids, student, question, narrow, np.array(timestamp, dtype=np.int64),
                   np.array(attempt, dtype=np.int64), np.array(correct, dtype=bool))

    @classmethod
    def from_events(cls, events: Sequence[SubmissionEvent]) -> "EventLog":
        return cls.from_columns([ev.student_id for ev in events],
                                [ev.question_id for ev in events],
                                [ev.assignment_id for ev in events],
                                [ev.timestamp for ev in events],
                                [ev.attempt_number for ev in events],
                                [bool(ev.correct) for ev in events])

    def __len__(self) -> int:
        return len(self.student)


@dataclass(frozen=True)
class StudentRecord:
    student_id: str
    hw_scores: tuple[float, float, float, float]
    test_score: float
    final_grade: Grade


@dataclass(frozen=True)
class SessionIndex:
    """Every student's submissions cut into sessions, in three arrays.

    A session is a maximal run of one student's submissions to one
    assignment (1..N_ASSIGNMENTS) whose adjacent timestamps are at most
    SESSION_GAP_SECONDS apart, taken in (student row, assignment,
    timestamp, question_id, attempt_number) order, stream order breaking
    ties.  ``key`` holds each session's ``row * N_ASSIGNMENTS + assignment
    - 1`` and never decreases.  ``gaps`` are the within-session gaps
    between adjacent submissions in that same order, and ``gap_row`` the
    student row of each, so one student's gaps are a contiguous slice.
    ``key`` and ``gap_row`` are int32, ``gaps`` int64.
    """

    key: np.ndarray
    gaps: np.ndarray
    gap_row: np.ndarray


@dataclass(frozen=True, eq=False)
class Dataset:
    """Joined view of a submission log and a gradebook.

    ``log`` keeps the events in the order they were given; ``row`` and
    ``column`` hold each event's student row (index into ``students``) and
    question ordinal, as int32.  ``question_catalog`` maps question_id to
    (assignment_id, ordinal); the ordinal is the question's contiguous
    0-based column index, issued in sorted (assignment_id, question_id)
    order.
    """

    log: EventLog
    students: tuple[StudentRecord, ...]
    question_catalog: dict[str, tuple[int, int]]
    row: np.ndarray
    column: np.ndarray

    @property
    def n_questions(self) -> int:
        return len(self.question_catalog)

    @cached_property
    def sessions(self) -> SessionIndex:
        """The session index, built on first use; the timing features read it.

        When every row is graded the sort reads the columns themselves, not
        gathered copies; every temporary is dropped once it has been read.
        """
        log = self.log
        columns = (self.row, log.assignment, log.timestamp, log.question, log.attempt)
        graded = (log.assignment >= 1) & (log.assignment <= N_ASSIGNMENTS)
        if graded.all():
            order = _stable_order(columns).astype(np.int32)
        else:
            graded = np.flatnonzero(graded).astype(np.int32)
            order = graded[_stable_order(col[graded] for col in columns)]
        del graded
        # Timestamps of one key are sorted, so their uint64 difference is
        # exact even where the int64 one would overflow.
        gap = np.diff(log.timestamp[order].view(np.uint64))
        row = self.row[order]
        key = row * N_ASSIGNMENTS
        key += log.assignment[order]
        key -= 1
        del order
        within = (key[1:] == key[:-1]) & (gap <= SESSION_GAP_SECONDS)
        start = np.ones(key.size, dtype=bool)
        start[1:] = ~within
        key = key[start]
        gap_row = row[1:][within]
        del row
        # A within-session gap is at most SESSION_GAP_SECONDS, so its bits
        # read the same as int64.
        return SessionIndex(key, gap[within].view(np.int64), gap_row)


def _numbered_rows(path) -> Iterator[tuple[int, list[str]]]:
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
        try:
            for fields in csv.reader(data_lines()):
                if len(lines_of_row) > 1:
                    raise MalformedRow(lines_of_row[0],
                                       "quoted field runs past the end of its line")
                yield lines_of_row.pop(), fields
        except UnicodeDecodeError:
            raise NotUtf8(path, _first_undecodable_line(path)) from None


def _first_undecodable_line(path) -> int:
    """The first line, numbered as ``_numbered_rows`` numbers them, that is
    not valid UTF-8.

    Each byte that does not decode becomes a lone surrogate, which no valid
    UTF-8 decodes to and which does not encode back.
    """
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return line_no
    raise AssertionError(f"{path} decodes as UTF-8")


def _data_rows(path, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of every data row of a CSV file that starts
    with ``header``, as ``_numbered_rows`` gives them.

    The first row must be the header and every later row as wide as it; a
    file with no row after the header raises EmptyLog.
    """
    rows = _numbered_rows(path)
    first = next(rows, None)
    if first is not None and tuple(first[1]) != header:
        raise MalformedRow(first[0], f"bad header {first[1]!r}")
    empty = True
    for line_no, fields in rows:
        if len(fields) != len(header):
            raise MalformedRow(line_no, f"expected {len(header)} fields, got {len(fields)}")
        empty = False
        yield line_no, fields
    if empty:
        raise EmptyLog(str(path))


def parse_submissions(path) -> tuple[EventLog, RepairCount]:
    """Parse submissions.csv into a canonically ordered event log.

    Returns (log, repairs).  Events come back sorted by (student_id,
    question_id, timestamp, attempt_number, correct, assignment_id), so any
    order of the same rows gives the same log.  Within each (student,
    question) group, attempts recorded after a correct answer are dropped
    and attempt numbers are re-issued densely in timestamp order; each
    dropped or renumbered row counts once in ``repairs``.  The integer
    fields are bounded by int64: a timestamp or attempt number outside that
    range makes its row malformed.  The log comes back at ``EventLog``'s
    widths.

    A file in the form ``write_submissions`` writes is read by
    ``_columnar_log``; every other file, and every error, is the row
    reader's (``_row_log``).  Both give the same log.
    """
    return _repaired(_read_log(path))


def _read_log(path) -> EventLog:
    """The log of ``path`` as read, by the columnar reader if it can.

    Returned rather than held by the caller, so ``_repaired`` gets the only
    reference and can free each column once it is gathered.
    """
    log = _columnar_log(path)
    return _row_log(path) if log is None else log


def _row_log(path) -> EventLog:
    """The log of any submissions.csv, read row by row with the CSV reader.

    This reader defines the accepted format and raises every parse error.
    """
    sids: list[str] = []
    qids: list[str] = []
    assignments: list[int] = []
    timestamps: list[int] = []
    attempts: list[int] = []
    corrects: list[bool] = []
    for line_no, (sid, qid, assignment_s, ts_s, attempt_s, correct_s) in _data_rows(
            path, SUBMISSIONS_HEADER):
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
        if not (_INT64_MIN <= timestamp <= _INT64_MAX and _INT64_MIN <= attempt <= _INT64_MAX):
            raise MalformedRow(line_no, "integer field outside the int64 range")
        sids.append(sid)
        qids.append(qid)
        assignments.append(assignment)
        timestamps.append(timestamp)
        attempts.append(attempt)
        corrects.append(correct_s == "1")
    return EventLog.from_columns(sids, qids, assignments, timestamps, attempts, corrects)


def _columnar_log(path) -> EventLog | None:
    """The log of a submissions.csv in the form ``write_submissions`` writes,
    or None for any other file.

    The file is streamed once and converted with numpy in blocks of whole
    lines (``_line_blocks``); each block is checked as UTF-8 and for CRs on
    its own, since a line never spans two.  The form: valid UTF-8 with no
    CR outside a CRLF; '#' and empty lines anywhere; the header, then data
    lines with no '"' and no NUL, of six fields whose integers are 1 to
    _MAX_DIGITS ASCII digits after an optional '-', with assignment_id in
    1..N_ASSIGNMENTS and correct 0 or 1.  The row reader gives such a file
    the same log.  No IngestError is raised here: a file outside the form
    is the row reader's.
    """
    columns: list[list] = [[] for _ in SUBMISSIONS_HEADER]
    past_header = False
    with open(path, "rb") as fh:
        for block in _line_blocks(fh):
            if not block.isascii():
                try:
                    block.decode("utf-8")
                except UnicodeDecodeError:
                    return None
            if not past_header:
                start = _past_header(block)
                if start is None:
                    return None
                past_header = start > 0
                block = block[start:] if past_header else b""
            if block:
                block_columns = _block_columns(block)
                if block_columns is None:
                    return None
                for column, part in zip(columns, block_columns):
                    column.append(part)
    if not columns[0]:
        return None
    # Each column's blocks are freed as soon as it is merged, before the next one is.
    student_ids, student = _merged_codes(columns.pop(0))
    question_ids, question = _merged_codes(columns.pop(0))
    return EventLog(student_ids, question_ids, student, question,
                    *(np.concatenate(columns.pop(0)) for _ in range(len(columns))))


def _line_blocks(fh) -> Iterator[bytes]:
    """The bytes of a binary file in blocks of whole lines, each at most
    BLOCK_BYTES unless one line is longer; only the last block may lack a
    final newline."""
    rest = b""
    while chunk := fh.read(BLOCK_BYTES - len(rest)):
        data = rest + chunk
        end = data.rfind(b"\n") + 1
        if not end:                             # a line longer than a block is a block
            data += fh.readline()
            end = len(data)
        rest = data[end:]
        yield data[:end]
    if rest:
        yield rest


def _past_header(block: bytes) -> int | None:
    """The offset after the header line in the first block that holds a
    data line, 0 if ``block`` holds none, or None if its first data line is
    not the header or a CR before it is outside a CRLF."""
    start = 0
    while start < len(block):
        end = block.find(b"\n", start)
        end = len(block) if end < 0 else end
        line = block[start:end].removesuffix(b"\r")
        if b"\r" in line:
            return None
        if line and not line.startswith(b"#"):
            return end + 1 if line == _HEADER_LINE else None
        start = end + 1
    return 0


def _block_columns(block: bytes) -> list | None:
    """The columns of the data lines in ``block``, whole lines of a file
    checked by ``_columnar_log``: [(distinct student ids, codes), (distinct
    question ids, codes), assignment, timestamp, attempt, correct].  An
    empty list if it holds no data line, None if a data line is outside the
    form or a CR in ``block`` is outside a CRLF.  '"' and NULs are located
    only in a block that holds one.
    """
    buf = np.frombuffer(block, np.uint8)
    newline = np.flatnonzero(buf == ord("\n"))
    # Every CR ends a CRLF when there are as many CRs as CRLFs.
    if np.count_nonzero(buf == ord("\r")) != np.count_nonzero(
            buf[newline[newline > 0] - 1] == ord("\r")):
        return None
    start = np.concatenate(([0], newline + 1))
    end = np.append(newline, buf.size)
    # Every CR ends a CRLF, so a line's last byte is CR only where the line
    # ends in CRLF.
    end -= (end > start) & (buf[end - 1] == ord("\r"))
    comma = np.flatnonzero(buf == ord(","))
    # A line's commas lie before the next line's start, so each line's
    # count is a step of the index of the first comma at or after its start.
    first = np.searchsorted(comma, start)
    commas = np.diff(first, append=comma.size)
    row = (end > start) & (buf[np.minimum(start, buf.size - 1)] != ord("#"))
    start, end, first = start[row], end[row], first[row]
    if not start.size:
        return []
    if np.any(commas[row] != len(SUBMISSIONS_HEADER) - 1):
        return None
    # The CSV reader never sees a comment line, so a '"' or NUL may sit there.
    if b'"' in block or b"\0" in block:
        barred = np.flatnonzero((buf == ord('"')) | (buf == 0))
        if np.any(np.searchsorted(barred, start) != np.searchsorted(barred, end)):
            return None
    cut = comma[first + np.arange(len(SUBMISSIONS_HEADER) - 1)[:, None]]
    sid, qid, assignment, timestamp, attempt, correct = zip((start, *(cut + 1)), (*cut, end))
    assignment, timestamp, attempt = (_integers(buf, *field)
                                      for field in (assignment, timestamp, attempt))
    correct_start, correct_end = correct
    correct = buf[np.minimum(correct_start, buf.size - 1)]
    if (assignment is None or timestamp is None or attempt is None
            or np.any((assignment < 1) | (assignment > N_ASSIGNMENTS))
            or np.any(correct_end - correct_start != 1)
            or np.any((correct != ord("0")) & (correct != ord("1")))):
        return None
    return [_id_codes(buf, *sid), _id_codes(buf, *qid),
            assignment.astype(np.int8), timestamp, attempt, correct == ord("1")]


def _integers(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The int64 value of each field ``buf[start:end]``, or None unless every
    field is 1 to _MAX_DIGITS ASCII digits, after an optional '-'.

    The digits of every field are gathered right-aligned into one row of
    the widest field's width; the bytes before a narrower field are zeroed
    only when the widths differ.  The value is accumulated one column at a
    time by Horner's rule in int64, where at most _MAX_DIGITS digits never
    overflow.
    """
    negative = buf[start] == ord("-")
    start = start + negative
    width = end - start
    narrowest, widest = int(width.min()), int(width.max())
    if narrowest < 1 or widest > _MAX_DIGITS:
        return None
    digit = _windows(buf, end - widest, widest)
    digit -= np.uint8(ord("0"))
    if narrowest < widest:
        digit *= np.arange(widest) >= (widest - width)[:, None]
    if digit.max() > 9:               # uint8 arithmetic wraps bytes below '0' above 9
        return None
    value = digit[:, 0].astype(np.int64)
    for column in digit.T[1:]:
        value *= 10
        value += column
    return np.negative(value, out=value, where=negative)


def _id_codes(buf: np.ndarray, start: np.ndarray, end: np.ndarray):
    """The distinct fields ``buf[start:end]`` in byte order, and each field's index into them.

    Each field is read as big-endian uint64 words, zero-padded to a whole
    word; the distinct fields are returned as rows of words.  Word j of
    every field is one gather, at start + 8j, from a big-endian view of the
    zero-padded block that starts a word at every byte; the bytes of the
    word past the field are then cleared.  Zero-padded big-endian words
    order the fields as bytes (no field holds a NUL), and UTF-8 byte order
    is code-point order, the order of Python ``str``.
    """
    length = end - start
    words = -(-max(int(length.max()), 1) // 8)
    # A field starts at most at the block's end, so its last word ends at
    # most 8 * words bytes past it.
    padded = np.concatenate((buf, np.zeros(8 * words, dtype=np.uint8)))
    word_at = np.ndarray((padded.size - 7,), dtype=">u8", buffer=padded, strides=(1,))
    ones = np.uint64(2**64 - 1)
    rows = np.empty((start.size, words), dtype=np.uint64)
    for j in range(words):
        past = np.clip(8 * (j + 1) - length, 0, 8).astype(np.uint64)   # bytes past the field
        np.bitwise_and(word_at[start + 8 * j], np.left_shift(ones, 8 * past), out=rows[:, j])
    return _distinct_rows(rows)


def _windows(buf: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """``buf[i:i + width]`` for each offset i in ``at``, one row each, where
    bytes outside ``buf`` read as zeros; every i is at least ``-width``."""
    pad = np.zeros(width, dtype=np.uint8)
    padded = np.concatenate((pad, buf, pad))
    rows = np.ndarray((padded.size - width + 1, width), np.uint8, padded, strides=(1, 1))
    return rows[at + width]


def _distinct_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D uint64 array in lexicographic order, and
    each row's int32 index into them."""
    if words.shape[1] == 1:
        order = np.argsort(words[:, 0])
    else:
        order = np.lexsort(words.T[::-1])
    new = np.ones(len(order), dtype=bool)       # the first of each run of equal sorted rows
    new[1:] = False
    for column in words.T:
        ranked = column[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    inverse = np.empty(len(order), dtype=np.int32)
    inverse[order] = np.cumsum(new, dtype=np.int32) - 1
    return words[order[new]], inverse


def _merged_codes(blocks) -> tuple[tuple[str, ...], np.ndarray]:
    """The blocks' (distinct, codes) pairs merged, as ``_codes`` gives them for the whole column."""
    words = max(ids.shape[1] for ids, _ in blocks)
    distinct, inverse = _distinct_rows(np.concatenate(
        [np.pad(ids, ((0, 0), (0, words - ids.shape[1]))) for ids, _ in blocks]))
    codes = np.empty(sum(len(block_codes) for _, block_codes in blocks), dtype=np.int32)
    lo = at = 0
    for ids, block_codes in blocks:
        codes[at:at + len(block_codes)] = inverse[lo:lo + len(ids)][block_codes]
        lo += len(ids)
        at += len(block_codes)
    names = distinct.astype(">u8").view(f"S{8 * words}").ravel()
    return tuple(name.decode("utf-8") for name in names.tolist()), codes


def _stable_order(keys: Iterable[np.ndarray]) -> np.ndarray:
    """The stable sort by the signed integer ``keys``, which are of one
    length and most significant first: the permutation ``np.lexsort`` gives
    for them listed least significant first.

    The keys are packed into uint64 words (``_pack``), and each row's index
    is packed last as the least significant key.  That makes the packed
    rows distinct, so when they fit in one word, any sort of it gives the
    stable order; more words are ``np.lexsort``ed.  The keys are taken one
    at a time, so a generator of gathered keys holds only one at once.
    """
    words: list[np.ndarray] = []
    free = 0                                    # bits left in the last word
    for key in keys:
        if not key.size:
            return np.zeros(0, dtype=np.intp)
        free = _pack(words, free, key)
        del key                                 # before the next key is made
    _pack(words, free, np.arange(words[0].size))
    return np.argsort(words[0]) if len(words) == 1 else np.lexsort(words[::-1])


def _pack(words: list[np.ndarray], free: int, key: np.ndarray) -> int:
    """Pack a signed integer key (int8 to int64) below the last of
    ``words``, which has ``free`` bits left, or start a new word with it;
    returns the bits left.

    The key is offset by its minimum, exactly in uint64 (the cast and the
    subtraction both wrap modulo 2**64), and so takes the bit width of its
    span.
    """
    low = int(key.min())
    width = (int(key.max()) - low).bit_length()
    offset = np.subtract(key, np.uint64(low % 2**64), dtype=np.uint64, casting="unsafe")
    if words and width <= free:
        words[-1] <<= np.uint64(width)
        words[-1] |= offset
        return free - width
    words.append(offset)
    return 64 - width


def _canonical_order(log: EventLog) -> np.ndarray:
    """The stable sort of the log by (student, question, timestamp, attempt,
    correct, assignment).

    Each id pair is one key because question codes are below
    len(question_ids), formed in int64 since the product can pass 2**31;
    (correct, assignment) is one because assignment is in
    1..N_ASSIGNMENTS, below 8.
    """
    def keys():
        pair = log.student * np.int64(len(log.question_ids))
        pair += log.question
        yield pair
        del pair                                # before the next key is packed
        yield log.timestamp
        yield log.attempt
        yield log.correct * np.int8(8) + log.assignment

    return _stable_order(keys())


def _repaired(log: EventLog) -> tuple[EventLog, RepairCount]:
    """The log in canonical order, with the after-correct and attempt repairs.

    The groups, the kept rows and their new attempt numbers are found from
    the permuted student, question and correct columns; every column of the
    result is then gathered once, through the kept rows' order.  Sums,
    group numbers and the order are int32; the new attempt numbers are the
    log's int64.  When the caller hands over its only reference, each source
    column is freed as soon as its gathered copy exists.
    """
    order = _canonical_order(log).astype(np.int32)
    student_ids, question_ids = log.student_ids, log.question_ids
    student, question, assignment, timestamp, attempt, correct = (
        log.student, log.question, log.assignment, log.timestamp, log.attempt, log.correct)
    del log
    student, question, correct = student[order], question[order], correct[order]
    first = np.ones(order.size, dtype=bool)      # first row of its (student, question) group
    first[1:] = (student[1:] != student[:-1]) | (question[1:] != question[:-1])
    group = np.cumsum(first, dtype=np.int32)
    group -= 1
    correct_before = np.cumsum(correct, dtype=np.int32)
    correct_before -= correct
    keep = correct_before == correct_before[first][group]
    del correct_before
    dropped = order.size - int(np.count_nonzero(keep))
    # A group's first row is always kept, so group numbers stay dense.
    position = np.arange(1, order.size - dropped + 1, dtype=np.int64)
    position -= np.flatnonzero(first[keep])[group[keep]]
    del first, group
    order = order[keep]
    student, question, correct = student[keep], question[keep], correct[keep]
    del keep
    renumbered = int(np.count_nonzero(attempt[order] != position))
    del attempt
    assignment = assignment[order]
    timestamp = timestamp[order]
    canonical = EventLog(student_ids, question_ids, student, question,
                         assignment, timestamp, position, correct)
    return canonical, RepairCount(dropped, renumbered)


def parse_gradebook(path) -> tuple[StudentRecord, ...]:
    """Parse gradebook.csv into records sorted by student_id."""
    records: dict[str, StudentRecord] = {}
    for line_no, fields in _data_rows(path, GRADEBOOK_HEADER):
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
    return tuple(records[sid] for sid in sorted(records))


def build_dataset(events: EventLog | Sequence[SubmissionEvent],
                  students: Sequence[StudentRecord]) -> Dataset:
    """Join events and records; every event must belong to a known student.

    ``events`` is an EventLog or a sequence of SubmissionEvents, taken in
    the order given.  Students with no submissions are kept: their activity
    features are legitimately all zero.  Question ordinals follow sorted
    (assignment_id, question_id) order, so no student's events decide a
    column.  An error names the first offending event in stream order.
    """
    log = events if isinstance(events, EventLog) else EventLog.from_events(events)
    if not len(log) or not students:
        raise EmptyLog("build_dataset input")
    rows: dict[str, int] = {}
    for i, rec in enumerate(students):
        if rec.student_id in rows:
            raise DuplicateStudent(rec.student_id)
        rows[rec.student_id] = i
    row = np.array([rows.get(sid, -1) for sid in log.student_ids], dtype=np.int32)[log.student]
    # Some one event's assignment per question (which one is unspecified):
    # the log is consistent only if every event agrees with it.
    question_assignment = np.empty(len(log.question_ids), dtype=log.assignment.dtype)
    question_assignment[log.question] = log.assignment        # every code occurs
    orphan = row < 0
    if orphan.any() or (log.assignment != question_assignment[log.question]).any():
        # Only a faulty log pays for the sort that finds each first event.
        _, first = np.unique(log.question, return_index=True)
        i = np.flatnonzero(orphan | (log.assignment != log.assignment[first][log.question]))[0]
        if orphan[i]:
            raise OrphanEvent(log.student_ids[log.student[i]])
        raise InconsistentAssignment(log.question_ids[log.question[i]])
    # Codes follow question_id order, so a stable sort by assignment gives
    # (assignment_id, question_id) order.
    by_column = np.argsort(question_assignment, kind="stable")
    ordinal = np.empty(by_column.size, dtype=np.int32)
    ordinal[by_column] = np.arange(by_column.size, dtype=np.int32)
    catalog = {log.question_ids[code]: (assignment, i) for i, (code, assignment) in
               enumerate(zip(by_column.tolist(), question_assignment[by_column].tolist()))}
    return Dataset(log, tuple(students), catalog, row, ordinal[log.question])


def load_dataset(submissions_path, gradebook_path) -> tuple[Dataset, RepairCount]:
    """Parse both files and join them.  Returns (dataset, repairs)."""
    log, repairs = parse_submissions(submissions_path)
    students = parse_gradebook(gradebook_path)
    return build_dataset(log, students), repairs


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

