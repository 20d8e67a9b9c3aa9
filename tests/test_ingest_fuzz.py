"""Columnar ingest and features against the row-object reference, on random logs.

The reference (``tests/oracles.py``) is the implementation the columnar code
replaced.  Its sort key leaves out assignment_id, so two rows that differ
only in assignment come out in file order; where a test compares successful
parses it feeds the reference a copy of the file sorted by assignment_id,
which its stable sort keeps, and the two canonical orders then agree.
"""
from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gradecast import ingest
from gradecast.features import assemble_feature_matrix
from gradecast.ingest import (
    SUBMISSIONS_HEADER,
    IngestError,
    build_dataset,
    load_dataset,
    parse_gradebook,
    parse_submissions,
    write_gradebook,
    write_submissions,
)
from helpers import event, events_of, gaps_of, log_bits, record
from oracles import (
    reference_build_dataset,
    reference_feature_values,
    reference_parse_submissions,
    reference_response_times,
    reference_write_submissions,
)

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

STUDENTS = ("s1", "s2", "s10", "", "é")
QUESTIONS = ("q1", "q2", "q10", "", "Q")
# Multiples of the session gap plus small offsets: equal timestamps, gaps of
# exactly 7200 s and one second more, and gaps either side of the 12 s cutoff.
TIMESTAMPS = st.builds(lambda k, d: k * 7200 + d, st.integers(-3, 3),
                       st.sampled_from((0, 0, 1, -1, 11, 12, 13, 600)))
BAD_TOKENS = ("", "x", "1.5", "2", "5", "-1", "true")


def integer_text(value: int):
    """Spellings int() accepts: plain, with a sign, padded or with underscores."""
    spellings = [str(value), f" {value}", f"{value:_}"]
    if value >= 0:
        spellings.append(f"+{value}")
    return st.sampled_from(spellings)


@st.composite
def rows(draw, corrupt: bool):
    """One submissions.csv data row as its six fields (a few broken when ``corrupt``)."""
    fields = [draw(st.sampled_from(STUDENTS)), draw(st.sampled_from(QUESTIONS)),
              str(draw(st.integers(1, 4))),
              draw(TIMESTAMPS.flatmap(integer_text)),
              draw(st.integers(-1, 4).flatmap(integer_text)),
              draw(st.sampled_from(("0", "1")))]
    if corrupt and draw(st.integers(0, 9)) == 0:
        k = draw(st.integers(0, 6))
        if k == 6:
            fields.pop()
        elif k >= 2:
            fields[k] = draw(st.sampled_from(BAD_TOKENS))
    return fields


@st.composite
def logs(draw, corrupt: bool = False, consistent: bool = False):
    """(rows, line ending, extra lines): a small submission log as text pieces.

    With ``consistent`` each question keeps one assignment, so the log joins.
    """
    body = draw(st.lists(rows(corrupt), min_size=0 if corrupt else 1, max_size=30))
    # Copies of rows, some under another assignment: ties on every other field.
    if body:
        for i, assignment in draw(st.lists(st.tuples(st.integers(0, len(body) - 1),
                                                     st.integers(1, 4)), max_size=5)):
            body.append([*body[i][:2], str(assignment), *body[i][3:]])
    if consistent:
        home = {q: str(draw(st.integers(1, 4))) for q in QUESTIONS}
        for fields in body:
            fields[2] = home[fields[1]]
    return body, draw(st.sampled_from(("\n", "\r\n"))), draw(st.booleans())


def write_log(path: Path, body, ending: str, extra_lines: bool) -> Path:
    lines = [",".join(SUBMISSIONS_HEADER)] + [",".join(f) for f in body]
    if extra_lines:
        lines = ["# run-config: {\"seed\": 1}", ""] + lines[:1] + [" "] + lines[1:]
    path.write_bytes((ending.join(lines) + ending).encode("utf-8"))
    return path


def by_assignment(body):
    return sorted(body, key=lambda fields: int(fields[2]))


def outcome(call, *args):
    """A call's result, or its exception as (type, message)."""
    try:
        return call(*args)
    except IngestError as exc:
        return type(exc), str(exc)


def summary(events, repairs):
    return events, repairs.dropped, repairs.renumbered


@FUZZ
@given(logs(corrupt=True))
def test_parse_matches_reference(log):
    body, ending, extra = log
    with tempfile.TemporaryDirectory() as tmp:
        path = write_log(Path(tmp) / "s.csv", body, ending, extra)
        expected = outcome(reference_parse_submissions, path)
        got = outcome(parse_submissions, path)
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            assert got == expected      # same exception, same message and physical line
            return
        sorted_path = write_log(Path(tmp) / "sorted.csv", by_assignment(body), ending, extra)
        assert (summary(events_of(got[0]), got[1])
                == summary(*reference_parse_submissions(sorted_path)))


@FUZZ
@given(logs(), st.randoms(use_true_random=False))
def test_shuffled_copy_parses_identically(log, rng):
    body, ending, extra = log
    shuffled = list(body)
    rng.shuffle(shuffled)
    with tempfile.TemporaryDirectory() as tmp:
        a = parse_submissions(write_log(Path(tmp) / "a.csv", body, ending, extra))
        b = parse_submissions(write_log(Path(tmp) / "b.csv", shuffled, ending, not extra))
    assert summary(events_of(a[0]), a[1]) == summary(events_of(b[0]), b[1])
    for column in ("student", "question", "assignment", "timestamp", "attempt", "correct"):
        assert np.array_equal(getattr(a[0], column), getattr(b[0], column))


@FUZZ
@given(logs(consistent=True), st.integers(0, 3))
def test_features_match_reference(log, idle_students):
    """Whole files: students with no events, one-event students, ties and 7200 s gaps."""
    body, ending, extra = log
    ids = sorted({fields[0] for fields in body}) + [f"idle{i}" for i in range(idle_students)]
    records = [record(student=sid, hw=(i, 50, 100, 0.5), test=i * 3.5)
               for i, sid in enumerate(ids)]
    with tempfile.TemporaryDirectory() as tmp:
        sub = write_log(Path(tmp) / "s.csv", body, ending, extra)
        gb = Path(tmp) / "g.csv"
        write_gradebook(records, gb)
        dataset, repairs = load_dataset(sub, gb)
        sorted_sub = write_log(Path(tmp) / "sorted.csv", by_assignment(body), ending, extra)
        events, reference_repairs = reference_parse_submissions(sorted_sub)
        reference = reference_build_dataset(events, parse_gradebook(gb))
    assert summary(events_of(dataset.log), repairs) == summary(events, reference_repairs)
    assert dataset.question_catalog == reference.question_catalog
    values = assemble_feature_matrix(dataset).values
    expected = reference_feature_values(reference)
    assert np.array_equal(values, expected)
    assert values.tobytes() == expected.tobytes()


EVENTS = st.lists(st.builds(event, student=st.sampled_from(STUDENTS + ("ghost",)),
                            question=st.sampled_from(QUESTIONS),
                            assignment=st.integers(1, 4), timestamp=TIMESTAMPS,
                            attempt=st.integers(-1, 4), correct=st.booleans()),
                  max_size=30)


@FUZZ
@given(EVENTS, st.booleans())
def test_build_dataset_from_events_matches_reference(events, one_home):
    """Event sequences in the order given: orphans, clashes, sessions and gaps."""
    if one_home:
        home = {q: 1 + i % 4 for i, q in enumerate(QUESTIONS)}
        events = [event(e.student_id, e.question_id, home[e.question_id], e.timestamp,
                        e.attempt_number, e.correct) for e in events]
    records = [record(student=sid) for sid in STUDENTS]
    expected = outcome(reference_build_dataset, events, records)
    got = outcome(build_dataset, events, records)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert events_of(got.log) == expected.events
    assert got.question_catalog == expected.question_catalog
    assert np.array_equal(assemble_feature_matrix(got).values,
                          reference_feature_values(expected))
    for sid in STUDENTS:
        assert gaps_of(got, sid) == reference_response_times(expected, sid)



# Timestamps of at most 18 digits, which the columnar reader converts, and
# 19-digit ones up to the int64 extremes, which it leaves to the row reader.
SHORT_TIMESTAMPS = st.one_of(TIMESTAMPS, st.integers(-(10**18 - 1), 10**18 - 1),
                             st.sampled_from((10**18 - 1, -(10**18 - 1))))
LONG_TIMESTAMPS = st.sampled_from((-2**63, 2**63 - 1, 10**18, -10**18))


@st.composite
def written_logs(draw):
    """(events, with a 19-digit timestamp?): a log as ``write_submissions`` gets it."""
    events = draw(st.lists(st.builds(event, student=st.sampled_from(STUDENTS),
                                     question=st.sampled_from(QUESTIONS),
                                     assignment=st.integers(1, 4), timestamp=SHORT_TIMESTAMPS,
                                     attempt=st.integers(-1, 4), correct=st.booleans()),
                           min_size=1, max_size=30))
    long = draw(st.booleans())
    if long:
        i = draw(st.integers(0, len(events) - 1))
        e = events[i]
        events[i] = event(e.student_id, e.question_id, e.assignment_id,
                          draw(LONG_TIMESTAMPS), e.attempt_number, e.correct)
    return events, long


@FUZZ
@given(written_logs(), st.sampled_from((b"\r\n", b"\n")),
       st.lists(st.tuples(st.integers(0, 40),
                          st.sampled_from((b"", b"# note, 1,2,3,4,5", b'# "quoted",\x00'))),
                max_size=6),
       st.booleans(), st.sampled_from((16, 100, 1 << 20)))
def test_columnar_reader_matches_row_reader(log, ending, extra, final_newline, block_bytes):
    """Written files, LF or CRLF, with '#' and empty lines anywhere, with or
    without a final newline, in blocks of one line, of several, or one block."""
    events, long = log
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        write_submissions(events, path, header_comment='run-config: {"seed": 1}')
        lines = path.read_bytes().split(b"\r\n")[:-1]
        for at, line in extra:
            lines.insert(at, line)
        path.write_bytes(ending.join(lines) + (ending if final_newline else b""))
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
            columnar = ingest._columnar_log(path)
        rows = ingest._row_log(path)
    if long:
        assert columnar is None
        return
    assert columnar is not None
    assert log_bits(columnar) == log_bits(rows)
    (a, repairs_a), (b, repairs_b) = ingest._repaired(columnar), ingest._repaired(rows)
    assert log_bits(a) == log_bits(b)
    assert (repairs_a.dropped, repairs_a.renumbered) == (repairs_b.dropped, repairs_b.renumbered)


# Ids with every byte that csv.writer quotes for (a comma, a quote, CR, LF),
# non-ASCII ones of two to four UTF-8 bytes, and the empty id.  A NUL is
# drawn only where csv.writer writes one: before Python 3.11 it raises.
ID_CHARS = [*'ab,"\r\n', "é", "日", "\U00010000", *(["\0"] if sys.version_info >= (3, 11) else [])]
INT64 = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from((-2**63, 2**63 - 1, -1, 0)))


@FUZZ
@given(st.lists(st.builds(event, student=st.text(st.sampled_from(ID_CHARS), max_size=4),
                          question=st.text(st.sampled_from(ID_CHARS), max_size=4),
                          assignment=st.one_of(st.integers(1, 4), INT64), timestamp=INT64,
                          attempt=st.one_of(st.integers(-12, 12), INT64), correct=st.booleans()),
                max_size=30),
       st.sampled_from((None, 'run-config: {"seed": 1}')), st.sampled_from((1, 3, 1 << 13)))
def test_writer_matches_csv_writer(events, header_comment, block_rows):
    """write_submissions writes csv.writer's bytes for any ids and any int64
    integers, in blocks of one row, of a few, or one block."""
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        with mock.patch.object(ingest, "LOG_BLOCK_ROWS", block_rows):
            write_submissions(events, got, header_comment=header_comment)
        reference_write_submissions(events, want, header_comment=header_comment)
        assert got.read_bytes() == want.read_bytes()
