import pickle
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from gradecast import ingest
from gradecast.features import assemble_feature_matrix
from gradecast.ingest import (
    _MAX_DIGITS,
    N_ASSIGNMENTS,
    DuplicateStudent,
    EmptyLog,
    EventLog,
    Grade,
    InconsistentAssignment,
    MalformedRow,
    NotUtf8,
    OrphanEvent,
    ScoreOutOfRange,
    SubmissionEvent,
    UnknownGrade,
    build_dataset,
    load_dataset,
    parse_gradebook,
    parse_submissions,
    write_gradebook,
    write_submissions,
)
from gradecast.synth import CohortConfig, generate_cohort
from helpers import dataset_from, event, events_of, log_bits, record, write_dataset
from oracles import reference_session_index

SUB_HEADER = "student_id,question_id,assignment_id,timestamp,attempt_number,correct\n"
GB_HEADER = "student_id,hw1,hw2,hw3,hw4,test1,final_grade\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestParseSubmissions:
    def test_single_valid_row(self, tmp_path):
        p = write(tmp_path / "s.csv", SUB_HEADER + "s1,q1,1,100,1,0\n")
        log, warnings = parse_submissions(p)
        events = events_of(log)
        assert events == (SubmissionEvent("s1", "q1", 1, 100, 1, False),)
        assert warnings == 0

    def test_attempt_gap_renumbered_with_warning(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  SUB_HEADER + "s1,q1,1,100,1,0\ns1,q1,1,200,3,1\n")
        log, warnings = parse_submissions(p)
        events = events_of(log)
        assert [e.attempt_number for e in events] == [1, 2]
        assert warnings == 1
        assert (warnings.dropped, warnings.renumbered) == (0, 1)

    def test_rows_after_correct_dropped(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  SUB_HEADER
                  + "s1,q1,1,100,1,1\ns1,q1,1,200,2,0\ns1,q1,1,300,3,0\n")
        log, warnings = parse_submissions(p)
        events = events_of(log)
        assert len(events) == 1
        assert events[0].correct
        assert warnings == 2
        assert (warnings.dropped, warnings.renumbered) == (2, 0)

    def test_repairs_counted_by_kind(self, tmp_path):
        # One row dropped after the correct answer on q1; the q2 attempt
        # that starts at 2 is re-numbered.
        p = write(tmp_path / "s.csv",
                  SUB_HEADER + "s1,q1,1,100,1,1\ns1,q1,1,200,2,0\ns1,q2,1,300,2,0\n")
        log, warnings = parse_submissions(p)
        events = events_of(log)
        assert [(e.question_id, e.attempt_number) for e in events] == [("q1", 1), ("q2", 1)]
        assert (warnings, warnings.dropped, warnings.renumbered) == (2, 1, 1)
        copied = pickle.loads(pickle.dumps(warnings))
        assert (copied, copied.dropped, copied.renumbered) == (2, 1, 1)

    def test_non_boolean_correct_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv", SUB_HEADER + "s1,q1,1,100,1,maybe\n")
        with pytest.raises(MalformedRow):
            parse_submissions(p)

    def test_bad_header_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv", "a,b,c,d,e,f\ns1,q1,1,100,1,0\n")
        with pytest.raises(MalformedRow):
            parse_submissions(p)

    def test_assignment_out_of_range(self, tmp_path):
        p = write(tmp_path / "s.csv", SUB_HEADER + "s1,q1,5,100,1,0\n")
        with pytest.raises(MalformedRow):
            parse_submissions(p)

    def test_non_integer_field(self, tmp_path):
        p = write(tmp_path / "s.csv", SUB_HEADER + "s1,q1,1,soon,1,0\n")
        with pytest.raises(MalformedRow):
            parse_submissions(p)

    def test_empty_log_raises(self, tmp_path):
        p = write(tmp_path / "s.csv", SUB_HEADER)
        with pytest.raises(EmptyLog):
            parse_submissions(p)

    def test_row_order_does_not_matter(self, tmp_path):
        rows = ["s2,q1,1,50,1,1\n", "s1,q2,1,10,1,0\n", "s1,q1,1,30,1,1\n"]
        a = write(tmp_path / "a.csv", SUB_HEADER + "".join(rows))
        b = write(tmp_path / "b.csv", SUB_HEADER + "".join(reversed(rows)))
        (log_a, repairs_a), (log_b, repairs_b) = parse_submissions(a), parse_submissions(b)
        assert events_of(log_a) == events_of(log_b)
        assert ((repairs_a.dropped, repairs_a.renumbered)
                == (repairs_b.dropped, repairs_b.renumbered))

    def test_rows_differing_only_in_assignment_parse_the_same_in_either_order(self, tmp_path):
        rows = ["s1,q1,1,100,1,1\n", "s1,q1,2,100,1,1\n"]
        a = write(tmp_path / "a.csv", SUB_HEADER + "".join(rows))
        b = write(tmp_path / "b.csv", SUB_HEADER + "".join(reversed(rows)))
        (log_a, repairs_a), (log_b, repairs_b) = parse_submissions(a), parse_submissions(b)
        assert events_of(log_a) == events_of(log_b) == (SubmissionEvent("s1", "q1", 1, 100, 1, True),)
        assert (repairs_a.dropped, repairs_b.dropped) == (1, 1)

    def test_integer_outside_int64_is_malformed_at_its_line(self, tmp_path):
        top = 2**63 - 1
        p = write(tmp_path / "s.csv", SUB_HEADER + f"s1,q1,1,{top},1,0\ns1,q2,1,{-top - 1},1,0\n")
        log, _ = parse_submissions(p)
        assert sorted(log.timestamp.tolist()) == [-top - 1, top]
        for row in (f"s1,q1,1,{top + 1},1,0", f"s1,q1,1,0,{-top - 2},0",
                    f"s1,q1,{2**64},0,1,0"):
            p = write(tmp_path / "s.csv", SUB_HEADER + "s1,q1,1,5,1,0\n" + row + "\n")
            with pytest.raises(MalformedRow) as err:
                parse_submissions(p)
            assert err.value.line_no == 3

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  "# run-config: {}\n\n" + SUB_HEADER + "\ns1,q1,1,100,1,0\n")
        log, warnings = parse_submissions(p)
        events = events_of(log)
        assert len(events) == 1 and warnings == 0

    def test_error_reports_physical_line_number(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  "# comment\n" + SUB_HEADER + "s1,q1,1,100,1,bad\n")
        with pytest.raises(MalformedRow) as err:
            parse_submissions(p)
        assert err.value.line_no == 3

    def test_crlf_file_reports_physical_line_after_header_and_blanks(self, tmp_path):
        lines = ["# run-config: {\"seed\": 1}", "", SUB_HEADER.strip(), "",
                 "s1,q1,1,100,1,0", "  ", "s1,q1,1,200,2,1", "", "s2,q1,1,50,1,2"]
        p = tmp_path / "s.csv"
        p.write_bytes("\r\n".join(lines).encode() + b"\r\n")
        with pytest.raises(MalformedRow) as err:
            parse_submissions(p)
        assert err.value.line_no == 9
        p.write_bytes("\r\n".join(lines[:-1]).encode() + b"\r\n")
        log, repairs = parse_submissions(p)
        events = events_of(log)
        assert [e.timestamp for e in events] == [100, 200] and repairs == 0

        gradebook = ["# run-config: {}", GB_HEADER.strip(), "", "s1,90,85,70,100,88,A",
                     "", "s2,ninety,85,70,100,88,A"]
        g = tmp_path / "g.csv"
        g.write_bytes("\r\n".join(gradebook).encode() + b"\r\n")
        with pytest.raises(MalformedRow) as err:
            parse_gradebook(g)
        assert err.value.line_no == 6

    def test_quoted_field_may_not_span_lines(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  SUB_HEADER + "\n" + 's1,"q1\n,1,100,1,0\ns1,q2,1,100,1,0\n')
        with pytest.raises(MalformedRow) as err:
            parse_submissions(p)
        assert err.value.line_no == 3


ROW_A, ROW_B = "s1,q1,1,100,1,0\n", "s2,q1,1,50,1,1\n"
# Files outside the columnar reader's form: each is read by the row reader,
# which gives a log (None) or raises (exception type, line_no).
OUTSIDE_COLUMNAR_FORM = {
    "quoted-id": (SUB_HEADER + '"s1",q1,1,100,1,0\n' + ROW_B, None),
    "lone-cr-ending": (SUB_HEADER + ROW_A.replace("\n", "\r") + ROW_B, None),
    "lone-cr-in-id": (SUB_HEADER + "s\r1,q1,1,100,1,0\n" + ROW_B, (MalformedRow, 2)),
    "lone-cr-in-comment": ("# note\rmore\n" + SUB_HEADER + ROW_A + ROW_B, (MalformedRow, 2)),
    "cr-last-byte": (SUB_HEADER + ROW_A + ROW_B.replace("\n", "\r"), None),
    "nul": (SUB_HEADER + "s\x001,q1,1,100,1,0\n" + ROW_B, None),
    "non-utf8": ((SUB_HEADER + ROW_A).encode() + b"s\xff,q1,1,5,1,0\n",
                 (NotUtf8, 3)),
    "bom": ("\ufeff" + SUB_HEADER + ROW_A, (MalformedRow, 1)),
    "whitespace-line": (SUB_HEADER + ROW_A + " \t\n" + ROW_B, None),
    "space": (SUB_HEADER + "s1,q1,1, 5,1,0\n" + ROW_B, None),
    "plus": (SUB_HEADER + "s1,q1,1,+5,1,0\n" + ROW_B, None),
    "underscore": (SUB_HEADER + "s1,q1,1,1_000,1,0\n" + ROW_B, None),
    "arabic-indic-digit": (SUB_HEADER + "s1,q1,\u0663,100,1,0\n" + ROW_B, None),
    "five-fields": (SUB_HEADER + ROW_A + "s2,q1,1,50,1\n", (MalformedRow, 3)),
    "seven-fields": (SUB_HEADER + ROW_A + "s2,q1,1,50,1,1,1\n", (MalformedRow, 3)),
    "correct-2": (SUB_HEADER + ROW_A + "s2,q1,1,50,1,2\n", (MalformedRow, 3)),
    "int64-overflow": (SUB_HEADER + ROW_A + f"s2,q1,1,{2**63},1,0\n", (MalformedRow, 3)),
    "19-digit": (SUB_HEADER + ROW_A + f"s2,q1,1,{2**63 - 1},1,0\n", None),
    "header-only": (SUB_HEADER, (EmptyLog, None)),
}


def parse_outcome(read, path):
    """A read's repaired log as bits, or its exception as (type, message, line_no)."""
    try:
        log, repairs = read(path)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return log_bits(log), repairs.dropped, repairs.renumbered


GB_ROW = "s1,90,85,70,100,88,A\n"
# Files that both row-read files reject the same way, as (text with {header}
# and {row} in place, exception type, str(exc) with {width} and {path} in
# place, line_no).
ROW_READER_ERRORS = {
    "bad-header": ("# run-config: {{}}\n\nstudent_id,x\n{row}", MalformedRow,
                   "line 3: bad header ['student_id', 'x']", 3),
    "5-fields": ("# c\n{header}\n{row}a,b,c,d,e\n", MalformedRow,
                 "line 5: expected {width} fields, got 5", 5),
    "8-fields": ("# c\n{header}\n{row}a,b,c,d,e,f,g,h\n", MalformedRow,
                 "line 5: expected {width} fields, got 8", 5),
    "row-spanning-lines": ('{header}\n{row}s2,"x\ny",1\n{row}', MalformedRow,
                           "line 4: quoted field runs past the end of its line", 4),
    "header-only": ("# c\n{header}\n", EmptyLog, "no data rows in {path}", None),
    "comments-only": ("# c\n\n# d\n", EmptyLog, "no data rows in {path}", None),
    "non-utf8": ("{header}{row}\n\xff{row}", NotUtf8,
                 "line 4: not valid UTF-8 in {path}", 4),
}


@pytest.mark.parametrize("read, header, row", [(parse_submissions, SUB_HEADER, ROW_A),
                                               (parse_gradebook, GB_HEADER, GB_ROW)],
                         ids=["submissions", "gradebook"])
@pytest.mark.parametrize("text, error, message, line_no", ROW_READER_ERRORS.values(),
                         ids=ROW_READER_ERRORS.keys())
def test_row_reader_errors(tmp_path, read, header, row, text, error, message, line_no):
    path = tmp_path / "in.csv"
    # U+00FF stands for the single byte 0xff, which is not UTF-8.
    path.write_bytes(text.format(header=header, row=row).encode("utf-8")
                     .replace("\xff".encode("utf-8"), b"\xff"))
    with pytest.raises(error) as err:
        read(path)
    width = len(header.split(","))
    assert str(err.value) == message.format(width=width, path=path)
    assert getattr(err.value, "line_no", None) == line_no


class TestColumnarReader:
    @pytest.mark.parametrize("text, expected", OUTSIDE_COLUMNAR_FORM.values(),
                             ids=OUTSIDE_COLUMNAR_FORM.keys())
    def test_file_outside_the_form_is_the_row_readers(self, tmp_path, text, expected):
        p = tmp_path / "s.csv"
        p.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        assert ingest._columnar_log(p) is None
        got = parse_outcome(parse_submissions, p)
        assert got == parse_outcome(lambda q: ingest._repaired(ingest._row_log(q)), p)
        if expected is None:
            assert isinstance(got[0], tuple)
        else:
            assert (got[0], got[2]) == expected

    def test_canonical_order_equals_the_six_key_sort(self):
        rng = np.random.default_rng(8)
        extremes = np.array([-2**63, -1, 0, 1, 2**63 - 1])
        for _ in range(300):
            n = int(rng.integers(1, 80))
            log = EventLog(("", "s1", "s2"), ("q1", "q2", "q3", "q4"),
                           rng.integers(0, 3, n), rng.integers(0, 4, n),
                           rng.integers(1, 5, n), rng.choice(extremes, n),
                           rng.integers(-1, 3, n), rng.integers(0, 2, n).astype(bool))
            six_keys = np.lexsort((log.assignment, log.correct, log.attempt, log.timestamp,
                                   log.question, log.student))
            assert np.array_equal(ingest._canonical_order(log), six_keys)

    @pytest.mark.parametrize("spans", [(0,), (1, 0, 3), (12, 7, 9), (40, 30), (64,),
                                       (63, 64, 1), (20, 20, 20, 20)])
    def test_packed_sort_equals_lexsort(self, spans):
        """Keys with many ties, of spans up to the whole int64 range, packed
        into one word or several."""
        rng = np.random.default_rng(len(spans))
        keys = []
        for bits in spans:
            low = int(rng.integers(-2**63, 2**63 - 2**bits, endpoint=True))
            pool = [low, low + 2**bits - 1,
                    *(low + int(x) for x in rng.integers(0, 2**bits, 6, dtype=np.uint64))]
            keys.append(np.array(pool, dtype=np.int64)[rng.integers(0, 8, 3000)])
        assert np.array_equal(ingest._stable_order(iter(keys)), np.lexsort(keys[::-1]))
        assert ingest._stable_order(iter([np.zeros(0, dtype=np.int64)])).size == 0

    def test_session_order_equals_the_five_key_sort(self):
        rng = np.random.default_rng(9)
        extremes = [-2**63, -2**63 + 1, -1, 0, 1, 7200, 2**63 - 2, 2**63 - 1]
        students = ("", "s1", "s2")
        for _ in range(300):
            home = rng.integers(0, N_ASSIGNMENTS + 2, 4)      # 0 and 5 have no sessions
            events = [event(students[s], f"q{q}", int(home[q]), int(rng.choice(extremes)),
                            int(rng.integers(-3, 3)), bool(rng.integers(0, 2)))
                      for s, q in zip(rng.integers(0, 3, 60), rng.integers(0, 4, 60))]
            records = [record(student=sid) for sid in rng.permutation(students).tolist()]
            ds = build_dataset(events[:int(rng.integers(1, 61))], records)
            index = ds.sessions
            key, gaps, gap_row = reference_session_index(ds)
            assert np.array_equal(index.key, key)
            assert np.array_equal(index.gaps, gaps)
            assert np.array_equal(index.gap_row, gap_row)

    @pytest.mark.parametrize("block_bytes", [64, ingest.BLOCK_BYTES])
    def test_ids_across_word_boundaries_match_the_row_reader(self, tmp_path, block_bytes):
        """Ids of 1 to 17 bytes, ASCII and not, coded in blocks of one to
        three lines and in one block."""
        ids = ["a", "abcdefg", "abcdefgh", "abcdefgi", "abcdefgh1", "abcdefgh" * 2,
               "abcdefgh" * 2 + "1", "é", "abcdefgé", "日本語の", "\uffff", "\U00010000"]
        assert {len(i.encode()) for i in ids} >= {1, 7, 8, 9, 16, 17}
        rng = np.random.default_rng(4)
        events = [event(sid, qid, 1 + j % N_ASSIGNMENTS, int(rng.integers(0, 10**6)),
                        int(rng.integers(1, 4)), bool(rng.integers(0, 2)))
                  for i, sid in enumerate(ids) for j, qid in enumerate(ids)]
        path = tmp_path / "s.csv"
        write_submissions([events[i] for i in rng.permutation(len(events))], path)
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
            columnar = ingest._columnar_log(path)
        assert columnar is not None
        assert columnar.student_ids == columnar.question_ids == tuple(sorted(ids))
        assert log_bits(columnar) == log_bits(ingest._row_log(path))


HEADER = SUB_HEADER.encode()
ROWS = "".join(f"s{i},q{i % 3},{1 + i % 4},{100 * i},{1 + i % 2},{i % 2}\n"
               for i in range(8)).encode()
# Files in the columnar form, as (bytes, BLOCK_BYTES, marker): streamed in
# blocks of a few bytes, with one read ending right after the first
# ``marker`` when it is given.
STREAMED = {
    "header-after-comments-spanning-blocks": (
        b'# run-config: {"seed": 1}\n' + b"#\n" * 5 + b"\n# note, 1,2\n" + HEADER + ROWS,
        8, None),
    "utf8-char-across-a-read": (
        HEADER + "sé,q日,1,5,1,0\n".encode() + ROWS, len(HEADER) + 2, b"s\xc3"),
    "crlf-across-a-read": (
        (HEADER + b"s9,q9,1,5,1,0\n" + ROWS).replace(b"\n", b"\r\n"),
        len(HEADER) + 1 + len(b"s9,q9,1,5,1,0\r"), b"s9,q9,1,5,1,0\r"),
    "line-longer-than-a-block": (HEADER + ROWS, 4, None),
    "no-final-newline": (HEADER + ROWS.rstrip(b"\n"), 16, None),
}


class _ReadRecorder:
    """A binary file that records the size of every read."""

    def __init__(self, path, mode, sizes):
        self._fh = open(path, mode)
        self._sizes = sizes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def read(self, n=-1):
        data = self._fh.read(n)
        self._sizes.append(len(data))
        return data

    def readline(self):
        data = self._fh.readline()
        self._sizes.append(len(data))
        return data


def streamed(path, block_bytes):
    """``_columnar_log(path)`` in blocks of ``block_bytes``, and the size of each read."""
    sizes: list[int] = []
    with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes), \
            mock.patch.object(ingest, "open", create=True,
                              new=lambda p, mode: _ReadRecorder(p, mode, sizes)):
        return ingest._columnar_log(path), sizes


class TestStreamedReader:
    @pytest.mark.parametrize("text, block_bytes, marker", STREAMED.values(),
                             ids=STREAMED.keys())
    def test_streamed_log_matches_the_row_reader(self, tmp_path, text, block_bytes, marker):
        path = tmp_path / "s.csv"
        path.write_bytes(text)
        columnar, sizes = streamed(path, block_bytes)
        assert columnar is not None
        assert log_bits(columnar) == log_bits(ingest._row_log(path))
        assert sum(sizes) == len(text) and len(sizes) > 2
        if marker is not None:
            assert text.index(marker) + len(marker) in np.cumsum(sizes)

    def test_file_is_never_read_whole(self, tmp_path, small_cohort):
        """Every read but the rest of a line longer than a block asks for at
        most BLOCK_BYTES."""
        path = tmp_path / "s.csv"
        write_submissions(events_of(small_cohort.log), path)
        columnar, sizes = streamed(path, 4096)
        assert log_bits(columnar) == log_bits(ingest._row_log(path))
        assert max(sizes) <= 4096 < path.stat().st_size

    def test_invalid_utf8_in_a_later_block_is_the_row_readers(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"# c\n" + HEADER + ROWS * 4 + b"s\xff,q1,1,5,1,0\n" + ROWS)
        columnar, sizes = streamed(path, 64)
        assert columnar is None and len(sizes) > 4
        with mock.patch.object(ingest, "BLOCK_BYTES", 64), pytest.raises(NotUtf8) as err:
            parse_submissions(path)
        assert err.value.line_no == 2 + 4 * ROWS.count(b"\n") + 1

    @pytest.mark.parametrize("block_bytes", [64, ingest.BLOCK_BYTES])
    def test_short_id_on_the_last_line_of_a_block_of_long_ids(self, tmp_path, block_bytes):
        """Blocks that hold an id of 9 to 24 bytes and end in a line of
        1-byte ids, whose later words start past the block's end, and
        comment lines that hold a '"' and a NUL in every block."""
        note = '# a "q" \0 note\n'
        units = []
        for length in (9, 16, 17, 24):
            # Lines of one length: a note, a unit and a short line fill a
            # 64-byte block but for two bytes.
            long, pad = ("abcdefgh" * 3)[:length], "5" * (25 - length)
            units += [f"{long},q,1,{pad},1,0\n", f"s,{long},2,{pad},2,1\n"]
        text = (note + SUB_HEADER + "".join(note + unit + "a,b,3,7,1,0\n" for unit in units))
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes), open(path, "rb") as fh:
            blocks = [block.decode() for block in ingest._line_blocks(fh)]
        data = [block for block in blocks if "a,b,3,7,1,0" in block]
        assert data and all(block.endswith("a,b,3,7,1,0\n") and note in block
                            for block in data)
        longest_ids = {max(len(field) for line in block.splitlines()[1:]
                           for field in line.split(",")[:2] if not line.startswith("#"))
                       for block in data}
        assert longest_ids == ({24} if len(data) == 1 else {9, 16, 17, 24})
        columnar, _ = streamed(path, block_bytes)
        assert columnar is not None
        assert log_bits(columnar) == log_bits(ingest._row_log(path))

    SECTION_BYTES = 2048

    def section(self, lines):
        """``lines`` padded by a comment line to SECTION_BYTES, one block."""
        pad = self.SECTION_BYTES - len(lines) - 2
        assert pad >= 0
        return lines + "#" + "x" * pad + "\n"

    def test_integer_widths_match_the_row_reader(self, tmp_path):
        """Integers of 1 to 18 digits, with and without '-', in blocks where
        the fields of each integer column differ in width and in blocks
        where they all have one; a 19-digit field in a later block sends the
        file, through that block alone, to the row reader."""
        rng = np.random.default_rng(19)
        groups = [(width,) * 4 for width in range(1, _MAX_DIGITS + 1)]
        groups += [tuple(range(1, 10)) * 2, tuple(range(10, _MAX_DIGITS + 1)) * 2,
                   tuple(rng.permutation(np.arange(1, _MAX_DIGITS + 1)).tolist())]
        sections = [self.section(SUB_HEADER)]
        for group in groups:
            mixed = len(set(group)) > 1          # else every field of a column has one width
            sections.append(self.section("".join(
                f"s{i},q{width},{'0' * (i % 3 * mixed)}{1 + i % 4},"
                f"{'-' * (i % 2)}{''.join(map(str, rng.integers(0, 10, width)))},"
                f"{'-' * (i // 2 % 2)}{''.join(map(str, rng.integers(0, 10, width)))},{i % 2}\n"
                for i, width in enumerate(group))))
        path = tmp_path / "s.csv"
        for wide in (False, True):
            if wide:
                sections.insert(5, self.section(f"s9,q9,1,{10**18},-{10**18 + 7},1\n"))
            path.write_bytes("".join(sections).encode())
            with mock.patch.object(ingest, "BLOCK_BYTES", self.SECTION_BYTES):
                with open(path, "rb") as fh:
                    blocks = list(ingest._line_blocks(fh))
                assert blocks == [section.encode() for section in sections]
                rejected = [i for i, block in enumerate(blocks[1:], 1)
                            if ingest._block_columns(block) is None]
                assert rejected == ([5] if wide else [])
                columnar = ingest._columnar_log(path)
                assert (columnar is None) == wide
                got = parse_outcome(parse_submissions, path)
            row = ingest._row_log(path)
            assert got == parse_outcome(lambda q: ingest._repaired(row), path)
            assert isinstance(got[0], tuple)
            if not wide:
                assert log_bits(columnar) == log_bits(row)


class TestColumnWidths:
    WIDTHS = ("<i4", "<i4", "|i1", "<i8", "<i8", "|b1")

    def test_every_log_and_index_holds_the_natural_widths(self, tmp_path, small_cohort):
        sub, gb = tmp_path / "s.csv", tmp_path / "g.csv"
        write_dataset(small_cohort, sub, gb)
        dataset, _ = load_dataset(sub, gb)
        for log in (ingest._columnar_log(sub), ingest._row_log(sub), dataset.log,
                    small_cohort.log):
            assert tuple(dtype for dtype, _ in log_bits(log)[2:]) == self.WIDTHS
        for ds in (dataset, small_cohort):
            assert ds.row.dtype == ds.column.dtype == np.int32
            index = ds.sessions
            assert index.key.dtype == index.gap_row.dtype == np.int32
            assert index.gaps.dtype == np.int64

    def test_from_columns_rejects_an_assignment_outside_int8(self):
        with pytest.raises(ValueError, match=r"^assignment_id 200 outside the int8 range$"):
            EventLog.from_columns(["s1", "s2"], ["q1", "q1"], [1, 200], [0, 1], [1, 1],
                                  [False, True])
        with pytest.raises(ValueError, match="assignment_id -129 "):
            build_dataset([event(assignment=-129)], [record()])

    def test_canonical_order_of_codes_whose_product_passes_int32(self):
        """50,000 student ids by 50,000 question ids: student * len(question_ids)
        reaches 2.5e9, which int32 arithmetic would wrap below zero."""
        n = 50_000
        ids = tuple(f"{i:05d}" for i in range(n))
        student = np.array([n - 1, 0, n - 1, 1, n - 2, 0, n - 1, 42_950], dtype=np.int32)
        question = np.array([0, n - 1, n - 1, n - 1, 3, 0, 0, 1], dtype=np.int32)
        k = student.size
        log = EventLog(ids, ids, student, question, np.ones(k, dtype=np.int8),
                       np.zeros(k, dtype=np.int64), np.arange(k, dtype=np.int64)[::-1].copy(),
                       np.zeros(k, dtype=bool))
        assert int(student.max()) * n + int(question.max()) >= 2**31
        six_keys = np.lexsort([col.astype(np.int64) for col in (
            log.assignment, log.correct, log.attempt, log.timestamp, question, student)])
        assert np.array_equal(ingest._canonical_order(log), six_keys)
        assert log_bits(ingest._repaired(log)[0])[2] == ("<i4", student[six_keys].tobytes())

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64])
    def test_packed_sort_takes_narrow_keys(self, dtype):
        info = np.iinfo(dtype)
        words: list[np.ndarray] = []
        extremes = np.array([info.max, info.min, 0], dtype=dtype)
        assert ingest._pack(words, 0, extremes) == 64 - info.bits
        assert words[0].tolist() == [2**info.bits - 1, 0, -int(info.min)]
        rng = np.random.default_rng(info.bits)
        pool = np.array([info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max], dtype=dtype)
        keys = [pool[rng.integers(0, pool.size, 2000)] for _ in range(3)]
        keys.insert(1, rng.integers(-5, 5, 2000).astype(np.int32))
        assert np.array_equal(ingest._stable_order(iter(keys)), np.lexsort(keys[::-1]))


class TestPeakMemory:
    # Measured by this test: 15.42 MB.  Reading the whole file and holding
    # every column at 8 bytes, ingest peaked at 26.08 MB on the same cohort.
    PEAK_BOUND = 18_500_000          # bytes: the measured peak plus 20%

    def test_load_and_assemble_peak(self, tmp_path):
        """The tracemalloc peak of ingest and feature assembly on an untidy
        300-student cohort (about 209k rows): shuffled, with rows after a
        correct answer and scrambled attempt numbers.  tracemalloc counts
        numpy's buffers exactly, so the peak repeats from run to run."""
        events, records = generate_cohort(CohortConfig(
            n_students=300, grade_counts=(31, 12, 27, 87, 143), seed=300))
        rows = list(events)
        rows += [replace(ev, timestamp=ev.timestamp + 60, attempt_number=ev.attempt_number + 1)
                 for ev in events[::25] if ev.correct]
        for i in range(7, len(rows), 29):
            rows[i] = replace(rows[i], attempt_number=rows[i].attempt_number + 2)
        order = np.random.default_rng(300).permutation(len(rows))
        sub, gb = tmp_path / "s.csv", tmp_path / "g.csv"
        write_submissions([rows[i] for i in order], sub)
        write_gradebook(records, gb)
        del events, rows
        tracemalloc.start()
        try:
            dataset, repairs = load_dataset(sub, gb)
            assemble_feature_matrix(dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(dataset.log) > 200_000 and repairs.dropped and repairs.renumbered
        assert peak <= self.PEAK_BOUND


class TestParseGradebook:
    def test_direct_parse(self, tmp_path):
        p = write(tmp_path / "g.csv", GB_HEADER + "s1,90,85,70,100,88,A\n")
        (rec,) = parse_gradebook(p)
        assert rec.hw_scores == (90.0, 85.0, 70.0, 100.0)
        assert rec.test_score == 88.0
        assert rec.final_grade == Grade.A == 5

    def test_score_above_100_rejected(self, tmp_path):
        p = write(tmp_path / "g.csv", GB_HEADER + "s1,101,85,70,100,88,A\n")
        with pytest.raises(ScoreOutOfRange):
            parse_gradebook(p)

    def test_duplicate_student_rejected(self, tmp_path):
        p = write(tmp_path / "g.csv",
                  GB_HEADER + "s1,90,85,70,100,88,A\ns1,90,85,70,100,88,B\n")
        with pytest.raises(DuplicateStudent):
            parse_gradebook(p)

    def test_grade_letter_case_insensitive(self, tmp_path):
        p = write(tmp_path / "g.csv", GB_HEADER + "s1,90,85,70,100,88,b\n")
        (rec,) = parse_gradebook(p)
        assert rec.final_grade == Grade.B

    def test_unknown_grade_rejected(self, tmp_path):
        p = write(tmp_path / "g.csv", GB_HEADER + "s1,90,85,70,100,88,E\n")
        with pytest.raises(UnknownGrade):
            parse_gradebook(p)

    def test_row_spanning_lines_is_reported_before_later_rows(self, tmp_path):
        p = write(tmp_path / "g.csv", "# run-config: {}\n" + GB_HEADER
                  + 's1,"90\n",85,70,100,88,A\ns1,90,85,70,100,88,B\n')
        with pytest.raises(MalformedRow) as err:
            parse_gradebook(p)
        assert str(err.value) == "line 3: quoted field runs past the end of its line"

    def test_records_sorted_by_student_id(self, tmp_path):
        p = write(tmp_path / "g.csv",
                  GB_HEADER + "s2,1,2,3,4,5,C\ns1,1,2,3,4,5,B\n")
        recs = parse_gradebook(p)
        assert [r.student_id for r in recs] == ["s1", "s2"]


class TestBuildDataset:
    def test_single_event_catalog(self):
        ds = dataset_from([event(question="q1", assignment=2)], [record()])
        assert ds.question_catalog == {"q1": (2, 0)}

    def test_orphan_event_rejected(self):
        with pytest.raises(OrphanEvent):
            dataset_from([event(student="ghost")], [record(student="s1")])

    def test_question_in_two_assignments_rejected(self):
        with pytest.raises(InconsistentAssignment):
            dataset_from([event(timestamp=0, assignment=1),
                          event(timestamp=9, assignment=2, attempt=2)],
                         [record()])

    def test_first_offending_event_in_stream_order_is_named(self):
        clash = [event(question="q1", assignment=1), event(question="q1", assignment=2)]
        with pytest.raises(OrphanEvent):     # orphan and clash at once: the orphan
            dataset_from([clash[0], event(student="ghost", question="q1", assignment=2)],
                         [record()])
        with pytest.raises(InconsistentAssignment):
            dataset_from([*clash, event(student="ghost")], [record()])
        with pytest.raises(OrphanEvent):
            dataset_from([event(student="ghost"), *clash], [record()])

    def test_zero_submission_students_kept(self):
        ds = dataset_from([event(student="s1")],
                          [record(student="s1"), record(student="s2")])
        assert len(ds.students) == 2
        assert [ev for ev in events_of(ds.log) if ev.student_id == "s2"] == []

    def test_columns_follow_assignment_then_question_id(self):
        events = [event(question="q2", assignment=1, timestamp=0),
                  event(question="q1", assignment=2, timestamp=1),
                  event(question="q3", assignment=1, timestamp=2)]
        ds = dataset_from(events, [record()])
        assert ds.question_catalog == {"q2": (1, 0), "q3": (1, 1), "q1": (2, 2)}

    def test_no_student_decides_a_column(self, small_cohort):
        # Dropping the lowest-id student's rows of the first column's
        # question leaves every question in its column.
        log = small_cohort.log
        [first] = [q for q, (_, col) in small_cohort.question_catalog.items() if col == 0]
        keep = (log.student != 0) | (log.question != log.question_ids.index(first))
        assert not keep.all()
        fewer = EventLog(log.student_ids, log.question_ids,
                         *(col[keep] for col in (log.student, log.question, log.assignment,
                                                 log.timestamp, log.attempt, log.correct)))
        ds = build_dataset(fewer, small_cohort.students)
        assert ds.question_catalog == small_cohort.question_catalog

    def test_catalog_ordinals_are_dense(self):
        events = [event(student="s1", question=f"q{i:03d}",
                        assignment=1 + i % 4, timestamp=i) for i in range(50)]
        ds = dataset_from(events, [record(student="s1")])
        ordinals = sorted(ordinal for _, ordinal in ds.question_catalog.values())
        assert ordinals == list(range(50))


class TestRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path, small_cohort):
        sub, gb = tmp_path / "s.csv", tmp_path / "g.csv"
        write_dataset(small_cohort, sub, gb, header_comment="round trip")
        loaded, warnings = load_dataset(sub, gb)
        assert warnings == 0
        assert events_of(loaded.log) == events_of(small_cohort.log)
        assert loaded.students == small_cohort.students
        assert loaded.question_catalog == small_cohort.question_catalog

    def test_fractional_scores_round_trip(self, tmp_path):
        rec = record(hw=(33.333333333333336, 0.1, 99.99999999999999, 50.0),
                     test=66.66666666666667)
        ds = dataset_from([event()], [rec])
        sub, gb = tmp_path / "s.csv", tmp_path / "g.csv"
        write_dataset(ds, sub, gb)
        loaded, _ = load_dataset(sub, gb)
        assert loaded.students[0].hw_scores == rec.hw_scores
        assert loaded.students[0].test_score == rec.test_score
