import pickle
from unittest import mock

import numpy as np
import pytest

from gradecast import ingest
from gradecast.ingest import (
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
    write_submissions,
)
from helpers import dataset_from, event, log_bits, record, write_dataset
from oracles import reference_session_order

SUB_HEADER = "student_id,question_id,assignment_id,timestamp,attempt_number,correct\n"
GB_HEADER = "student_id,hw1,hw2,hw3,hw4,test1,final_grade\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestParseSubmissions:
    def test_single_valid_row(self, tmp_path):
        p = write(tmp_path / "s.csv", SUB_HEADER + "s1,q1,1,100,1,0\n")
        log, warnings = parse_submissions(p)
        events = log.events
        assert events == (SubmissionEvent("s1", "q1", 1, 100, 1, False),)
        assert warnings == 0

    def test_attempt_gap_renumbered_with_warning(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  SUB_HEADER + "s1,q1,1,100,1,0\ns1,q1,1,200,3,1\n")
        log, warnings = parse_submissions(p)
        events = log.events
        assert [e.attempt_number for e in events] == [1, 2]
        assert warnings == 1
        assert (warnings.dropped, warnings.renumbered) == (0, 1)

    def test_rows_after_correct_dropped(self, tmp_path):
        p = write(tmp_path / "s.csv",
                  SUB_HEADER
                  + "s1,q1,1,100,1,1\ns1,q1,1,200,2,0\ns1,q1,1,300,3,0\n")
        log, warnings = parse_submissions(p)
        events = log.events
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
        events = log.events
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
        assert log_a.events == log_b.events
        assert ((repairs_a.dropped, repairs_a.renumbered)
                == (repairs_b.dropped, repairs_b.renumbered))

    def test_rows_differing_only_in_assignment_parse_the_same_in_either_order(self, tmp_path):
        rows = ["s1,q1,1,100,1,1\n", "s1,q1,2,100,1,1\n"]
        a = write(tmp_path / "a.csv", SUB_HEADER + "".join(rows))
        b = write(tmp_path / "b.csv", SUB_HEADER + "".join(reversed(rows)))
        (log_a, repairs_a), (log_b, repairs_b) = parse_submissions(a), parse_submissions(b)
        assert log_a.events == log_b.events == (SubmissionEvent("s1", "q1", 1, 100, 1, True),)
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
        events = log.events
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
        events = log.events
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
            assert np.array_equal(ds.sessions.order, reference_session_order(ds))

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
        assert [ev for ev in ds.events if ev.student_id == "s2"] == []

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
        assert loaded.events == small_cohort.events
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
