import csv
import math

import numpy as np
import pytest

from gradecast.features import (
    CSV_BLOCK_ROWS,
    GROUP_PERF,
    GROUP_SUBS,
    RT_FEATURE_NAMES,
    SCORE_FEATURE_NAMES,
    SESSION_FEATURE_NAMES,
    FeatureMatrix,
    assemble_feature_matrix,
    per_question_performance,
    response_time_features,
    response_times,
    score_features,
    segment_sessions,
    sessions_per_assignment,
    submissions_per_question,
    write_features_csv,
)
from gradecast.ingest import N_ASSIGNMENTS, SessionIndex, build_dataset
from helpers import dataset_from, event, record
from oracles import reference_write_features_csv


def events_at(times, student="s1", question="q1", assignment=1):
    return [event(student=student, question=question, assignment=assignment,
                  timestamp=t, attempt=i + 1) for i, t in enumerate(times)]


class TestPerformanceAndSubmissions:
    def test_eventually_correct_counts_as_one(self):
        evs = [event(timestamp=0, attempt=1, correct=False),
               event(timestamp=10, attempt=2, correct=False),
               event(timestamp=20, attempt=3, correct=True)]
        ds = dataset_from(evs, [record()])
        assert per_question_performance(ds)[0, 0] == 1.0
        assert submissions_per_question(ds)[0, 0] == 3.0

    def test_unattempted_question_is_zero(self):
        evs = [event(student="s1", question="q1", correct=True),
               event(student="s2", question="q2", correct=False)]
        ds = dataset_from(evs, [record(student="s1"), record(student="s2")])
        col_q2 = ds.question_catalog["q2"][1]
        row_s1 = ds.student_rows["s1"]
        assert per_question_performance(ds)[row_s1, col_q2] == 0.0
        assert submissions_per_question(ds)[row_s1, col_q2] == 0.0

    def test_never_correct_is_zero_performance(self):
        evs = [event(timestamp=0, attempt=1), event(timestamp=5, attempt=2),
               event(timestamp=9, attempt=3)]
        ds = dataset_from(evs, [record()])
        assert per_question_performance(ds)[0, 0] == 0.0
        assert submissions_per_question(ds)[0, 0] == 3.0


class TestSessions:
    def test_two_hour_gap_is_inclusive(self):
        ds = dataset_from(events_at([0, 1800, 9000]), [record()])
        assert len(segment_sessions(ds, "s1", 1)) == 1

    def test_gap_just_over_two_hours_splits(self):
        ds = dataset_from(events_at([0, 7201]), [record()])
        assert len(segment_sessions(ds, "s1", 1)) == 2

    def test_no_events_is_zero_sessions(self):
        ds = dataset_from(events_at([0]), [record()])
        assert len(segment_sessions(ds, "s1", 3)) == 0

    def test_one_burst_per_assignment(self):
        evs = []
        for a in range(1, 5):
            evs += events_at([a * 100000, a * 100000 + 60],
                             question=f"q{a}", assignment=a)
        ds = dataset_from(evs, [record()])
        assert sessions_per_assignment(ds).tolist() == [[1, 1, 1, 1]]

    def test_untouched_assignment_is_zero(self):
        evs = events_at([0, 60], assignment=1) + events_at(
            [500000], question="q2", assignment=2)
        ds = dataset_from(evs, [record()])
        assert sessions_per_assignment(ds).tolist() == [[1, 1, 0, 0]]

    def test_two_bursts_three_hours_apart(self):
        ds = dataset_from(events_at([0, 60, 10860, 10870]), [record()])
        assert sessions_per_assignment(ds).tolist() == [[2, 0, 0, 0]]

    def test_int64_extremes_split_without_overflow(self):
        top = 2**63 - 1
        ds = dataset_from(events_at([-top - 1, top - 1, top]), [record()])
        assert [len(s.events) for s in segment_sessions(ds, "s1", 1)] == [1, 2]
        assert response_times(ds, "s1") == [1]

    def test_unknown_student_raises(self):
        ds = dataset_from(events_at([0]), [record()])
        with pytest.raises(KeyError):
            segment_sessions(ds, "nobody", 1)


class TestSessionIndex:
    def test_session_views_read_the_cached_index(self, small_cohort):
        ds = build_dataset(small_cohort.log, small_cohort.students)
        assert ds.sessions is ds.sessions
        assert sessions_per_assignment(ds).any() and response_time_features(ds).any()
        sid = ds.students[0].student_id
        assert segment_sessions(ds, sid, 1) and response_times(ds, sid)
        # An index with no sessions: every view must now see none.
        none = np.zeros(0, dtype=np.int64)
        ds.__dict__["sessions"] = SessionIndex(none, np.zeros(1, dtype=np.int64), none, none, none)
        for rec in ds.students:
            assert response_times(ds, rec.student_id) == []
            for a in range(1, 5):
                assert segment_sessions(ds, rec.student_id, a) == []
        assert not sessions_per_assignment(ds).any()
        assert not response_time_features(ds).any()

    def test_log_without_graded_assignments_has_no_sessions(self):
        evs = [*events_at([0, 60], assignment=0),
               *events_at([30], student="s2", question="q2", assignment=N_ASSIGNMENTS + 1)]
        ds = dataset_from(evs, [record(), record(student="s2")])
        index = ds.sessions
        assert index.order.size == index.key.size == index.gaps.size == index.gap_row.size == 0
        assert index.bounds.tolist() == [0]
        assert response_times(ds, "s1") == [] and segment_sessions(ds, "s2", 1) == []
        fm = assemble_feature_matrix(ds)
        timing = [j for j, name in enumerate(fm.names) if name.startswith(("rt:", "sess:"))]
        assert len(timing) == 8 and not fm.values[:, timing].any()


class TestResponseTimes:
    def test_gaps_within_session(self):
        ds = dataset_from(events_at([0, 60, 70]), [record()])
        assert response_times(ds, "s1") == [60, 10]

    def test_single_event_session_is_empty(self):
        ds = dataset_from(events_at([0]), [record()])
        assert response_times(ds, "s1") == []

    def test_session_opening_gap_excluded(self):
        ds = dataset_from(events_at([0, 8000]), [record()])
        assert response_times(ds, "s1") == []

    def test_quick_counts_with_remote_threshold(self):
        # Population stats here make mu+2sigma far above both gaps.
        evs = events_at([0, 10, 21], student="s1") + events_at(
            [0, 5000, 10000], student="s2", question="q2")
        ds = dataset_from(evs, [record(student="s1"), record(student="s2")])
        row = ds.student_rows["s1"]
        long_n, quick_n, long_f, quick_f = response_time_features(ds)[row]
        assert [long_n, quick_n] == [0, 2]
        assert long_f == 0.0
        assert quick_f == 1.0

    def test_no_response_times_gives_zero_row(self):
        evs = events_at([0, 60]) + [event(student="s2", question="q2")]
        ds = dataset_from(evs, [record(student="s1"), record(student="s2")])
        row = ds.student_rows["s2"]
        assert response_time_features(ds)[row].tolist() == [0, 0, 0, 0]

    def test_exact_boundary_is_not_long(self):
        # Times {10,10,10,10,1000}: mean 208, population sigma 396, so the
        # 1000 s gap sits exactly at mean + 2 sigma and strict > excludes it.
        times = [10, 10, 10, 10, 1000]
        assert sum(times) / 5 == 208
        assert math.sqrt(sum((t - 208) ** 2 for t in times) / 5) == 396
        assert 208 + 2 * 396 == 1000

        evs = []
        t = 0
        for i, gap in enumerate(times):
            if i == 0:
                evs.append(event(timestamp=0, attempt=1))
            t += gap
            evs.append(event(timestamp=t, attempt=i + 2))
        ds = dataset_from(evs, [record()])
        assert sorted(response_times(ds, "s1")) == sorted(times)
        long_n, quick_n, long_f, quick_f = response_time_features(ds)[0]
        assert long_n == 0.0
        assert quick_n == 4.0
        assert quick_f == 0.8


class TestScores:
    def test_passthrough(self):
        ds = dataset_from([event()],
                          [record(hw=(90, 85, 70, 100), test=88)])
        assert score_features(ds)[0].tolist() == [90, 85, 70, 100, 88]

    def test_all_zero_record(self):
        ds = dataset_from([event()], [record(hw=(0, 0, 0, 0), test=0)])
        assert score_features(ds)[0].tolist() == [0, 0, 0, 0, 0]


class TestAssembledMatrix:
    def test_column_count_is_2q_plus_13(self):
        evs = [event(question="q1", timestamp=0),
               event(question="q2", timestamp=50, correct=True)]
        ds = dataset_from(evs, [record()])
        fm = assemble_feature_matrix(ds)
        assert fm.values.shape == (1, 17)
        assert fm.names[:2] == ("perf:q0", "perf:q1")
        assert fm.names[2:4] == ("subs:q0", "subs:q1")
        assert fm.names[4:8] == RT_FEATURE_NAMES
        assert fm.names[8:12] == SESSION_FEATURE_NAMES
        assert fm.names[12:] == SCORE_FEATURE_NAMES

    def test_row_per_student_including_inactive(self):
        ds = dataset_from([event(student="s1")],
                          [record(student="s1"), record(student="s2")])
        fm = assemble_feature_matrix(ds)
        assert fm.values.shape[0] == 2
        assert fm.row_ids == ("s1", "s2")

    def test_groups_align_with_names(self, small_matrix):
        fm, _ = small_matrix
        for name, group in zip(fm.names, fm.groups):
            assert name.startswith(group + ":")

    def test_permuting_students_permutes_rows(self, small_cohort):
        fm = assemble_feature_matrix(small_cohort)
        reversed_ds = build_dataset(small_cohort.events,
                                    tuple(reversed(small_cohort.students)))
        fm_rev = assemble_feature_matrix(reversed_ds)
        assert fm_rev.row_ids == tuple(reversed(fm.row_ids))
        assert np.array_equal(fm_rev.values, fm.values[::-1])

    def test_event_order_does_not_matter(self, small_cohort):
        fm = assemble_feature_matrix(small_cohort)
        shuffled = build_dataset(tuple(small_cohort.events[::-1]),
                                 small_cohort.students)
        # Catalog ordinals differ, so compare by column name.
        fm2 = assemble_feature_matrix(shuffled)
        by_name = {n: fm2.values[:, j] for j, n in enumerate(fm2.names)}
        perm = {orig: shuffled.question_catalog[q][1]
                for q, (_, orig) in small_cohort.question_catalog.items()}
        for j, n in enumerate(fm.names):
            if fm.groups[j] in (GROUP_PERF, GROUP_SUBS):
                prefix, idx = n.split(":q")
                n = f"{prefix}:q{perm[int(idx)]}"
            assert np.array_equal(fm.values[:, j], by_name[n]), n


class TestCsvExport:
    def test_header_and_shape(self, tmp_path, small_cohort):
        fm = assemble_feature_matrix(small_cohort)
        out = tmp_path / "features.csv"
        write_features_csv(fm, out, header_comment="hello")
        lines = out.read_text().splitlines()
        assert lines[0] == "# hello"
        assert lines[1] == "student_id," + ",".join(fm.names)
        assert len(lines) == 2 + len(fm.row_ids)

    def test_values_round_trip_through_text(self, tmp_path, small_cohort):
        fm = assemble_feature_matrix(small_cohort)
        out = tmp_path / "features.csv"
        write_features_csv(fm, out)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        values = np.array([[float(v) for v in row[1:]] for row in rows])
        assert np.array_equal(values, fm.values)

    def test_bytes_equal_the_per_cell_writer(self, tmp_path):
        """Values whose text a table keyed by value (not by bits) would confuse."""
        special = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1 + 0.2, 1e16,
                   *np.array([0x7FF8000000000001, 0xFFF8000000000000],
                             dtype=np.uint64).view(np.float64).tolist()]
        rng = np.random.default_rng(5)
        n = 2 * CSV_BLOCK_ROWS + 3
        values = rng.choice([*special, 1.0, 2.5, -7.25], size=(n, len(special)))
        values[0] = special
        values[n - 1] = special[::-1]
        names = tuple(f"c{j}" for j in range(len(special)))
        fm = FeatureMatrix(tuple(f"s{i}" for i in range(n)), names, (GROUP_PERF,) * len(names),
                           values)
        got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
        write_features_csv(fm, got, header_comment="x")
        reference_write_features_csv(fm, expected, header_comment="x")
        assert got.read_bytes() == expected.read_bytes()
        assert got.read_text().splitlines()[2].split(",")[1:4] == ["-0.0", "0.0", "nan"]

    def test_ids_with_commas_and_quotes_read_back(self, tmp_path):
        ids = ["a,b", 'say "hi"', '",', "plain"]
        events = [event(student=sid, question=q, timestamp=100 * k + j)
                  for k, sid in enumerate(ids) for j, q in enumerate(("q1", "q2", "q3"))]
        fm = assemble_feature_matrix(dataset_from(events, [record(sid) for sid in ids]))
        assert sorted(fm.row_ids) == sorted(ids)
        for write in (write_features_csv, reference_write_features_csv):
            out = tmp_path / f"{write.__name__}.csv"
            write(fm, out)
            with open(out, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert all(len(row) == 2 * 3 + 14 for row in rows)
            assert [row[0] for row in rows[1:]] == list(fm.row_ids)
        assert out.read_bytes() == (tmp_path / "write_features_csv.csv").read_bytes()
