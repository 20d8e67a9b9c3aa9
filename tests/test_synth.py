import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gradecast.cli import main
from gradecast.ingest import (
    SubmissionEvent,
    build_dataset,
    load_dataset,
    write_gradebook,
    write_submissions,
)
from gradecast.synth import (
    COURSE_START,
    CohortConfig,
    InfeasibleConfig,
    generate_cohort,
    question_bank,
    write_cohort,
)
from oracles import reference_generate_cohort

SMALL = CohortConfig(n_students=30, n_questions=40,
                     grade_counts=(4, 2, 5, 8, 11), seed=7)


@pytest.fixture(scope="module")
def small_run():
    return generate_cohort(SMALL)


class TestConfigValidation:
    def test_grade_counts_must_sum_to_student_count(self):
        with pytest.raises(InfeasibleConfig):
            CohortConfig(n_students=10, grade_counts=(1, 1, 1, 1, 1))

    def test_questions_must_cover_assignments(self):
        with pytest.raises(InfeasibleConfig):
            CohortConfig(n_students=5, n_questions=3,
                         grade_counts=(1, 1, 1, 1, 1))

    def test_fraction_bounds(self):
        with pytest.raises(InfeasibleConfig):
            CohortConfig(boolean_question_fraction=1.5)

    def test_negative_counts_rejected(self):
        with pytest.raises(InfeasibleConfig):
            CohortConfig(n_students=249, grade_counts=(-1, 11, 22, 98, 119))

    def test_attempt_caps_positive(self):
        with pytest.raises(InfeasibleConfig):
            CohortConfig(max_attempts_other=0)

    @pytest.mark.parametrize("spread", [-0.5, float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["ability_spread", "difficulty_spread"])
    def test_spreads_must_be_finite_and_non_negative(self, name, spread):
        with pytest.raises(InfeasibleConfig, match=f"{name} must be finite"):
            CohortConfig(**{name: spread})


class TestQuestionBank:
    def test_ids_are_zero_padded_and_unique(self):
        bank = question_bank(SMALL)
        assert [q.question_id for q in bank][:3] == ["q01", "q02", "q03"]
        assert len({q.question_id for q in bank}) == len(bank)

    def test_assignments_are_contiguous_blocks(self):
        bank = question_bank(SMALL)
        seen = [q.assignment_id for q in bank]
        assert seen == sorted(seen)
        assert set(seen) == {1, 2, 3, 4}

    def test_attempt_cap_follows_question_type(self):
        bank = question_bank(SMALL)
        for q in bank:
            expected = (SMALL.max_attempts_boolean if q.is_boolean
                        else SMALL.max_attempts_other)
            assert q.max_attempts == expected

    def test_boolean_fraction_roughly_respected(self):
        config = CohortConfig(n_students=5, n_questions=500,
                              grade_counts=(1, 1, 1, 1, 1), seed=3)
        bank = question_bank(config)
        frac = sum(q.is_boolean for q in bank) / len(bank)
        assert abs(frac - config.boolean_question_fraction) < 0.06

    def test_bank_is_reproducible(self):
        assert question_bank(SMALL) == question_bank(SMALL)


class TestGeneratedCohort:
    def test_grade_histogram_is_exact(self, small_run):
        _, records = small_run
        counts = Counter(int(r.final_grade) for r in records)
        assert tuple(counts[g] for g in (1, 2, 3, 4, 5)) == SMALL.grade_counts

    def test_zero_ability_spread_keeps_exact_counts(self):
        config = CohortConfig(n_students=12, n_questions=8,
                              grade_counts=(2, 2, 2, 3, 3),
                              ability_spread=0.0, seed=1)
        _, records = generate_cohort(config)
        counts = Counter(int(r.final_grade) for r in records)
        assert tuple(counts[g] for g in (1, 2, 3, 4, 5)) == (2, 2, 2, 3, 3)

    def test_every_student_attempts_every_question(self, small_run):
        events, _ = small_run
        pairs = {(e.student_id, e.question_id) for e in events}
        assert len(pairs) == SMALL.n_students * SMALL.n_questions

    def test_attempt_caps_respected_per_question_type(self, small_run):
        events, _ = small_run
        bank = {q.question_id: q for q in question_bank(SMALL)}
        per_pair = Counter((e.student_id, e.question_id) for e in events)
        for (sid, qid), n in per_pair.items():
            assert n <= bank[qid].max_attempts

    def test_stop_after_first_correct(self, small_run):
        events, _ = small_run
        by_pair = {}
        for e in events:
            by_pair.setdefault((e.student_id, e.question_id), []).append(e)
        for attempts in by_pair.values():
            attempts.sort(key=lambda e: e.attempt_number)
            correct_flags = [e.correct for e in attempts]
            # Only the last attempt may be the correct one.
            assert not any(correct_flags[:-1])
            assert [e.attempt_number for e in attempts] == list(range(1, len(attempts) + 1))

    def test_homework_scores_match_event_outcomes(self, small_run):
        events, records = small_run
        bank = {q.question_id: q for q in question_bank(SMALL)}
        per_assignment_totals = Counter(q.assignment_id for q in bank.values())
        solved = Counter()
        for e in events:
            if e.correct:
                solved[(e.student_id, e.assignment_id)] += 1
        for r in records:
            for a in range(1, 5):
                expected = 100.0 * solved[(r.student_id, a)] / per_assignment_totals[a]
                assert r.hw_scores[a - 1] == pytest.approx(expected)

    def test_grades_rank_by_blended_score(self, small_run):
        _, records = small_run
        blend = {r.student_id: 0.6 * r.test_score + 0.4 * np.mean(r.hw_scores)
                 for r in records}
        worst_a = min(blend[r.student_id] for r in records if int(r.final_grade) == 5)
        best_f = max(blend[r.student_id] for r in records if int(r.final_grade) == 1)
        assert best_f <= worst_a

    def test_timestamps_start_after_course_start(self, small_run):
        events, _ = small_run
        assert min(e.timestamp for e in events) >= COURSE_START

    def test_attempt_order_matches_time_order(self, small_run):
        events, _ = small_run
        by_pair = {}
        for e in events:
            by_pair.setdefault((e.student_id, e.question_id), []).append(e)
        for attempts in by_pair.values():
            ordered = sorted(attempts, key=lambda e: e.attempt_number)
            times = [e.timestamp for e in ordered]
            assert times == sorted(times)


class TestDistributionShape:
    def test_attempt_counts_are_right_skewed(self, small_run):
        events, _ = small_run
        per_pair = np.array(list(Counter(
            (e.student_id, e.question_id) for e in events).values()), dtype=float)
        skew = np.mean((per_pair - per_pair.mean()) ** 3) / per_pair.std() ** 3
        assert skew > 0

    def test_in_session_gaps_are_right_skewed(self, small_run):
        events, _ = small_run
        per_student = {}
        for e in events:
            per_student.setdefault(e.student_id, []).append(e.timestamp)
        gaps = []
        for times in per_student.values():
            times.sort()
            diffs = np.diff(np.array(times))
            gaps.extend(d for d in diffs if 0 < d <= 7200)
        gaps = np.array(gaps, dtype=float)
        skew = np.mean((gaps - gaps.mean()) ** 3) / gaps.std() ** 3
        assert skew > 1.0


class TestDeterminism:
    def test_same_seed_same_cohort(self):
        config = CohortConfig(n_students=8, n_questions=12,
                              grade_counts=(1, 1, 2, 2, 2), seed=42)
        first = generate_cohort(config)
        second = generate_cohort(config)
        assert first == second

    def test_different_seed_different_events(self):
        base = dict(n_students=8, n_questions=12, grade_counts=(1, 1, 2, 2, 2))
        a, _ = generate_cohort(CohortConfig(seed=42, **base))
        b, _ = generate_cohort(CohortConfig(seed=43, **base))
        assert a != b

    def test_event_volume_scales_with_cohort_size(self):
        sizes = [(10, (2, 1, 2, 2, 3)), (20, (4, 2, 4, 4, 6)), (40, (8, 4, 8, 8, 12))]
        volumes = []
        for n, counts in sizes:
            events, _ = generate_cohort(CohortConfig(
                n_students=n, n_questions=16, grade_counts=counts, seed=5))
            volumes.append(len(events))
        assert volumes[0] < volumes[1] < volumes[2]
        ratio = volumes[2] / volumes[0]
        assert 3.0 < ratio < 5.0


@st.composite
def small_configs(draw):
    """Small cohorts: any caps, boolean fraction and spreads, and grade counts."""
    n_students = draw(st.integers(1, 6))
    cuts = sorted(draw(st.lists(st.integers(0, n_students), min_size=4, max_size=4)))
    counts = np.diff([0, *cuts, n_students])
    spreads = st.sampled_from((0.0, 0.5, 1.5, 4.0))
    return CohortConfig(
        n_students=n_students, n_questions=draw(st.integers(4, 24)),
        boolean_question_fraction=draw(st.sampled_from((0.0, 0.2, 0.5, 1.0))),
        max_attempts_boolean=draw(st.integers(1, 5)), max_attempts_other=draw(st.integers(1, 5)),
        grade_counts=tuple(int(c) for c in counts), ability_spread=draw(spreads),
        difficulty_spread=draw(spreads), seed=draw(st.integers(0, 2**32)))


class TestAgainstScalarReference:
    """generate_cohort against the scalar generator it replaced (tests/oracles.py)."""

    @settings(derandomize=True, database=None, max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_configs())
    # One event per assignment: every session holds one event or none, so
    # every gap batch is empty and sessions two and three are often empty.
    @example(CohortConfig(n_students=1, n_questions=4, grade_counts=(0, 0, 1, 0, 0),
                          max_attempts_boolean=1, max_attempts_other=1,
                          ability_spread=0.0, seed=5))
    @example(CohortConfig(n_students=3, n_questions=9, grade_counts=(1, 0, 1, 0, 1),
                          boolean_question_fraction=1.0, max_attempts_boolean=4,
                          max_attempts_other=2, seed=6))
    @example(CohortConfig(n_students=3, n_questions=9, grade_counts=(1, 0, 1, 0, 1),
                          boolean_question_fraction=0.0, seed=7))
    def test_equal_on_small_configs(self, config):
        assert generate_cohort(config) == reference_generate_cohort(config)

    def test_equal_on_default_cohort(self):
        config = CohortConfig(seed=42)
        assert generate_cohort(config) == reference_generate_cohort(config)


class TestRoundTripThroughFiles:
    def test_written_cohort_parses_cleanly(self, tmp_path):
        sub_path, gb_path = write_cohort(SMALL, tmp_path, header_comment="x")
        dataset, warnings = load_dataset(sub_path, gb_path)
        assert warnings == 0
        assert len(dataset.students) == SMALL.n_students
        assert len(dataset.question_catalog) == SMALL.n_questions

    def test_dataset_builds_without_repairs(self, small_run):
        events, records = small_run
        dataset = build_dataset(events, records)
        assert len(dataset.students) == SMALL.n_students


class TestWriteCohort:
    """write_cohort's files against the general writers of generate_cohort's output."""

    @staticmethod
    def assert_writes_general_bytes(config, header_comment):
        with tempfile.TemporaryDirectory() as tmp:
            written = write_cohort(config, Path(tmp, "cohort"), header_comment=header_comment)
            expected = Path(tmp, "submissions.csv"), Path(tmp, "gradebook.csv")
            events, records = generate_cohort(config)
            write_submissions(events, expected[0], header_comment=header_comment)
            write_gradebook(records, expected[1], header_comment=header_comment)
            for got, want in zip(written, expected):
                assert Path(got).read_bytes() == want.read_bytes()

    @settings(derandomize=True, database=None, max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_configs(), st.sampled_from([None, 'run-config: {"seed": 1}']))
    # Two-digit attempt numbers: hard questions, caps of 10 and 12.
    @example(CohortConfig(n_students=3, n_questions=6, grade_counts=(1, 0, 1, 0, 1),
                          max_attempts_boolean=10, max_attempts_other=12,
                          ability_spread=0.0, difficulty_spread=4.0, seed=2), None)
    # Two-digit padded student and question ids.
    @example(CohortConfig(n_students=12, n_questions=15, grade_counts=(2, 2, 2, 3, 3),
                          seed=3), "run-config: x")
    def test_same_bytes_as_general_writers(self, config, header_comment):
        self.assert_writes_general_bytes(config, header_comment)

    @pytest.mark.parametrize("header_comment", [None, "run-config: x"])
    def test_same_bytes_on_default_cohort(self, header_comment):
        self.assert_writes_general_bytes(CohortConfig(seed=42), header_comment)

    def test_synth_builds_no_event_objects(self, tmp_path, monkeypatch):
        built = []
        init = SubmissionEvent.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SubmissionEvent, "__init__", counting_init)
        assert main(["synth", "--students", "5", "--questions", "8",
                     "--grade-counts", "1,1,1,1,1", "--out-dir", str(tmp_path)]) == 0
        assert built == []
        events, _ = generate_cohort(CohortConfig(n_students=5, n_questions=8,
                                                 grade_counts=(1, 1, 1, 1, 1)))
        assert len(events) == len(built) > 0     # the count sees generate_cohort's events
