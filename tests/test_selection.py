import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gradecast.evaluation import SWEEP_THRESHOLDS, SweepFailure, threshold_sweep
from gradecast.features import assemble_feature_matrix
from gradecast.ingest import build_dataset
from gradecast.models import ModelSpec
from gradecast.selection import (
    Preprocessor,
    fit_fold_preprocessors,
    fit_preprocessor,
    variance_mask,
    write_mask_json,
)
from gradecast.synth import CohortConfig, generate_cohort
from helpers import dataset_from, event, record
from oracles import (apply_mask, column_variance, minmax_normalize,
                     reference_fold_preprocessors, variance_oracle)


def matrix_of(values, groups):
    values = np.asarray(values, dtype=float)
    names = [f"{g}:c{j}" for j, g in enumerate(groups)]
    from gradecast.features import FeatureMatrix
    ids = tuple(f"s{i}" for i in range(values.shape[0]))
    return FeatureMatrix(ids, tuple(names), tuple(groups), values)


class TestVariance:
    def test_binary_three_quarters(self):
        v = column_variance(np.array([[1.0], [1.0], [1.0], [0.0]]), 0)
        assert v == 0.1875

    def test_constant_column(self):
        assert column_variance(np.array([[7.0], [7.0]]), 0) == 0.0

    def test_unit_deviations(self):
        assert column_variance(np.array([[0.0], [2.0]]), 0) == 1.0

    def test_matches_loop_oracle_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            values = rng.integers(0, 4, size=(int(rng.integers(2, 10)),
                                              int(rng.integers(1, 8)))).astype(float)
            expected = variance_oracle(values)
            got = [column_variance(values, j) for j in range(values.shape[1])]
            assert np.allclose(got, expected, rtol=0, atol=1e-12)


class TestThresholding:
    def test_all_ones_removed_even_at_zero(self):
        fm = matrix_of([[1, 0], [1, 1]], ["perf", "perf"])
        assert variance_mask(fm.values, fm.groups, 0.0, 0.0).tolist() == [False, True]

    def test_binary_p99_removed_at_002(self):
        column = [[1.0]] * 99 + [[0.0]]
        fm = matrix_of(column, ["perf"])
        assert abs(column_variance(fm.values, 0) - 0.0099) < 1e-12
        assert variance_mask(fm.values, fm.groups, 0.02, 0.0).tolist() == [False]
        assert variance_mask(fm.values, fm.groups, 0.0, 0.0).tolist() == [True]

    def test_only_performance_and_submission_blocks_filtered(self):
        fm = matrix_of([[1, 1, 1, 1, 1]] * 3,
                       ["perf", "subs", "rt", "sess", "score"])
        kept = variance_mask(fm.values, fm.groups, 0.9, 0.9)
        assert kept.tolist() == [False, False, True, True, True]

    def test_blocks_use_their_own_thresholds(self):
        # variance of [1,0] is 0.25: keep iff threshold < 0.25, strictly.
        fm = matrix_of([[1, 1], [0, 0]], ["perf", "subs"])
        assert variance_mask(fm.values, fm.groups, 0.25, 0.2).tolist() == [False, True]
        assert variance_mask(fm.values, fm.groups, 0.2, 0.25).tolist() == [True, False]

    def test_monotone_in_thresholds(self):
        rng = np.random.default_rng(77)
        values = rng.random((12, 9))
        groups = ["perf"] * 4 + ["subs"] * 4 + ["score"]
        prev = None
        for t in (0.0, 0.02, 0.05, 0.2):
            kept = variance_mask(values, tuple(groups), t, t)
            if prev is not None:
                assert np.all(kept <= prev)
            prev = kept


class TestNormalization:
    def test_linear_rescale(self):
        fm = matrix_of([[0.0], [50.0], [100.0]], ["score"])
        out = minmax_normalize(fm)
        assert out.values[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        fm = matrix_of([[7.0], [7.0]], ["score"])
        assert minmax_normalize(fm).values.tolist() == [[0.0], [0.0]]

    def test_binary_columns_are_fixed_points(self):
        fm = matrix_of([[0, 1], [1, 0], [1, 1]], ["perf", "perf"])
        assert np.array_equal(minmax_normalize(fm).values, fm.values)

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(3)
        fm = matrix_of(rng.random((6, 4)) * 30, ["score"] * 4)
        once = minmax_normalize(fm)
        twice = minmax_normalize(once)
        assert np.array_equal(once.values, twice.values)

    def test_commutes_with_row_permutation(self):
        rng = np.random.default_rng(4)
        values = rng.random((8, 5)) * 10
        groups = ["perf", "subs", "rt", "sess", "score"]
        fm = matrix_of(values, groups)
        perm = rng.permutation(8)
        fm_perm = matrix_of(values[perm], groups)
        direct = minmax_normalize(
            apply_mask(fm, variance_mask(fm.values, fm.groups, 0.01, 0.01)))
        swapped = minmax_normalize(
            apply_mask(fm_perm, variance_mask(fm_perm.values, fm_perm.groups, 0.01, 0.01)))
        assert np.array_equal(direct.values[perm], swapped.values)


class TestPreprocessor:
    def test_transform_masks_then_scales(self):
        values = np.array([[0.0, 5.0, 1.0], [0.0, 15.0, 3.0]])
        prep = fit_preprocessor(values, ("perf", "score", "score"), 0.0, 0.0, True)
        out = prep.transform(values)
        assert out.shape == (2, 2)
        assert out.tolist() == [[0.0, 0.0], [1.0, 1.0]]

    def test_held_out_rows_are_not_clamped(self):
        train = np.array([[0.0], [10.0]])
        prep = fit_preprocessor(train, ("score",), 0.0, 0.0, True)
        assert prep.transform(np.array([[20.0]]))[0, 0] == 2.0
        assert prep.transform(np.array([[-10.0]]))[0, 0] == -1.0

    def test_without_normalization_values_pass_through(self):
        train = np.array([[0.0, 3.0], [1.0, 9.0]])
        prep = fit_preprocessor(train, ("perf", "score"), 0.0, 0.0, False)
        assert np.array_equal(prep.transform(train), train)

    def test_masked_copy_is_c_ordered(self):
        # The memory order decides the last bits of the models' BLAS products.
        values = np.arange(12.0).reshape(3, 4)
        prep = Preprocessor(np.array([True, False, True, True]), None, None)
        out = prep.transform(values)
        assert out.flags.c_contiguous and not np.shares_memory(out, values)
        assert np.array_equal(out, values[:, [0, 2, 3]])

    def test_normalized_output_matches_masked_formula_in_fortran_order(self):
        # Reference: the boolean-indexing formula, whose Fortran-ordered
        # result the kernel models' last bits depend on.
        rng = np.random.default_rng(7)
        for _ in range(50):
            n, d = int(rng.integers(2, 30)), int(rng.integers(1, 40))
            train = rng.integers(0, 4, size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
            train[:, rng.random(d) < 0.3] = rng.normal()    # constant columns
            prep = fit_preprocessor(train, ("perf",) * d, -1.0, 0.0, True)
            for values in (train, rng.normal(size=(1, d)) * 5, rng.normal(size=(7, d))):
                out = values[:, prep.kept]
                want = np.zeros_like(out)
                moving = prep.ranges > 0
                want[:, moving] = (out[:, moving] - prep.mins[moving]) / prep.ranges[moving]
                got = prep.transform(values)
                assert np.array_equal(got, want)
                assert got.flags.f_contiguous and not np.shares_memory(got, values)


def assert_fold_preprocessors_match(values, groups):
    """Every fold's preprocessor equals the fold-by-fold fit, at every sweep
    threshold pair, raw and normalized."""
    for t_perf, t_subs in SWEEP_THRESHOLDS:
        for normalize in (False, True):
            got = fit_fold_preprocessors(values, groups, t_perf, t_subs, normalize)
            want = reference_fold_preprocessors(values, groups, t_perf, t_subs, normalize)
            assert len(got) == len(want)
            for i, (a, b) in enumerate(zip(got, want)):
                where = (t_perf, t_subs, normalize, i)
                assert a.kept.tolist() == b.kept.tolist(), where
                for x, y in ((a.mins, b.mins), (a.ranges, b.ranges)):
                    assert (x is None) == (y is None), where
                    if x is not None:
                        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), where
                assert a.key() == b.key(), where


# Column values chosen to sit on the edges of the one-pass formula: constants
# a sum of copies of which is inexact (np.var then gives a tiny positive
# variance), large offsets, and values whose spread puts a variance near a
# sweep threshold.
CONSTANTS = (0.0, 1.0, 3.0, 0.1, 0.3, 2.5, 1e6 + 0.1)
SPREADS = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.45, 0.6)


@st.composite
def fold_matrices(draw):
    n = draw(st.integers(2, 12))
    columns, groups = [], []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("counts", "constant", "one_off", "offset", "uniform")))
        seed = draw(st.integers(0, 2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        if kind == "counts":            # ties at the min and the max
            col = rng.integers(0, draw(st.integers(1, 4)) + 1, size=n).astype(float)
        elif kind == "constant":
            col = np.full(n, draw(st.sampled_from(CONSTANTS)))
        elif kind == "one_off":         # constant except in one row
            col = np.full(n, draw(st.sampled_from(CONSTANTS)))
            col[draw(st.integers(0, n - 1))] = draw(st.sampled_from(CONSTANTS + (-2.0, 9.0)))
        elif kind == "offset":          # about 1e6 plus a spread near a threshold
            col = (draw(st.sampled_from((1e3, 1e6, -1e6)))
                   + draw(st.sampled_from(SPREADS)) * rng.integers(-1, 2, size=n))
        else:
            col = rng.random(n) * draw(st.sampled_from((1.0, 0.5, 100.0)))
        columns.append(col)
        groups.append(draw(st.sampled_from(("perf", "subs", "score"))))
    return np.column_stack(columns), tuple(groups)


class TestFoldPreprocessors:
    """``fit_fold_preprocessors`` against the fold-by-fold loop."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fold_matrices())
    @example((np.array([[0.1], [0.1]]), ("perf",)))
    @example((np.array([[0.1], [0.1], [0.1], [0.5]]), ("subs",)))
    @example((np.array([[1.0], [1.0], [1.0]]), ("perf",)))
    def test_matches_fold_by_fold_fits(self, matrix):
        assert_fold_preprocessors_match(*matrix)

    def test_signed_zeros(self):
        # A min over a tie of 0.0 and -0.0 keeps the one its reduction meets
        # last; the runner-up rule cannot tell which.
        values = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 2.0],
                           [1.0, -0.0, 2.0], [0.0, 3.0, -0.0]])
        assert_fold_preprocessors_match(values, ("perf", "subs", "score"))

    def test_default_and_benchmark_cohorts(self):
        # The default cohort (seed 42) and the ten 40-student cohorts of the
        # benchmark's leave-one-out workloads: seeds SeedSequence([42, 1, k]),
        # the default grade distribution scaled to 40 students.
        configs = [CohortConfig(seed=42)]
        for k in range(10):
            seed = int(np.random.SeedSequence([42, 1, k]).generate_state(1)[0])
            configs.append(CohortConfig(n_students=40, grade_counts=(4, 2, 3, 12, 19),
                                        seed=seed))
        for config in configs:
            matrix = assemble_feature_matrix(build_dataset(*generate_cohort(config)))
            assert_fold_preprocessors_match(matrix.values, matrix.groups)


class TestSweep:
    def test_four_entries_and_tie_goes_to_smallest(self, small_matrix):
        result = threshold_sweep(*small_matrix, ModelSpec(kind="majority"))
        assert len(result.accuracies) == 4
        assert set(result.accuracies) == set(SWEEP_THRESHOLDS)
        # Majority ignores features entirely, so all four accuracies tie.
        assert len(set(result.accuracies.values())) == 1
        assert result.winner == (0.00, 0.00)

    def test_model_error_is_tagged_with_thresholds(self, small_matrix):
        # Selection reads no label, so a label outside the grades first
        # fails in the model's training-data check.
        matrix, y = small_matrix
        y = y.copy()
        y[5] = 6
        with pytest.raises(SweepFailure) as err:
            threshold_sweep(matrix, y, ModelSpec(kind="majority"))
        assert err.value.thresholds == SWEEP_THRESHOLDS[0]
        assert isinstance(err.value.__cause__, ValueError)
        assert "labels must be grades" in str(err.value)

    def test_near_constant_cohort_drops_below_2q(self):
        # 30% of questions are solved first-try by everyone, so both their
        # performance and submission columns are exactly constant.
        n_students, n_questions = 12, 30
        constant = set(range(9))
        events, records = [], []
        for s in range(n_students):
            sid = f"s{s:02d}"
            records.append(record(student=sid, grade="A" if s % 2 else "B"))
            for q in range(n_questions):
                qid = f"q{q:02d}"
                assignment = 1 + q % 4
                t = 100000 * s + 100 * q
                if q in constant:
                    events.append(event(sid, qid, assignment, t, 1, True))
                elif s % 3 == 0:
                    events.append(event(sid, qid, assignment, t, 1, False))
                    events.append(event(sid, qid, assignment, t + 30, 2, True))
                else:
                    events.append(event(sid, qid, assignment, t, 1, s % 2 == 0))
        ds = dataset_from(events, records)
        fm = assemble_feature_matrix(ds)
        assert fm.values.shape[1] == 2 * n_questions + 13

        y = np.array([int(r.final_grade) for r in ds.students])
        result = threshold_sweep(fm, y, ModelSpec(kind="majority"))
        mask = variance_mask(fm.values, fm.groups, *result.winner)
        assert int(mask.sum()) < 2 * n_questions

        variances = variance_oracle(fm.values)
        t_perf, t_subs = result.winner
        for j, (g, v) in enumerate(zip(fm.groups, variances)):
            if g == "perf":
                assert mask[j] == (v > t_perf)
            elif g == "subs":
                assert mask[j] == (v > t_subs)
            else:
                assert mask[j]


class TestMaskJson:
    def test_schema_is_pure_json(self, tmp_path, small_cohort):
        import json

        fm = assemble_feature_matrix(small_cohort)
        kept = variance_mask(fm.values, fm.groups, 0.02, 0.05)
        out = tmp_path / "mask.json"
        write_mask_json(kept, (0.02, 0.05), fm.names, out)
        payload = json.loads(out.read_text())
        assert set(payload) == {"t_perf", "t_subs", "kept"}
        assert payload["t_perf"] == 0.02
        assert payload["t_subs"] == 0.05
        assert payload["kept"] == [n for n, k in zip(fm.names, kept) if k]
