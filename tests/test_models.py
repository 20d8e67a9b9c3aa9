import numpy as np
import pytest

from gradecast.models import (
    KINDS,
    DimensionMismatch,
    ModelSpec,
    bayes,
    predict_held_out,
    train,
)
from gradecast.models.base import validate_training_data
from gradecast.models.regression import (RIDGE_DAMPING, RegressionModel,
                                         round_half_away_from_zero)
from gradecast.models.tree import Grower
from gradecast.rng import mix_seed
from oracles import (gini, gini_split_oracle, knn_oracle_predict,
                     nb_oracle_predict, ridge_oracle, tree_oracle_predict)


def grades(*letters):
    table = {"F": 1, "D": 2, "C": 3, "B": 4, "A": 5}
    return np.array([table[l] for l in letters])


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="perceptron")

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="svm", C=0.0)
        with pytest.raises(ValueError):
            ModelSpec(kind="knn", k=0)
        with pytest.raises(ValueError):
            ModelSpec(kind="regression")

    @pytest.mark.parametrize("kind, name, value, message", [
        ("svm", "C", np.nan, "C must be positive, got nan"),
        ("svm", "C", np.inf, "C must be finite, got inf"),
        ("svr", "epsilon", np.nan, "epsilon must be non-negative, got nan"),
        ("svr", "epsilon", np.inf, "epsilon must be finite, got inf"),
    ], ids=["C-nan", "C-inf", "epsilon-nan", "epsilon-inf"])
    def test_non_finite_hyperparameters_rejected(self, kind, name, value, message):
        with pytest.raises(ValueError) as exc:
            ModelSpec(kind=kind, **{name: value})
        assert str(exc.value) == message

    def test_training_data_validation(self):
        with pytest.raises(ValueError):
            train(ModelSpec(kind="majority"), np.zeros((0, 2)), np.array([]))
        with pytest.raises(ValueError):
            train(ModelSpec(kind="majority"), np.zeros((2, 2)), np.array([1, 6]))
        with pytest.raises(ValueError):
            train(ModelSpec(kind="majority"), np.array([[np.inf, 0], [0, 0]]),
                  np.array([1, 2]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_train_checks_the_rows_of_every_model(self, kind):
        with pytest.raises(ValueError, match="^X must be finite$"):
            train(ModelSpec(kind=kind), np.array([[np.nan, 0.0], [1.0, 2.0]]),
                  grades("A", "B"))

    def test_checked_rows_are_c_ordered_floats(self):
        X, y = validate_training_data(np.asfortranarray(np.arange(6).reshape(3, 2)), [1, 2, 3])
        assert X.flags.c_contiguous and X.dtype == np.float64
        assert np.array_equal(X, np.arange(6.0).reshape(3, 2)) and y.tolist() == [1, 2, 3]

    def test_predict_checks_dimension(self):
        model = train(ModelSpec(kind="knn"), np.eye(3), grades("A", "B", "C"))
        with pytest.raises(DimensionMismatch):
            model.predict(np.zeros(7))


class TestMajority:
    def test_most_frequent_grade_stored(self):
        model = train(ModelSpec(kind="majority"), np.zeros((3, 1)),
                      grades("A", "A", "B"))
        out = model.predict(np.zeros(1))
        assert out.grade == 5
        assert out.class_scores.tolist() == [0, 0, 0, 1 / 3, 2 / 3]

    def test_cohort_scale_majority(self):
        y = np.array([5] * 119 + [4] * 72 + [3] * 22 + [2] * 10 + [1] * 26)
        model = train(ModelSpec(kind="majority"), np.zeros((249, 1)), y)
        assert model.predict(np.zeros(1)).grade == 5

    def test_tie_goes_to_higher_grade(self):
        model = train(ModelSpec(kind="majority"), np.zeros((2, 1)),
                      grades("A", "B"))
        assert model.predict(np.zeros(1)).grade == 5

    def test_prediction_ignores_input(self):
        model = train(ModelSpec(kind="majority"), np.zeros((3, 2)),
                      grades("C", "C", "A"))
        a = model.predict(np.zeros(2))
        b = model.predict(np.full(2, 1e9))
        assert a.grade == b.grade == 3


class TestRandom:
    @staticmethod
    def fold_draws(seed, n, X=np.zeros((2, 1)), y=grades("A", "B")):
        """One prediction per fold seed ``mix_seed(seed, i)``, as the harness gives them."""
        return [train(ModelSpec(kind="random", seed=mix_seed(seed, i)), X, y)
                .predict(np.zeros(1)) for i in range(n)]

    def test_reproducible_given_seed(self):
        X = np.zeros((4, 1))
        y = grades("A", "B", "C", "D")
        seq1 = [out.grade for out in self.fold_draws(7734, 50, X, y)]
        seq2 = [out.grade for out in self.fold_draws(7734, 50, X, y)]
        assert seq1 == seq2

    def test_different_seeds_differ(self):
        seq = {seed: [out.grade for out in self.fold_draws(seed, 40)] for seed in (1, 2)}
        assert seq[1] != seq[2]

    def test_long_run_uniform_over_grades(self):
        draws = np.array([out.grade for out in
                          self.fold_draws(99, 5000, y=grades("A", "A"))])
        freq = np.bincount(draws, minlength=6)[1:] / draws.size
        assert np.all(np.abs(freq - 0.2) < 0.03)

    def test_scores_are_five_uniforms_and_grade_is_argmax(self):
        out = self.fold_draws(5, 4)[3]
        assert np.all((out.class_scores >= 0) & (out.class_scores < 1))
        assert out.grade == int(np.argmax(out.class_scores)) + 1


class TestKnn:
    def test_query_on_training_point_with_k1(self):
        X = np.array([[0.0], [5.0], [9.0]])
        model = train(ModelSpec(kind="knn", k=1), X, grades("F", "C", "A"))
        assert model.predict(np.array([5.0])).grade == 3

    def test_k_clamps_to_train_size(self):
        X = np.array([[0.0], [1.0], [2.0]])
        model = train(ModelSpec(kind="knn", k=5), X, grades("A", "A", "B"))
        assert model.k == 3

    def test_vote_tie_goes_to_nearest_tied_class(self):
        # Votes: A twice, B twice, C once; the nearest neighbor is a B.
        X = np.array([[1.0], [2.0], [10.0], [11.0], [5.0]])
        y = grades("B", "B", "A", "A", "C")
        model = train(ModelSpec(kind="knn", k=5), X, y)
        assert model.predict(np.array([0.0])).grade == 4

    def test_scores_sum_to_one(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = grades(*"AABBCCDDFF")
        model = train(ModelSpec(kind="knn", k=5), X, y)
        out = model.predict(np.array([4.2]))
        assert out.class_scores.sum() == 1.0

    def test_distance_tie_prefers_lower_row_index(self):
        X = np.array([[1.0], [-1.0], [50.0]])
        model = train(ModelSpec(kind="knn", k=1), X, grades("A", "B", "C"))
        assert model.predict(np.array([0.0])).grade == 5

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            X = rng.integers(0, 5, size=(n, d)).astype(float)
            y = rng.integers(1, 6, size=n)
            k = int(rng.integers(1, 6))
            model = train(ModelSpec(kind="knn", k=k), X, y)
            x = rng.integers(0, 5, size=d).astype(float)
            expected = knn_oracle_predict(X.tolist(), y.tolist(), x.tolist(),
                                          min(k, n))
            assert model.predict(x).grade == expected


class TestNaiveBayes:
    def test_separated_means_query_at_one_mean(self):
        X = np.array([[-0.1], [0.1], [9.9], [10.1]])
        y = grades("A", "A", "B", "B")
        model = train(ModelSpec(kind="nb"), X, y)
        assert model.predict(np.array([0.0])).grade == 5
        assert model.predict(np.array([10.0])).grade == 4

    def test_identical_statistics_tie_to_lower_grade(self):
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        y = grades("B", "B", "C", "C")
        model = train(ModelSpec(kind="nb"), X, y)
        out = model.predict(np.array([0.5]))
        assert out.class_scores[2] == out.class_scores[3]
        assert out.grade == 3

    def test_zero_class_variance_is_smoothed_finite(self):
        X = np.array([[1.0, 3.0], [1.0, 4.0], [2.0, 5.0], [2.0, 6.0]])
        y = grades("A", "A", "B", "B")
        model = train(ModelSpec(kind="nb"), X, y)
        out = model.predict(np.array([1.0, 3.5]))
        assert np.all(np.isfinite(out.class_scores))
        assert out.grade == 5

    def test_constant_matrix_smoothing_is_the_floor(self, monkeypatch):
        # Every entry 7.0 and grade counts 1 and 2: the grades' weighted
        # mean rounds to 6.999999999999999, and the total variance taken
        # from it would give a smoothing near 1e-40.  Fold 0 leaves one
        # grade, and every other fold has counts 1 and 2.
        X = np.full((4, 3), 7.0)
        y = grades("D", "C", "C", "C")
        assert np.all(train(ModelSpec(kind="nb"), X[1:], y[[1, 0, 2]]).variances == 1e-12)
        fitted, model = [], bayes.GaussianNb

        def recording(*args):
            fitted.append(model(*args))
            return fitted[-1]
        monkeypatch.setattr(bayes, "GaussianNb", recording)
        [outcomes] = predict_held_out(ModelSpec(kind="nb"), [(X, y, [0, 1, 2, 3])])
        assert len(outcomes) == len(fitted) == 4
        assert all(np.all(m.variances == 1e-12) for m in fitted)

    def test_hand_computed_two_class_posterior(self):
        X = np.array([[0.0], [2.0], [6.0], [8.0]])
        y = grades("D", "D", "C", "C")
        model = train(ModelSpec(kind="nb"), X, y)
        out = model.predict(np.array([1.0]))
        # Population variances: both classes 1.0 plus smoothing.
        smoothing = 1e-9 * np.var(X[:, 0])
        var = 1.0 + smoothing
        log_d = np.log(0.5) - 0.5 * np.log(2 * np.pi * var) - 0.0 / (2 * var)
        log_c = np.log(0.5) - 0.5 * np.log(2 * np.pi * var) - 36.0 / (2 * var)
        assert out.class_scores[1] == pytest.approx(log_d, rel=1e-12)
        assert out.class_scores[2] == pytest.approx(log_c, rel=1e-12)
        assert out.grade == 2

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            X = rng.integers(0, 5, size=(n, d)).astype(float)
            y = rng.integers(1, 6, size=n)
            model = train(ModelSpec(kind="nb"), X, y)
            x = rng.integers(0, 5, size=d).astype(float)
            expected = nb_oracle_predict(X.tolist(), y.tolist(), x.tolist())
            assert model.predict(x).grade == expected


class TestDecisionTree:
    def test_gini_of_balanced_pair(self):
        assert gini(np.array([5, 5, 4, 4])) == 0.5

    def test_single_split_perfect_fit(self):
        X = np.array([[0.0], [1.0]])
        model = train(ModelSpec(kind="tree"), X, grades("F", "A"))
        assert model.root.threshold == 0.5
        assert model.predict(np.array([0.0])).grade == 1
        assert model.predict(np.array([1.0])).grade == 5

    def test_conflicting_duplicates_leaf_tie(self):
        X = np.array([[0.0], [0.0]])
        model = train(ModelSpec(kind="tree"), X, grades("A", "B"))
        out = model.predict(np.array([0.0]))
        assert out.class_scores.tolist() == [0, 0, 0, 0.5, 0.5]
        assert out.grade == 4

    def test_equal_gain_prefers_lower_feature(self):
        # Both columns induce the same perfect split.
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = train(ModelSpec(kind="tree"), X, grades("F", "A"))
        assert model.root.feature == 0

    def test_without_positive_gain_stops_at_leaf(self):
        # XOR on one feature alone has zero gain for either column, so the
        # strictly-positive-gain rule leaves one mixed leaf.
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = grades("A", "B", "B", "A")
        model = train(ModelSpec(kind="tree"), X, y)
        out = model.predict(np.array([0.0, 0.0]))
        assert out.class_scores.tolist() == [0, 0, 0, 0.5, 0.5]

    def test_full_training_accuracy_on_distinct_rows(self):
        rng = np.random.default_rng(41)
        X = rng.random((20, 3))
        y = rng.integers(1, 6, size=20)
        model = train(ModelSpec(kind="tree"), X, y)
        assert all(model.predict(X[i]).grade == y[i] for i in range(20))

    def test_matches_exact_arithmetic_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            X = rng.integers(0, 4, size=(n, d)).astype(float)
            y = rng.integers(1, 6, size=n)
            model = train(ModelSpec(kind="tree"), X, y)
            x = rng.integers(0, 4, size=d).astype(float)
            expected = tree_oracle_predict(X.tolist(), y.tolist(), x.tolist())
            assert model.predict(x).grade == expected

    @staticmethod
    def split_of(X, y, rows=None):
        """The split search on ``rows`` of X (all rows by default), with
        value codes built from every row of X."""
        grower = Grower(X, y)
        rows = np.arange(y.size) if rows is None else rows
        counts = np.bincount(y[rows], minlength=6)[1:]
        return grower.best_split(grower.histogram(rows), counts, rows.size)

    def test_best_split_matches_brute_force_oracle(self):
        # Few distinct values and labels make equal-gain candidates common.
        rng = np.random.default_rng(52)
        splits = 0
        for _ in range(600):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 5))
            X = rng.integers(0, 3, size=(n, d)).astype(float)
            y = rng.integers(1, 4, size=n)
            if np.all(y == y[0]):
                continue     # a pure node is a leaf before any split search
            expected = gini_split_oracle(X.tolist(), y.tolist())
            assert self.split_of(X, y) == expected
            if expected is not None:
                splits += 1
                duplicate = np.concatenate([X, X], axis=1)   # every split tied
                assert self.split_of(duplicate, y) == expected
        assert splits >= 300

    def test_split_skips_codes_absent_at_the_node(self):
        # Codes cover every row of X, but the node holds only some of them.
        rng = np.random.default_rng(53)
        splits = 0
        for _ in range(600):
            n = int(rng.integers(3, 10))
            d = int(rng.integers(1, 4))
            X = rng.integers(0, 4, size=(n, d)).astype(float)
            y = rng.integers(1, 4, size=n)
            rows = np.flatnonzero(rng.random(n) < 0.6)
            if rows.size < 2 or np.all(y[rows] == y[rows[0]]):
                continue
            expected = gini_split_oracle(X[rows].tolist(), y[rows].tolist())
            assert self.split_of(X, y, rows) == expected
            splits += expected is not None
        assert splits >= 200

    def test_tree_without_a_row_matches_oracle_on_the_rest(self):
        rng = np.random.default_rng(54)
        for _ in range(40):
            n = int(rng.integers(3, 8))
            d = int(rng.integers(1, 4))
            X = rng.integers(0, 4, size=(n, d)).astype(float)
            X[int(rng.integers(n)), int(rng.integers(d))] = 9.0   # a value one row holds
            y = rng.integers(1, 6, size=n)
            grower = Grower(X, y)
            probes = rng.integers(0, 10, size=(3, d)).astype(float)
            for i in range(n):
                keep = np.arange(n) != i
                model = grower.tree(without=i)
                for x in (*probes, X[i]):
                    expected = tree_oracle_predict(X[keep].tolist(), y[keep].tolist(),
                                                   x.tolist())
                    assert model.predict(x).grade == expected

    def test_equal_gain_prefers_lower_threshold(self):
        # Cutting off either end row isolates the lone F equally well.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        assert self.split_of(X, grades("F", "D", "D", "F")) == (0, 0.5)

    def test_equal_gain_prefers_lower_feature_before_lower_threshold(self):
        # Both columns isolate the F perfectly; column 0 needs the higher cut.
        X = np.array([[3.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 3.0]])
        assert self.split_of(X, grades("F", "D", "D", "D")) == (0, 2.5)


class TestRegression:
    @staticmethod
    def least_squares_vs_oracle(X, y):
        model = train(ModelSpec(kind="linreg"), X, y)
        w, b = ridge_oracle(X, y, RIDGE_DAMPING)
        return model, w, b

    @pytest.mark.parametrize("n, d", [(12, 40), (39, 400), (30, 40), (40, 7), (80, 20)])
    def test_least_squares_matches_ridge_oracle(self, n, d):
        # Centered X of full rank min(n - 1, d): the solved system is well
        # conditioned apart from the centering direction, which drops out.
        rng = np.random.default_rng(n * 1000 + d)
        for _ in range(5):
            X = rng.integers(0, 6, size=(n, d)).astype(float)
            X[:, -1] = 2.0                        # a constant column
            if n <= d:
                X[:, 0] = X[:, 1]                 # a repeated column
            y = rng.integers(1, 6, size=n)
            model, w, b = self.least_squares_vs_oracle(X, y)
            np.testing.assert_allclose(model.weights, w, rtol=1e-8,
                                       atol=1e-8 * np.abs(w).max())
            assert model.intercept == pytest.approx(b, rel=1e-8)

    @pytest.mark.parametrize("n, d", [(39, 400), (40, 7)])
    def test_least_squares_with_repeated_rows_or_columns(self, n, d):
        # Exactly repeated rows (n-by-n solve) or columns (d-by-d solve) leave
        # the damped system with condition |Xc|^2 / damping, and the direct
        # solve keeps about 1e-7 of relative accuracy.
        rng = np.random.default_rng(n * 1000 + d + 1)
        for _ in range(5):
            X = rng.integers(0, 6, size=(n, d)).astype(float)
            if n <= d:
                X[-1] = X[0]
            else:
                X[:, 0] = X[:, 1]
            y = rng.integers(1, 6, size=n)
            model, w, b = self.least_squares_vs_oracle(X, y)
            np.testing.assert_allclose(model.weights, w, rtol=1e-6,
                                       atol=1e-6 * np.abs(w).max())
            np.testing.assert_allclose(X @ model.weights + model.intercept,
                                       X @ w + b, rtol=1e-6)

    def test_exact_fit_when_overdetermined(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        y = np.array([1, 2, 3, 4, 5])
        model = train(ModelSpec(kind="linreg"), X, y)
        for xi, yi in zip(X, y):
            assert model.numeric_estimate(xi) == pytest.approx(yi, abs=1e-6)
            assert model.predict(xi).grade == yi

    def test_constant_labels_give_constant_estimate(self):
        X = np.array([[3.0, 1.0], [5.0, 2.0], [100.0, -4.0]])
        y = np.array([3, 3, 3])
        model = train(ModelSpec(kind="linreg"), X, y)
        for x in (np.zeros(2), np.array([1e6, -1e6])):
            assert model.numeric_estimate(x) == pytest.approx(3.0, abs=1e-8)
            assert model.predict(x).grade == 3

    def test_rounding_half_away_from_zero(self):
        assert round_half_away_from_zero(4.5) == 5
        assert round_half_away_from_zero(4.49) == 4
        assert round_half_away_from_zero(1.5) == 2

    def test_estimates_clamped_to_grade_range(self):
        model = RegressionModel(weights=np.array([1.0]), intercept=0.0,
                                n_features=1, backend="least_squares",
                                warnings=())
        high = model.predict(np.array([99.0]))
        low = model.predict(np.array([-99.0]))
        assert high.grade == 5 and low.grade == 1
        assert high.class_scores[4] == 0.0
        assert low.class_scores[0] == 0.0

    def test_scores_are_negative_distances(self):
        model = RegressionModel(weights=np.array([0.0]), intercept=2.5,
                                n_features=1, backend="least_squares",
                                warnings=())
        out = model.predict(np.array([0.0]))
        assert out.class_scores.tolist() == [-1.5, -0.5, -0.5, -1.5, -2.5]
        # floor(2.5 + 0.5) = 3: the half-way estimate resolves upward.
        assert out.grade == 3

    def test_svr_backend_fits_linear_data(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        y = np.array([1, 2, 3, 4, 5])
        model = train(ModelSpec(kind="svr"), X, y)
        for xi, yi in zip(X, y):
            assert model.predict(xi).grade == yi
            assert abs(model.numeric_estimate(xi) - yi) <= 0.1 + 1e-6


class TestSvm:
    def test_two_point_separable(self):
        X = np.array([[0.0], [1.0]])
        model = train(ModelSpec(kind="svm"), X, grades("A", "F"))
        assert model.predict(np.array([0.0])).grade == 5
        assert model.predict(np.array([1.0])).grade == 1

    def test_xor_separates_with_rbf(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = grades("A", "F", "F", "A")
        model = train(ModelSpec(kind="svm"), X, y)
        assert [model.predict(x).grade for x in X] == [5, 1, 1, 5]

    def test_duplicating_points_keeps_predictions(self):
        rng = np.random.default_rng(61)
        X = rng.normal(size=(6, 2))
        y = grades("A", "A", "A", "F", "F", "F")
        m1 = train(ModelSpec(kind="svm"), X, y)
        m2 = train(ModelSpec(kind="svm"), np.vstack([X, X]), np.concatenate([y, y]))
        for x in X:
            assert m1.predict(x).grade == m2.predict(x).grade

    def test_single_class_training_set(self):
        X = np.array([[0.0], [1.0]])
        model = train(ModelSpec(kind="svm"), X, grades("C", "C"))
        out = model.predict(np.array([0.5]))
        assert out.grade == 3
        assert out.class_scores.tolist() == [0, 0, 1, 0, 0]

    def test_multiclass_training_accuracy(self):
        rng = np.random.default_rng(71)
        centers = {1: (0, 0), 3: (8, 0), 5: (0, 8)}
        X = np.vstack([rng.normal(loc=centers[g], scale=0.3, size=(5, 2))
                       for g in (1, 3, 5)])
        y = np.array([1] * 5 + [3] * 5 + [5] * 5)
        model = train(ModelSpec(kind="svm"), X, y)
        assert all(model.predict(X[i]).grade == y[i] for i in range(15))
