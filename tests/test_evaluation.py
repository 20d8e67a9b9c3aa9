from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import gradecast.evaluation as evaluation
from gradecast.evaluation import (
    DEFAULT_THRESHOLDS,
    DISPLAY_NAMES,
    LooPrediction,
    MODEL_ORDER,
    accuracy,
    auroc_correct,
    distance_histogram,
    f1_micro,
    loocv,
    loocv_matrix,
    micro_average_precision,
    mse,
    prepare_fold_preprocessors,
    render_report,
    summarize,
    write_predictions_csv,
)
from gradecast.features import FeatureMatrix
from gradecast.cli import main as cli_main
from gradecast.models import (KINDS, ModelSpec, PredictionOutcome, dual,
                              predict_held_out, svm, train, tree)
from gradecast.rng import mix_seed
from gradecast.selection import Preprocessor, fit_preprocessor
from gradecast.models.regression import RIDGE_DAMPING
from oracles import auroc_oracle, average_precision_oracle, ridge_oracle


def pred(true, predicted, scores=None, sid="s1", fold=0):
    if scores is None:
        scores = np.zeros(5)
        scores[predicted - 1] = 1.0
    return LooPrediction(sid, true, PredictionOutcome(predicted, np.asarray(scores, dtype=float)), fold)


def toy_matrix(values, group="score"):
    values = np.asarray(values, dtype=float)
    n, d = values.shape
    return FeatureMatrix(
        row_ids=tuple(f"s{i:03d}" for i in range(n)),
        names=tuple(f"{group}:c{j}" for j in range(d)),
        groups=(group,) * d,
        values=values,
    )


def loo(matrix, y, spec, thresholds=DEFAULT_THRESHOLDS, normalize=False, **kwargs):
    """``loocv_matrix`` with every fold prepared on its own rows."""
    preps = prepare_fold_preprocessors(matrix, thresholds, normalize)
    return loocv_matrix(matrix, y, spec, preps, **kwargs)


def random_preds(rng, n):
    out = []
    for i in range(n):
        scores = rng.random(5)
        grade = int(np.argmax(scores)) + 1
        out.append(pred(int(rng.integers(1, 6)), grade, scores, sid=f"s{i}", fold=i))
    return out


class TestLoocvHarness:
    def test_two_rows_majority_predicts_the_other(self):
        matrix = toy_matrix([[0.0], [1.0]])
        y = np.array([5, 1])
        preds = loo(matrix, y, ModelSpec(kind="majority"), thresholds=(0.0, 0.0))
        assert [p.outcome.grade for p in preds] == [1, 5]
        assert [p.true_grade for p in preds] == [5, 1]

    def test_one_fold_per_row(self):
        matrix = toy_matrix(np.random.default_rng(3).random((7, 2)))
        y = np.array([1, 2, 3, 4, 5, 1, 2])
        preds = loo(matrix, y, ModelSpec(kind="knn", k=1))
        assert [p.fold_index for p in preds] == list(range(7))
        assert [p.student_id for p in preds] == list(matrix.row_ids)

    def test_single_row_rejected(self):
        matrix = toy_matrix([[1.0]])
        prep = fit_preprocessor(matrix.values, matrix.groups, 0.0, 0.0, False)
        with pytest.raises(ValueError):
            loocv_matrix(matrix, np.array([3]), ModelSpec(kind="majority"), [prep])

    @pytest.mark.parametrize("extra", [-1, 1], ids=["one-short", "one-long"])
    def test_preprocessor_count_must_match_rows(self, extra):
        matrix = toy_matrix(np.random.default_rng(6).random((5, 2)))
        preps = prepare_fold_preprocessors(matrix, (0.0, 0.0), normalize=False)
        preps = preps[:extra] if extra < 0 else preps + preps[:extra]
        with pytest.raises(ValueError, match=f"got {5 + extra} for 5 rows"):
            loocv_matrix(matrix, np.array([1, 2, 3, 4, 5]), ModelSpec(kind="majority"),
                         preps)

    def test_loocv_prepares_each_fold_then_runs_the_engine(self, small_cohort, small_matrix):
        matrix, y = small_matrix
        spec = ModelSpec(kind="knn")
        got = loocv(small_cohort, spec, normalize=True)
        want = loo(matrix, y, spec, normalize=True)
        assert ([(p.student_id, p.outcome.grade, p.outcome.class_scores.tobytes()) for p in got]
                == [(p.student_id, p.outcome.grade, p.outcome.class_scores.tobytes())
                    for p in want])

    def test_fold_preprocessor_drops_locally_constant_column(self):
        # Column 0 varies only through row 0: with row 0 held out its
        # variance is zero and the fold must drop it; other folds keep it.
        values = np.zeros((5, 2))
        values[0, 0] = 1.0
        values[:, 1] = [0, 1, 0, 1, 0]
        matrix = FeatureMatrix(
            row_ids=tuple(f"s{i}" for i in range(5)),
            names=("perf:q0", "perf:q1"),
            groups=("perf", "perf"),
            values=values,
        )
        preps = prepare_fold_preprocessors(matrix, (0.0, 0.0), normalize=False)
        assert preps[0].kept.tolist() == [False, True]
        for prep in preps[1:]:
            assert prep.kept.tolist() == [True, True]

    def test_global_prep_reuses_one_fit(self):
        matrix = toy_matrix(np.random.default_rng(4).random((6, 3)))
        preps = prepare_fold_preprocessors(matrix, (0.0, 0.0), normalize=True,
                                           global_prep=True)
        assert len(preps) == 6
        assert all(p is preps[0] for p in preps)

    def test_fold_seeds_differ_for_random_model(self):
        matrix = toy_matrix(np.zeros((30, 1)))
        y = np.tile(np.arange(1, 6), 6)
        preds = loo(matrix, y, ModelSpec(kind="random", seed=0), thresholds=(0.0, 0.0))
        assert len({p.outcome.grade for p in preds}) > 1

    def test_thread_count_does_not_change_results(self):
        rng = np.random.default_rng(5)
        matrix = toy_matrix(rng.random((12, 4)))
        y = rng.integers(1, 6, size=12)
        serial = loo(matrix, y, ModelSpec(kind="knn"), jobs=1)
        threaded = loo(matrix, y, ModelSpec(kind="knn"), jobs=4)
        for a, b in zip(serial, threaded):
            assert a.outcome.grade == b.outcome.grade
            assert np.array_equal(a.outcome.class_scores, b.outcome.class_scores)

    def test_warning_sink_collects_model_warnings(self, small_matrix, monkeypatch):
        # Every SVR fold hits the iteration cap.  Fold 24 is a transform
        # group of its own, predicted after the group of all other folds,
        # and its warning still joins the sink in fold order.
        monkeypatch.setattr(dual, "MAX_ITER", 1)
        matrix, y = small_matrix
        preps = prepare_fold_preprocessors(matrix, DEFAULT_THRESHOLDS, False)
        assert [p.key() for p in preps].count(preps[24].key()) == 1
        sink = []
        loo(matrix, y, ModelSpec(kind="svr"), warning_sink=sink)
        assert sink == [f"fold {i}: svr: iteration cap reached" for i in range(y.size)]

    def test_warning_order_does_not_depend_on_threads(self, small_matrix, monkeypatch):
        monkeypatch.setattr(dual, "MAX_ITER", 1)     # every SVM pair hits the cap
        matrix, y = small_matrix
        sinks = {}
        for jobs in (1, 4):
            sinks[jobs] = []
            loo(matrix, y, ModelSpec(kind="svm"), jobs=jobs, warning_sink=sinks[jobs])
        assert len(sinks[1]) >= y.size
        folds = [int(line.split(":")[0].split()[1]) for line in sinks[1]]
        assert folds == sorted(folds)
        assert sinks[4] == sinks[1]


KERNEL_SPECS = (ModelSpec(kind="svm"), ModelSpec(kind="svr"))
ALL_SPECS = KERNEL_SPECS + (ModelSpec(kind="tree"), ModelSpec(kind="linreg"),
                            ModelSpec(kind="nb"), ModelSpec(kind="knn"),
                            ModelSpec(kind="random", seed=7), ModelSpec(kind="majority"))


def spec_id(spec):
    """A spec's test id: its kind, or for linreg and svr the ``backend`` of
    the fitted RegressionModel."""
    return {"linreg": "least_squares", "svr": "epsilon_svr"}.get(spec.kind, spec.kind)


def fold_training_sets(values, y, normalize, group="score"):
    """Every fold's transformed training set, and its preprocessor."""
    matrix = toy_matrix(values, group)
    preps = prepare_fold_preprocessors(matrix, (0.0, 0.0), normalize)
    sets = []
    for i, prep in enumerate(preps):
        keep = np.arange(y.size) != i
        sets.append((prep.transform(values[keep]), y[keep]))
    return sets, preps


def small_cohort(n, d, seed):
    """n rows of d features: half the columns small integers, half floats
    on a large offset, the last constant but on row 0."""
    rng = np.random.default_rng(seed)
    values = np.hstack([rng.integers(0, 4, size=(n, d - d // 2)).astype(float),
                        1e3 + rng.random((n, d // 2))])
    values[:, -1] = 0.0
    values[0, -1] = 1.0
    return values


SMALL_COHORTS = (
    # One-row folds have no variance, so "perf" selection would drop every
    # column; "score" columns are never selected out.
    ("n2", small_cohort(2, 3, 2), np.array([1, 2]), "score"),
    *((f"n{n}", small_cohort(n, 3, n), np.arange(n) % 5 + 1, "perf") for n in range(3, 7)),
    ("single-row-grade", small_cohort(6, 8, 10), np.array([4, 4, 2, 5, 5, 4]), "perf"),
    ("tied-majority", small_cohort(5, 2, 11), np.array([1, 3, 1, 3, 5]), "perf"),
)


class TestBatchedFoldEngine:
    """Every model predicts its held-out rows through ``predict_held_out``."""

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=spec_id)
    def test_held_out_row_does_not_reach_its_fold_model(self, small_matrix, spec):
        # Every fold's training set is its own group, and a probe is the row
        # each group holds out, so the duals of all folds meet in lock-step
        # batches.  Mutating row i changes the other folds' problems in the
        # batch, never fold i's: batching must not couple problems.  The
        # probe is the mean row, whose SVR estimates are not clamped to the
        # grade range, so its class scores show every fold's estimate.
        matrix, y = small_matrix
        rng = np.random.default_rng(88)
        values = matrix.values[:, :80]
        probe = values.mean(axis=0)
        for i in (0, 13, 39):
            mutated = values.copy()
            mutated[i] = mutated[i] * rng.uniform(0.5, 2.0) + rng.normal(
                scale=3.0, size=values.shape[1])
            outputs = []
            for source in (values, mutated):
                sets, preps = fold_training_sets(source, y, normalize=False)
                groups = [(np.vstack([X, p.transform(probe[None, :])]), np.append(y_fold, 1),
                           [y_fold.size]) for (X, y_fold), p in zip(sets, preps)]
                outputs.append([(outcome.grade, outcome.class_scores.tobytes())
                                for [(outcome, _)] in predict_held_out(spec, groups)])
            assert outputs[0][i] == outputs[1][i]
            assert sum(a != b for a, b in zip(*outputs)) > y.size // 2

    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
    def test_each_fold_equals_a_standalone_train(self, small_matrix, normalize):
        # The folds share one transformed matrix by transform group;
        # selection (on "perf" columns) and a column only row 7 varies give
        # several groups.  Fold i's model carries its own seed, and its
        # held-out row is transformed by its own preprocessor.
        matrix, y = small_matrix
        values = matrix.values[:, :80].copy()
        values[:, 0] = 0.0
        values[7, 0] = 1.0
        sets, preps = fold_training_sets(values, y, normalize, group="perf")
        assert len({p.key() for p in preps}) > 1
        for spec in ALL_SPECS:
            preds = loo(toy_matrix(values, "perf"), y, spec,
                        thresholds=(0.0, 0.0), normalize=normalize)
            for i, ((X, y_fold), prep) in enumerate(zip(sets, preps)):
                fold_spec = replace(spec, seed=mix_seed(spec.seed, i))
                alone = train(fold_spec, X, y_fold).predict(
                    prep.transform(values[i:i + 1])[0])
                assert preds[i].outcome.grade == alone.grade, (spec.kind, i)
                assert (preds[i].outcome.class_scores.tobytes()
                        == alone.class_scores.tobytes()), (spec.kind, i)

    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
    @pytest.mark.parametrize("case", SMALL_COHORTS, ids=[c[0] for c in SMALL_COHORTS])
    def test_small_cohort_folds_equal_a_standalone_train(self, case, normalize):
        # The edge cases of the group paths: one to five training rows, the
        # primal and the dual linreg, a grade that leaves its only row's
        # fold, KNN with more neighbors than rows, and tied majority counts.
        _, values, y, group = case
        sets, preps = fold_training_sets(values, y, normalize, group)
        for spec in ALL_SPECS + (ModelSpec(kind="knn", k=9),):
            preds = loo(toy_matrix(values, group), y, spec,
                        thresholds=(0.0, 0.0), normalize=normalize)
            for i, ((X, y_fold), prep) in enumerate(zip(sets, preps)):
                fold_spec = replace(spec, seed=mix_seed(spec.seed, i))
                alone = train(fold_spec, X, y_fold).predict(
                    prep.transform(values[i:i + 1])[0])
                assert preds[i].outcome.grade == alone.grade, (spec.kind, i)
                assert (preds[i].outcome.class_scores.tobytes()
                        == alone.class_scores.tobytes()), (spec.kind, i)

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_group_is_transformed_once(self, small_matrix, kind, monkeypatch):
        matrix, y = small_matrix
        preps = prepare_fold_preprocessors(matrix, DEFAULT_THRESHOLDS, False)
        assert len({p.key() for p in preps}) > 1
        calls, transform = Counter(), Preprocessor.transform

        def counting(prep, values):
            calls[prep.key()] += 1
            return transform(prep, values)
        monkeypatch.setattr(Preprocessor, "transform", counting)
        loocv_matrix(matrix, y, ModelSpec(kind=kind), preps)
        assert calls == Counter({p.key(): 1 for p in preps})

    @pytest.mark.parametrize("extra", [[], ["--normalize"]], ids=["raw", "normalized"])
    def test_artifacts_do_not_depend_on_jobs(self, tmp_path, extra):
        assert cli_main(["synth", "--students", "20", "--questions", "12",
                         "--grade-counts", "2,2,4,5,7", "--seed", "5",
                         "--out-dir", str(tmp_path / "data")]) == 0
        artifacts = []
        for jobs in (1, 4):
            out = tmp_path / f"jobs{jobs}"
            assert cli_main(["evaluate", "--submissions", str(tmp_path / "data" / "submissions.csv"),
                             "--gradebook", str(tmp_path / "data" / "gradebook.csv"),
                             "--model", "all,svr", "--jobs", str(jobs), *extra,
                             "--out-dir", str(out)]) == 0
            artifacts.append({f.name: f.read_bytes().split(b"\n", 1)[1]
                              for f in sorted(out.iterdir())})
        assert sorted(artifacts[0]) == [
            "predictions_knn.csv", "predictions_linreg.csv", "predictions_majority.csv",
            "predictions_nb.csv", "predictions_random.csv", "predictions_svm.csv",
            "predictions_svr.csv", "predictions_tree.csv", "report.md"]
        assert artifacts[0] == artifacts[1]


def loo_fold_duals(monkeypatch, matrix, y, spec, normalize):
    """Every bit of each fold's duals and their solutions on the kernel
    models' leave-one-out path, by held-out row."""
    duals = {}
    solve_groups = dual.solve_groups

    def recording(groups, plan):
        planned = []

        def planning(group):
            problems, note = plan(group)
            planned.append((group[2], problems))
            return problems, note

        for g, (note, solutions) in enumerate(solve_groups(groups, planning)):
            for i, problems, sols in zip(*planned[g], solutions):
                duals[i] = [(prob.rows.tolist(), prob.s.tobytes(), prob.p.tobytes(), prob.C,
                             a.tobytes(), rho, converged, iterations)
                            for prob, (a, rho, converged, iterations) in zip(problems, sols)]
            yield note, solutions

    with monkeypatch.context() as patch:
        patch.setattr(dual, "solve_groups", recording)
        loo(matrix, y, spec, normalize=normalize)
    return [duals[i] for i in range(y.size)]


class TestLeastSquaresFoldGroups:
    @pytest.mark.parametrize("offset", [1e4, 1e6])
    def test_fold_estimates_match_ridge_oracle_on_offset_columns(self, offset):
        # Columns with large means give a linear kernel far larger than its
        # centered form.  The group's kernel is taken on rows less a training
        # row, so each fold's centered kernel keeps its digits.  The
        # features are nearly orthogonal and the grades central, so every
        # estimate lies inside the grade range and its class scores show it
        # unclamped.
        rng = np.random.default_rng(int(offset))
        n, d = 40, 300
        X = offset + rng.normal(size=(n, d))
        y = rng.integers(2, 5, size=n)
        [outcomes] = predict_held_out(ModelSpec(kind="linreg"), [(X, y, list(range(n)))])
        for i, (outcome, _) in enumerate(outcomes):
            keep = np.arange(n) != i
            w, _ = ridge_oracle(X[keep], y[keep], RIDGE_DAMPING)
            expected = float((X[i] - X[keep].mean(axis=0)) @ w + y[keep].mean())
            assert 1.0 < expected < 5.0
            assert abs((1.0 - outcome.class_scores[0]) - expected) <= 1e-6, i


class TestKernelFoldGroups:
    """SVM and SVR folds with equal transforms share one kernel on all rows."""

    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=spec_id)
    def test_held_out_row_does_not_reach_its_fold_duals(self, small_matrix, spec,
                                                        normalize, monkeypatch):
        # Row i sits in its group's kernel, but fold i's duals and their
        # solutions must not change when it does; the other folds train on it.
        matrix, y = small_matrix
        rng = np.random.default_rng(90)
        for i in (0, 13, 39):
            values = matrix.values.copy()
            values[i] = values[i] * rng.uniform(0.5, 2.0) + rng.normal(
                scale=3.0, size=values.shape[1])
            mutated = FeatureMatrix(matrix.row_ids, matrix.names, matrix.groups, values)
            before, after = (loo_fold_duals(monkeypatch, m, y, spec, normalize)
                             for m in (matrix, mutated))
            assert all(i not in rows for rows, *_ in before[i])
            assert before[i] == after[i]
            assert sum(a != b for a, b in zip(before, after)) > y.size // 2


def svm_plans(monkeypatch, matrix, y, normalize):
    """Each group's (labels, fold plans, fold duals) as ``svm._plan`` gives
    them on the SVM's leave-one-out path, every problem handed to the
    solver, and the predictions."""
    plans, solved = [], []
    plan, solve = svm._plan, dual.solve

    def recording_plan(spec, X, labels, held):
        K, folds, problems = plan(spec, X, labels, held)
        plans.append((np.asarray(labels), folds, problems))
        return K, folds, problems

    def recording_solve(problems):
        solved.extend(problems)
        return solve(problems)

    with monkeypatch.context() as patch:
        patch.setattr(svm, "_plan", recording_plan)
        patch.setattr(dual, "solve", recording_solve)
        preds = loo(matrix, y, ModelSpec(kind="svm"), normalize=normalize)
    return plans, solved, preds


class TestSharedPairDuals:
    """A group builds each full-pair SVM dual once; fold i builds only the
    pairs of its held-out grade."""

    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
    def test_folds_hold_the_group_dual_of_every_pair_without_their_grade(
            self, small_matrix, normalize, monkeypatch):
        matrix, y = small_matrix
        plans, solved, _ = svm_plans(monkeypatch, matrix, y, normalize)
        distinct = set()
        for labels, folds, problems in plans:
            full, own = {}, []
            for (r, _, pairs), probs in zip(folds, problems):
                for (lower, upper, _, _), prob in zip(pairs, probs):
                    rows = np.flatnonzero((labels == lower) | (labels == upper))
                    if labels[r] in (lower, upper):
                        own.append(prob)
                        rows = rows[rows != r]
                    else:
                        assert full.setdefault((lower, upper), prob) is prob
                    assert prob.rows.tolist() == rows.tolist()
            group = {id(prob) for probs in problems for prob in probs}
            assert len(group) == len(full) + len(own)
            distinct |= group
        # Every distinct dual is solved, and once.
        assert Counter(map(id, solved)) == Counter(distinct)

    def test_a_dual_shared_across_batches_is_solved_once(self, small_matrix, monkeypatch):
        # With the smallest batch bound every fold is its own batch.
        matrix, y = small_matrix
        _, _, preds = svm_plans(monkeypatch, matrix, y, False)
        monkeypatch.setattr(dual, "BLOCK_BYTES", 1)
        _, solved, split = svm_plans(monkeypatch, matrix, y, False)
        assert max(Counter(map(id, solved)).values()) == 1
        assert ([(p.outcome.grade, p.outcome.class_scores.tobytes()) for p in preds]
                == [(p.outcome.grade, p.outcome.class_scores.tobytes()) for p in split])

    def test_a_grade_whose_only_row_is_held_out_leaves_the_fold(self, small_matrix,
                                                                 monkeypatch):
        matrix, y = small_matrix
        y = y.copy()
        only = int(np.flatnonzero(y == 2)[0])
        y[(y == 2) & (np.arange(y.size) != only)] = 3
        plans, _, preds = svm_plans(monkeypatch, matrix, y, False)
        for labels, folds, _ in plans:
            for r, classes, pairs in folds:
                assert (2 in classes) == (r != only)
                assert all(2 not in (lower, upper) for lower, upper, _, _ in pairs) \
                    == (r == only)
        assert preds[only].outcome.class_scores[1] == 0.0


def tree_nodes(node):
    """Every bit a fitted tree holds, in preorder."""
    if hasattr(node, "threshold"):
        return [(node.feature, node.threshold), *tree_nodes(node.left), *tree_nodes(node.right)]
    return [(node.grade, node.scores.tobytes())]


def loo_trees(monkeypatch, matrix, y, normalize):
    """The nodes of every fold's tree on the tree's leave-one-out path, and
    the fold predictions."""
    trees = {}
    grow = tree.Grower.tree

    def recording(grower, without=None):
        trees[without] = model = grow(grower, without)
        return model

    with monkeypatch.context() as patch:
        patch.setattr(tree.Grower, "tree", recording)
        preds = loo(matrix, y, ModelSpec(kind="tree"), normalize=normalize)
    return [tree_nodes(trees[i].root) for i in range(y.size)], preds


class TestTreeFoldGroups:
    """Tree folds with equal transforms grow from one grower over all rows."""

    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
    def test_held_out_row_does_not_reach_its_fold_tree(self, small_matrix, normalize,
                                                        monkeypatch):
        # Row i is coded with the rest of its group, but fold i's tree must
        # not change when it does; the other folds train on row i.
        matrix, y = small_matrix
        rng = np.random.default_rng(89)
        for i in (0, 13, 39):
            values = matrix.values.copy()
            values[i] = values[i] * rng.uniform(0.5, 2.0) + rng.normal(
                scale=3.0, size=values.shape[1])
            mutated = FeatureMatrix(matrix.row_ids, matrix.names, matrix.groups, values)
            before, after = (loo_trees(monkeypatch, m, y, normalize)[0]
                             for m in (matrix, mutated))
            assert before[i] == after[i]
            assert sum(a != b for a, b in zip(before, after)) > y.size // 2

    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
    def test_each_fold_tree_equals_a_standalone_train(self, small_matrix, normalize,
                                                      monkeypatch):
        matrix, y = small_matrix
        values = matrix.values.copy()
        values[:, -1] = y            # a column the trees split on
        values[7, -1] = 9.0          # a value only row 7 holds
        matrix = FeatureMatrix(matrix.row_ids, matrix.names, matrix.groups, values)
        trees, preds = loo_trees(monkeypatch, matrix, y, normalize)
        preps = prepare_fold_preprocessors(matrix, DEFAULT_THRESHOLDS, normalize)
        assert len({p.key() for p in preps}) > 1
        for i, prep in enumerate(preps):
            keep = np.arange(y.size) != i
            alone = train(ModelSpec(kind="tree"), prep.transform(values[keep]), y[keep])
            assert trees[i] == tree_nodes(alone.root)
            outcome = alone.predict(prep.transform(values[i:i + 1])[0])
            assert preds[i].outcome.grade == outcome.grade
            assert np.array_equal(preds[i].outcome.class_scores, outcome.class_scores)


class TestSharedSubtrees:
    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
    def test_a_grower_splits_each_row_set_once(self, small_matrix, normalize,
                                               monkeypatch):
        # The rows of the node being split are those of the innermost _grow.
        matrix, y = small_matrix
        stack, splits = [], Counter()
        grow, best_split = tree.Grower._grow, tree.Grower.best_split

        def recording_grow(grower, rows, hist):
            stack.append(rows.tobytes())
            try:
                return grow(grower, rows, hist)
            finally:
                stack.pop()

        def recording_split(grower, hist, counts, n):
            splits[grower, stack[-1]] += 1     # holds the grower, so no id is reused
            return best_split(grower, hist, counts, n)

        monkeypatch.setattr(tree.Grower, "_grow", recording_grow)
        monkeypatch.setattr(tree.Grower, "best_split", recording_split)
        trees, _ = loo_trees(monkeypatch, matrix, y, normalize)
        assert max(splits.values()) == 1
        # The folds' trees share subtrees: fewer splits searched than they hold.
        assert sum(splits.values()) < sum(len(t) for t in trees) // 2


class TestFoldByFoldGroups:
    """Every model's fold i, each its own group with a probe row held out,
    does not see row i."""

    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
    def test_held_out_row_does_not_reach_its_fold_model(self, small_matrix, spec,
                                                        normalize):
        # The probe-row form of TestBatchedFoldEngine's test: mutating row i
        # changes the other folds' training sets, never fold i's, so fold i's
        # prediction of the probe (the mean row) must not change.  The
        # models whose class scores move with the features show the other
        # folds' changes; the votes of KNN and the tree's leaf frequencies
        # at a fixed probe seldom move, and the baselines read no feature.
        matrix, y = small_matrix
        rng = np.random.default_rng(91)
        values = matrix.values
        probe = values.mean(axis=0)
        for i in (0, 13, 39):
            mutated = values.copy()
            mutated[i] = mutated[i] * rng.uniform(0.5, 2.0) + rng.normal(
                scale=3.0, size=values.shape[1])
            outputs = []
            for source in (values, mutated):
                sets, preps = fold_training_sets(source, y, normalize)
                groups = [(np.vstack([X, p.transform(probe[None, :])]), np.append(y_fold, 1),
                           [y_fold.size]) for (X, y_fold), p in zip(sets, preps)]
                outputs.append([(outcome.grade, outcome.class_scores.tobytes())
                                for [(outcome, _)] in predict_held_out(spec, groups)])
            assert outputs[0][i] == outputs[1][i]
            if spec.kind in ("svm", "svr", "linreg", "nb"):
                assert sum(a != b for a, b in zip(*outputs)) > y.size // 2


class TestBasicMetrics:
    def test_always_top_grade_on_skewed_cohort(self):
        y = [5] * 119 + [4] * 72 + [3] * 22 + [2] * 10 + [1] * 26
        preds = [pred(t, 5, sid=f"s{i}") for i, t in enumerate(y)]
        assert accuracy(preds) == 119 / 249
        assert mse(preds) == 666 / 249
        assert distance_histogram(preds) == (119, 72, 22, 10, 26)
        assert f1_micro(preds) == 119 / 249

    def test_perfect_predictions(self):
        preds = [pred(g, g, sid=f"s{g}") for g in (1, 2, 3, 4, 5)]
        report = summarize(preds)
        assert report.accuracy == 1.0
        assert report.mse == 0.0
        assert report.f1_micro == 1.0
        assert report.distance_histogram == (5, 0, 0, 0, 0)

    def test_maximal_miss_lands_in_last_bucket(self):
        preds = [pred(5, 1)]
        assert distance_histogram(preds) == (0, 0, 0, 0, 1)
        assert mse(preds) == 16.0

    def test_f1_equals_accuracy_on_random_sets(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            preds = random_preds(rng, int(rng.integers(2, 40)))
            assert f1_micro(preds) == accuracy(preds)

    def test_summarize_identities_hold_on_random_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            preds = random_preds(rng, int(rng.integers(2, 40)))
            report = summarize(preds)
            assert sum(report.distance_histogram) == report.n
            dec = sum(d * d * h for d, h in enumerate(report.distance_histogram))
            assert report.mse == dec / report.n

    def test_summarize_raises_when_an_identity_breaks(self, monkeypatch):
        # An explicit check, not an assert, so it also holds under python -O.
        preds = [pred(3, 3, sid="a"), pred(4, 3, sid="b")]
        monkeypatch.setattr(evaluation, "f1_micro", lambda preds: 0.25)
        with pytest.raises(ValueError, match="micro-F1"):
            summarize(preds)


class TestAveragePrecision:
    def test_perfect_separation_scores_one(self):
        preds = [pred(g, g, sid=f"s{g}") for g in (1, 2, 3, 4, 5)]
        assert micro_average_precision(preds) == 1.0

    def test_single_student_hand_value(self):
        preds = [pred(3, 2, scores=[0.5, 0.9, 0.8, 0.1, 0.0])]
        # Ranked: 0.9 (wrong), 0.8 (true class), ... -> precision 1/2.
        assert micro_average_precision(preds) == 0.5

    def test_two_student_hand_value(self):
        preds = [
            pred(5, 5, scores=[0, 0, 0, 0, 0.9], sid="a"),
            pred(4, 5, scores=[0, 0, 0, 0.8, 0.85], sid="b"),
        ]
        # Hits at ranks 1 and 3: (1/1 + 2/3) / 2.
        assert micro_average_precision(preds) == pytest.approx((1.0 + 2 / 3) / 2)

    def test_matches_oracle_with_index_tiebreak(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 25))
            preds = random_preds(rng, n)
            pooled_scores = []
            pooled_labels = []
            for p in preds:
                pooled_scores.extend(float(s) for s in p.outcome.class_scores)
                pooled_labels.extend(g + 1 == p.true_grade for g in range(5))
            expected = average_precision_oracle(pooled_scores, pooled_labels, n)
            assert micro_average_precision(preds) == pytest.approx(expected, abs=1e-12)

    def test_tied_scores_rank_by_student_then_class(self):
        flat = [0.2] * 5
        preds = [pred(1, 1, scores=flat, sid="a"), pred(1, 1, scores=flat, sid="b")]
        # All ten scores tie; positives sit at pooled positions 1 and 6.
        expected = (1 / 1 + 2 / 6) / 2
        assert micro_average_precision(preds) == pytest.approx(expected)


class TestAuroc:
    def test_reference_interleaving(self):
        preds = [
            pred(5, 5, scores=[0, 0, 0, 0, 0.9], sid="a"),
            pred(4, 5, scores=[0, 0, 0, 0, 0.85], sid="b"),
            pred(5, 5, scores=[0, 0, 0, 0, 0.8], sid="c"),
        ]
        value, degenerate = auroc_correct(preds)
        assert value == 0.5
        assert not degenerate

    def test_perfect_ranking(self):
        preds = [
            pred(5, 5, scores=[0, 0, 0, 0, 0.9], sid="a"),
            pred(4, 5, scores=[0, 0, 0, 0, 0.2], sid="b"),
        ]
        assert auroc_correct(preds) == (1.0, False)

    def test_all_correct_is_degenerate(self):
        preds = [pred(3, 3, sid="a"), pred(4, 4, sid="b")]
        assert auroc_correct(preds) == (0.5, True)

    def test_all_wrong_is_degenerate(self):
        preds = [pred(3, 2, sid="a"), pred(4, 5, sid="b")]
        assert auroc_correct(preds) == (0.5, True)

    def test_exact_tie_counts_half(self):
        preds = [
            pred(5, 5, scores=[0, 0, 0, 0, 0.7], sid="a"),
            pred(4, 5, scores=[0, 0, 0, 0, 0.7], sid="b"),
            pred(1, 1, scores=[0.9, 0, 0, 0, 0], sid="c"),
        ]
        value, _ = auroc_correct(preds)
        assert value == pytest.approx(0.75)

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(60):
            preds = random_preds(rng, int(rng.integers(2, 30)))
            value, degenerate = auroc_correct(preds)
            raw = [float(p.outcome.class_scores.max()) for p in preds]
            labels = [p.outcome.grade == p.true_grade for p in preds]
            expected = auroc_oracle(raw, labels)
            if expected is None:
                assert degenerate and value == 0.5
            else:
                checked += 1
                assert value == pytest.approx(expected, abs=1e-12)
        assert checked >= 20


class TestRenderReport:
    def test_single_model_layout(self):
        y = [5] * 119 + [4] * 72 + [3] * 22 + [2] * 10 + [1] * 26
        preds = [pred(t, 5, sid=f"s{i}") for i, t in enumerate(y)]
        text = render_report({"majority": summarize(preds)})
        assert "## Leave-one-out metrics" in text
        assert "## Distance between predicted and actual grade" in text
        assert "| All A | 47.8% | 2.675 |" in text
        assert "| All A | 119 | 72 | 22 | 10 | 26 |" in text

    def test_rows_follow_fixed_model_order(self):
        report = summarize([pred(3, 3, sid="a"), pred(4, 3, sid="b")])
        text = render_report({"majority": report, "svm": report, "knn": report})
        rows = [line for line in text.splitlines() if line.startswith("| ")]
        names = [r.split("|")[1].strip() for r in rows
                 if "Model" not in r and "---" not in r]
        assert names[:3] == ["SVM", "KNN", "All A"]

    def test_degenerate_auroc_is_flagged(self):
        report = summarize([pred(3, 3, sid="a"), pred(4, 4, sid="b")])
        text = render_report({"knn": report})
        assert "0.500 (degenerate)" in text

    def test_every_model_key_has_a_display_name(self):
        assert set(MODEL_ORDER) == set(DISPLAY_NAMES)


class TestPredictionsCsv:
    def test_format_and_round_trip(self, tmp_path):
        preds = [
            pred(5, 4, scores=[0.1, 0.2, 0.3, 0.25, 0.15], sid="stu1"),
            pred(1, 1, sid="stu2", fold=1),
        ]
        path = tmp_path / "predictions.csv"
        write_predictions_csv(preds, path, header_comment="run-config: {}")
        lines = path.read_text().splitlines()
        assert lines[0] == "# run-config: {}"
        assert lines[1] == ("student_id,true_grade,predicted_grade,"
                            "score_F,score_D,score_C,score_B,score_A")
        assert lines[2] == "stu1,A,B,0.1,0.2,0.3,0.25,0.15"
        assert lines[3] == "stu2,F,F,1,0,0,0,0"

    def test_comment_omitted_when_not_given(self, tmp_path):
        path = tmp_path / "predictions.csv"
        write_predictions_csv([pred(2, 2, sid="x")], path)
        assert path.read_text().startswith("student_id,")
