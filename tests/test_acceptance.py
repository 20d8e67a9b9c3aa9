"""End-to-end acceptance checks for the grade-prediction pipeline.

Each test covers one numbered acceptance criterion and records a single
PASS/FAIL line; conftest echoes the collected checklist after the run so
it is visible regardless of output capture.  Reference numbers for the
default cohort were frozen from an independent calibration run and
cross-checked against the analytic values where those exist.
"""
from collections import Counter

import numpy as np
import pytest

from gradecast.cli import main as cli_main
from gradecast.evaluation import (
    accuracy,
    f1_micro,
    loocv_matrix,
    mse,
    prepare_fold_preprocessors,
    summarize,
)
from gradecast.features import (
    assemble_feature_matrix,
    response_times,
    segment_sessions,
)
from gradecast.ingest import build_dataset
from gradecast.models import ModelSpec, train
from gradecast.models.svm import rbf_kernel, smo
from gradecast.rng import mix_seed
from gradecast.selection import variance_mask
from gradecast.synth import CohortConfig, generate_cohort

from conftest import ACCEPTANCE_VERDICTS
from oracles import (
    kkt_max_violation,
    knn_oracle_predict,
    nb_oracle_predict,
    svm_bias_from_alpha,
    svm_dual_objective,
    svm_dual_oracle,
    tree_oracle_predict,
    variance_oracle,
)
from test_evaluation import random_preds, toy_matrix


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_VERDICTS.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_cohort():
    events, records = generate_cohort(CohortConfig(seed=42))
    return build_dataset(events, records)


@pytest.fixture(scope="module")
def default_matrix(default_cohort):
    matrix = assemble_feature_matrix(default_cohort)
    y = np.array([int(rec.final_grade) for rec in default_cohort.students])
    return matrix, y


@pytest.fixture(scope="module")
def fold_preps(default_matrix):
    matrix, _ = default_matrix
    return prepare_fold_preprocessors(matrix, (0.02, 0.05), normalize=False)


@pytest.fixture(scope="module")
def majority_report(default_matrix, fold_preps):
    matrix, y = default_matrix
    preds = loocv_matrix(matrix, y, ModelSpec(kind="majority"),
                         preprocessors=fold_preps)
    return summarize(preds)


def test_criterion_01_majority_baseline_reference_values(majority_report):
    r = majority_report
    hist_target = (119, 72, 22, 10, 26)
    ok = (abs(r.accuracy - 0.478) <= 0.002
          and abs(r.mse - 2.674) <= 0.02
          and all(abs(a - b) <= 1 for a, b in zip(r.distance_histogram, hist_target)))
    verdict(1, ok,
            f"always-predict-A LOO accuracy {r.accuracy:.4f} (target 0.478 +/- 0.002), "
            f"mse {r.mse:.4f} (target 2.674 +/- 0.02), "
            f"distance histogram {r.distance_histogram} vs {hist_target} +/- 1")


def test_criterion_02_random_baseline_mean_over_seeds(default_matrix, fold_preps):
    matrix, y = default_matrix
    accs, errs = [], []
    for seed in range(100):
        preds = loocv_matrix(matrix, y, ModelSpec(kind="random", seed=seed),
                             preprocessors=fold_preps)
        accs.append(accuracy(preds))
        errs.append(mse(preds))
    mean_acc = float(np.mean(accs))
    mean_mse = float(np.mean(errs))
    ok = abs(mean_acc - 0.20) <= 0.02 and abs(mean_mse - 4.659) <= 0.10
    verdict(2, ok,
            f"random baseline over 100 seeds: mean accuracy {mean_acc:.4f} "
            f"(target 0.20 +/- 0.02), mean mse {mean_mse:.4f} (target 4.659 +/- 0.10)")


def test_criterion_03_metric_identities(majority_report):
    rng = np.random.default_rng(2026)
    failures = []
    for case in range(200):
        preds = random_preds(rng, int(rng.integers(2, 60)))
        report = summarize(preds)
        # Second route: pooled confusion counts built with Counter.
        pairs = Counter((p.true_grade, p.outcome.grade) for p in preds)
        tp = sum(c for (t, g), c in pairs.items() if t == g)
        fp = sum(c for (t, g), c in pairs.items() if t != g)
        fn = fp
        f1 = 2 * tp / (2 * tp + fp + fn)
        n = len(preds)
        if not (report.f1_micro == f1 == tp / n == report.accuracy):
            failures.append(f"case {case}: f1/accuracy identity broke")
        if sum(report.distance_histogram) != n:
            failures.append(f"case {case}: histogram does not sum to n")
        decomposed = sum(d * d * h for d, h in enumerate(report.distance_histogram)) / n
        if report.mse != decomposed:
            failures.append(f"case {case}: mse decomposition mismatch")
    r = majority_report
    if not (r.f1_micro == r.accuracy and sum(r.distance_histogram) == r.n):
        failures.append("default-cohort run: identity broke")
    ok = not failures
    verdict(3, ok, "f1==accuracy, hist sums to N, mse==histogram decomposition "
                   f"exact on 200 random prediction sets + default-cohort run"
                   + (f"; first failure: {failures[0]}" if failures else ""))


def test_criterion_04_smo_against_enumeration_oracle():
    rng = np.random.default_rng(404)
    worst_gap = 0.0
    worst_kkt = 0.0
    mismatches = 0
    trials = 60
    for _ in range(trials):
        n = int(rng.integers(3, 9))
        X = rng.normal(size=(n, 2))
        y = np.where(rng.random(n) < 0.5, 1, 2)
        if len(set(y.tolist())) == 1:
            y[0] = 3 - y[0]
        gamma = 1.0 / 2
        K = rbf_kernel(X, X, gamma)
        ysub = np.where(y == 1, 1.0, -1.0)

        alpha, b, converged, _ = smo(K, ysub, 1.0)
        assert converged
        worst_kkt = max(worst_kkt, kkt_max_violation(alpha, ysub, K, b, 1.0))

        oracle_alpha, oracle_obj = svm_dual_oracle(K, ysub, 1.0)
        worst_gap = max(worst_gap, oracle_obj - svm_dual_objective(alpha, ysub, K))

        model = train(ModelSpec(kind="svm"), X, y)
        oracle_b = svm_bias_from_alpha(oracle_alpha, ysub, K, 1.0)
        oracle_f = K @ (oracle_alpha * ysub) + oracle_b
        for i in range(n):
            want = 1 if oracle_f[i] >= 0 else 2
            if model.predict(X[i]).grade != want:
                mismatches += 1
    ok = worst_gap <= 1e-4 and worst_kkt <= 1e-3 and mismatches == 0
    verdict(4, ok,
            f"{trials} random 2-class problems: max dual gap {worst_gap:.2e} "
            f"(<= 1e-4), max KKT violation {worst_kkt:.2e} (<= 1e-3), "
            f"{mismatches} training-point prediction mismatches")


def test_criterion_05_models_beat_majority(default_matrix, fold_preps,
                                           majority_report):
    matrix, y = default_matrix
    base = majority_report.accuracy
    accs = {}
    for name, spec in [("svm", ModelSpec(kind="svm")),
                       ("linreg", ModelSpec(kind="linreg")),
                       ("tree", ModelSpec(kind="tree")),
                       ("nb", ModelSpec(kind="nb")),
                       ("knn", ModelSpec(kind="knn"))]:
        preds = loocv_matrix(matrix, y, spec, preprocessors=fold_preps)
        accs[name] = accuracy(preds)
    floor_ok = all(a >= base - 0.02 for a in accs.values())
    lift_ok = max(accs.values()) >= base + 0.03
    ok = floor_ok and lift_ok
    listing = ", ".join(f"{k} {v:.3f}" for k, v in accs.items())
    verdict(5, ok,
            f"LOO accuracy vs always-predict-A {base:.3f}: {listing}; "
            f"all >= base-0.02: {floor_ok}, best >= base+0.03: {lift_ok}")


def test_criterion_06_variance_selection_against_oracle():
    rng = np.random.default_rng(606)
    group_pool = ("perf", "subs", "rt", "sess", "score")
    mismatches = 0
    monotonicity_breaks = 0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 9))
        if rng.random() < 0.5:
            values = rng.integers(0, 3, size=(n, d)).astype(float)
        else:
            values = rng.random((n, d))
        groups = tuple(group_pool[g] for g in rng.integers(0, 5, size=d))
        matrix = toy_matrix(values)
        matrix = type(matrix)(matrix.row_ids, matrix.names, groups, values)
        t_perf = float(rng.choice([0.0, 0.02, 0.03, 0.04, rng.random() * 0.3]))
        t_subs = float(rng.choice([0.0, 0.05, 0.07, 0.10, rng.random() * 0.3]))

        kept = variance_mask(matrix.values, matrix.groups, t_perf, t_subs)
        variances = variance_oracle(values)
        for j in range(d):
            if groups[j] == "perf":
                want = variances[j] > t_perf
            elif groups[j] == "subs":
                want = variances[j] > t_subs
            else:
                want = True
            if bool(kept[j]) != want:
                mismatches += 1

        tighter = variance_mask(matrix.values, matrix.groups, t_perf + 0.01, t_subs + 0.01)
        if np.any(tighter & ~kept):
            monotonicity_breaks += 1
    ok = mismatches == 0 and monotonicity_breaks == 0
    verdict(6, ok,
            f"1000 random matrices: {mismatches} column keep/drop mismatches vs "
            f"loop oracle, {monotonicity_breaks} monotonicity violations")


def test_criterion_07_feature_invariants_on_random_cohorts():
    rng = np.random.default_rng(707)
    failures = []
    for case in range(100):
        n = int(rng.integers(3, 13))
        q = int(rng.integers(4, 21))
        cuts = np.sort(rng.integers(0, n + 1, size=4))
        counts = tuple(np.diff(np.concatenate([[0], cuts, [n]])).tolist())
        config = CohortConfig(n_students=n, n_questions=q, grade_counts=counts,
                              seed=int(rng.integers(0, 10_000)))
        events, records = generate_cohort(config)
        dataset = build_dataset(events, records)
        matrix = assemble_feature_matrix(dataset)

        if matrix.values.shape[1] != 2 * q + 13:
            failures.append(f"case {case}: expected {2 * q + 13} columns")
            continue
        perf = matrix.values[:, :q]
        subs = matrix.values[:, q:2 * q]
        if np.any((perf == 1.0) & (subs < 1.0)):
            failures.append(f"case {case}: solved question with no submissions")

        for rec in records:
            student_events = [ev for ev in dataset.events if ev.student_id == rec.student_id]
            n_events = len(student_events)
            n_sessions = 0
            session_events = 0
            for a in range(1, 5):
                sessions = segment_sessions(dataset, rec.student_id, a)
                n_sessions += len(sessions)
                session_events += sum(len(s.events) for s in sessions)
            if session_events != n_events:
                failures.append(f"case {case}: sessions lost events")
            if len(response_times(dataset, rec.student_id)) != n_events - n_sessions:
                failures.append(f"case {case}: response-time count identity broke")
    ok = not failures
    verdict(7, ok, "100 random cohorts: column count 2Q+13, solved=>submitted, "
                   "session and response-time counting identities"
                   + (f"; first failure: {failures[0]}" if failures else ""))


def test_criterion_08_no_leakage_from_held_out_row():
    rng = np.random.default_rng(808)
    fast_specs = [ModelSpec(kind="knn"), ModelSpec(kind="nb"),
                  ModelSpec(kind="tree"), ModelSpec(kind="majority"),
                  ModelSpec(kind="linreg")]
    failures = 0
    for trial in range(50):
        n = 10
        counts = (2, 2, 2, 2, 2)
        config = CohortConfig(n_students=n, n_questions=12, grade_counts=counts,
                              seed=trial)
        events, records = generate_cohort(config)
        dataset = build_dataset(events, records)
        matrix = assemble_feature_matrix(dataset)
        y = np.array([int(rec.final_grade) for rec in dataset.students])

        i = int(rng.integers(0, n))
        mutated_values = matrix.values.copy()
        mutated_values[i] = (mutated_values[i] * rng.uniform(0.5, 2.0)
                             + rng.normal(scale=5.0, size=mutated_values.shape[1]))
        mutated = type(matrix)(matrix.row_ids, matrix.names, matrix.groups,
                               mutated_values)

        spec = fast_specs[trial % len(fast_specs)]
        probe = rng.uniform(0, 100, size=matrix.values.shape[1])
        keep = np.ones(n, dtype=bool)
        keep[i] = False
        fold_spec = ModelSpec(kind=spec.kind, k=spec.k, seed=mix_seed(spec.seed, i))

        outputs = []
        for source in (matrix, mutated):
            prep = prepare_fold_preprocessors(source, (0.02, 0.05), False)[i]
            model = train(fold_spec, prep.transform(source.values[keep]), y[keep])
            outputs.append(model.predict(prep.transform(probe[None, :])[0]))
        same = (outputs[0].grade == outputs[1].grade
                and np.array_equal(outputs[0].class_scores, outputs[1].class_scores))
        failures += not same
    ok = failures == 0
    verdict(8, ok, f"50 held-out-row mutation trials: {failures} changed the "
                   "fold's model output on a fixed probe")


def test_criterion_09_pipeline_byte_determinism(tmp_path, monkeypatch):
    synth_args = ["synth", "--students", "60", "--questions", "32",
                  "--grade-counts", "6,3,6,17,28", "--seed", "5",
                  "--out-dir", "data"]
    extract_args = ["extract", "--submissions", "data/submissions.csv",
                    "--gradebook", "data/gradebook.csv", "--out-dir", "out"]
    eval_args = ["evaluate", "--submissions", "data/submissions.csv",
                 "--gradebook", "data/gradebook.csv", "--out-dir", "out",
                 "--model", "majority,knn,nb,random", "--seed", "5"]
    artifacts = ["data/submissions.csv", "data/gradebook.csv", "out/features.csv",
                 "out/report.md", "out/predictions_majority.csv",
                 "out/predictions_knn.csv", "out/predictions_nb.csv",
                 "out/predictions_random.csv"]

    contents = []
    for run, jobs in (("first", 1), ("repeat", 1), ("threaded", 4)):
        base = tmp_path / run
        base.mkdir()
        monkeypatch.chdir(base)
        assert cli_main(synth_args) == 0
        assert cli_main(extract_args) == 0
        assert cli_main(eval_args + ["--jobs", str(jobs)]) == 0
        contents.append({a: (base / a).read_bytes() for a in artifacts})

    repeat_same = all(contents[0][a] == contents[1][a] for a in artifacts)
    threads_same = all(contents[0][a] == contents[2][a] for a in artifacts)
    ok = repeat_same and threads_same
    verdict(9, ok,
            f"synth->extract->evaluate byte-identical: repeat run {repeat_same}, "
            f"1 vs 4 threads {threads_same} ({len(artifacts)} artifacts compared)")


def test_criterion_10_small_model_oracles():
    rng = np.random.default_rng(1010)
    cases = 200
    mismatches = Counter()
    for _ in range(cases):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        X = rng.integers(0, 4, size=(n, d)).astype(float)
        y = rng.integers(1, 6, size=n)
        k = int(rng.integers(1, 6))
        probes = [X[j] for j in range(n)]
        probes += [rng.integers(0, 4, size=d).astype(float) for _ in range(2)]

        tree = train(ModelSpec(kind="tree"), X, y)
        knn = train(ModelSpec(kind="knn", k=k), X, y)
        nb = train(ModelSpec(kind="nb"), X, y)
        for x in probes:
            if tree.predict(x).grade != tree_oracle_predict(X.tolist(), y.tolist(), x.tolist()):
                mismatches["tree"] += 1
            if knn.predict(x).grade != knn_oracle_predict(X.tolist(), y.tolist(),
                                                          x.tolist(), min(k, n)):
                mismatches["knn"] += 1
            if nb.predict(x).grade != nb_oracle_predict(X.tolist(), y.tolist(), x.tolist()):
                mismatches["nb"] += 1
    ok = not mismatches
    verdict(10, ok,
            f"{cases} random small datasets: tree/knn/nb predictions vs "
            f"brute-force oracles, mismatches {dict(mismatches) or 0}")
