"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gradecast import cli, features, ingest, selection  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_LOO = workloads.Workload("tiny-loo", "loo", 20, 12, 1,
                              ("evaluate", "--model", "knn,majority,svm"),
                              ("knn", "majority", "svm"))
TINY_INGEST = workloads.Workload("tiny-ingest", "ingest", 30, 16, 1, ("extract",), ())


def _files(directory: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", [TINY_LOO, TINY_INGEST], ids=lambda w: w.family)
def test_inputs_depend_only_on_seed(tmp_path, workload):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        workloads.write_inputs(workload, seed, 0, str(tmp_path / name))
    a, b, c = (_files(str(tmp_path / name)) for name in "abc")
    assert a == b
    assert a["submissions.csv"] != c["submissions.csv"]


def test_cohorts_of_a_run_differ():
    seeds = {workloads.cohort_seed(42, "loo", i) for i in range(10)}
    seeds |= {workloads.cohort_seed(43, "loo", i) for i in range(10)}
    assert len(seeds) == 20


def test_grade_counts_scale_the_default_distribution():
    assert workloads.grade_counts(249) == workloads.DEFAULT_GRADE_COUNTS
    for n in (20, 40, 300, 1000):
        assert sum(workloads.grade_counts(n)) == n


def test_injected_rows_are_exactly_the_rows_ingest_repairs(tmp_path, capsys):
    cohort = str(tmp_path / "cohort")
    injected, clean = workloads.write_inputs(TINY_INGEST, 3, 0, cohort)
    assert injected > 0
    _, repaired = ingest.parse_submissions(os.path.join(cohort, "submissions.csv"))
    assert repaired == injected

    expected = str(tmp_path / "expected.csv")
    workloads.write_expected_features(clean, expected)
    out = str(tmp_path / "out")
    code = cli.main(TINY_INGEST.argv(cohort, out))
    assert checks.check_extract(out, expected, TINY_INGEST.students, TINY_INGEST.questions,
                                injected, capsys.readouterr().err, code) == []
    assert checks.check_extract(out, expected, TINY_INGEST.students, TINY_INGEST.questions,
                                injected + 1, "", code) != []


def test_repair_count_sums_warning_lines():
    assert checks.repair_count("warning: 17 submission rows re-numbered during ingest\n") == 17
    assert checks.repair_count("warning: 3 rows dropped\nwarning: 4 rows re-numbered\n") == 7
    assert checks.repair_count("svm: accuracy 90.0%\n") == 0


def test_metric_names_are_well_formed_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    produced = [*tracing.layer_metrics([], []), "trace.run_s", "trace.overhead_s"]
    for name in listed + produced + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    assert len(set(listed)) == len(listed)
    assert [m["name"] for m in spec["per_layer"]] == produced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_hooks_wrap_every_call_site_and_restore_the_originals():
    original = features.assemble_feature_matrix
    transform = selection.Preprocessor.transform
    restore, absent = tracing.install(tracing.Tracer("t"))
    try:
        assert absent == {}
        assert features.assemble_feature_matrix is not original
        assert cli.assemble_feature_matrix is features.assemble_feature_matrix
    finally:
        restore()
    assert features.assemble_feature_matrix is original
    assert cli.assemble_feature_matrix is original
    assert selection.Preprocessor.transform is transform


def test_missing_hook_target_is_reported_absent():
    hooks = (tracing.Hook("gradecast.features:no_such_function", "features.perf",
                          feeds=("features.perf_s",)),
             tracing.Hook("gradecast.no_such_module:f", "x"),
             tracing.Hook("gradecast.models.svm:PairwiseSvm.no_such_method", "y"))
    restore, absent = tracing.install(tracing.Tracer("t"), hooks)
    restore()
    assert set(absent) == {h.target for h in hooks}
    metrics = tracing.layer_metrics([], [])
    assert set(tracing.absent_metrics(metrics, absent, hooks)) == {"features.perf_s"}


def _traced_evaluate(cohort: str, out: str, run_id: str) -> list[tracing.Span]:
    tracer = tracing.Tracer(run_id)
    restore, _ = tracing.install(tracer)
    try:
        assert cli.main(TINY_LOO.argv(cohort, out)) == 0
    finally:
        restore()
    return tracer.spans


def test_traced_counts_repeat_exactly(tmp_path):
    cohort = str(tmp_path / "cohort")
    workloads.write_inputs(TINY_LOO, 1, 0, cohort)
    runs = [tracing.layer_metrics([], _traced_evaluate(cohort, str(tmp_path / f"o{i}"), "r"))
            for i in range(2)]
    counts = ("models.svm.smo_calls", "models.svm.smo_passes", "selection.distinct_masks",
              "selection.fits", "ingest.rows_read", "models.svm.support_vectors")
    assert runs[0]["models.svm.smo_calls"] > 0
    assert runs[0]["selection.fits"] == TINY_LOO.students
    assert {k: runs[0][k] for k in counts} == {k: runs[1][k] for k in counts}
    # Every span of a fold has the LOO call as an ancestor, so busy time fits in it.
    assert 0 < runs[0]["evaluation.pool_utilization"] <= 1


def test_self_time_subtracts_the_union_of_children():
    parent = tracing.Span(1, "p", 0.0, 10.0, None, "r")
    children = [tracing.Span(2, "c", 1.0, 4.0, 1, "r"), tracing.Span(3, "c", 3.0, 5.0, 1, "r"),
                tracing.Span(4, "c", 8.0, 12.0, 1, "r")]
    assert tracing.self_time(parent, children) == pytest.approx(10.0 - 4.0 - 2.0)


def test_output_check_fails_on_corrupted_predictions(tmp_path):
    cohort = str(tmp_path / "cohort")
    workloads.write_inputs(TINY_LOO, 2, 0, cohort)
    out = str(tmp_path / "out")
    assert cli.main(TINY_LOO.argv(cohort, out)) == 0
    problems, tally = checks.check_loo(cohort, out, TINY_LOO.models, 0)
    assert problems == []
    assert tally.students == TINY_LOO.students

    path = checks.prediction_file(out, "knn", len(TINY_LOO.models))
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    corruptions = {
        "dropped row": lines[:-1],
        "duplicated row": lines + lines[-1:],
        "wrong true grade": lines[:-1] + [re.sub(r",[A-F],", ",X,", lines[-1], count=1)],
    }
    for label, corrupted in corruptions.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(corrupted)
        problems, _ = checks.check_loo(cohort, out, TINY_LOO.models, 0)
        assert problems, label
    assert checks.check_loo(cohort, str(tmp_path / "missing"), TINY_LOO.models, 0)[0]
    assert checks.check_loo(cohort, out, TINY_LOO.models, 3)[0]


def test_floors_fail_a_model_below_the_majority_baseline():
    tally = checks.Tally(students=100, majority=50, correct={"svm": 60, "nb": 47})
    assert checks.check_floors(tally) == ["nb accuracy 0.470 below majority 0.500 - 0.02"]
    tally.correct["nb"] = 49
    assert checks.check_floors(tally) == []
    tally.correct["svm"] = 52
    assert checks.check_floors(tally) != []


def test_loo_majority_ties_go_to_the_higher_grade():
    # Holding out an A leaves one A and one B: the tie predicts A.
    assert checks.loo_majority_correct([5, 5, 4]) == 2


def test_a_dead_command_process_fails_all_its_operations(tmp_path, monkeypatch):
    def killed(args):
        return run.subprocess.CompletedProcess(args, -9, "", "Killed\n")

    monkeypatch.setattr(run, "_worker", killed)
    runner = run.Runner(TINY_LOO, str(tmp_path))
    cohort = {"dir": str(tmp_path / "cohort0")}
    wall, measured = runner.command(cohort)
    assert measured is None and wall >= 0
    assert runner.attempted == runner.failed == TINY_LOO.operations()
    assert runner.problems == ["cohort0: process exited -9: Killed"]
