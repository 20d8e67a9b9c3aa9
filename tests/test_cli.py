import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gradecast
from gradecast.cli import main
from gradecast.ingest import SubmissionEvent, load_dataset
from gradecast.models import tree

COHORT_ARGS = ["--students", "20", "--questions", "16",
               "--grade-counts", "2,2,4,5,7", "--seed", "11"]


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    code = main(["synth", *COHORT_ARGS, "--out-dir", str(out)])
    assert code == 0
    return out


def inputs(cohort_dir):
    return ["--submissions", str(cohort_dir / "submissions.csv"),
            "--gradebook", str(cohort_dir / "gradebook.csv")]


class TestSynth:
    def test_writes_both_files_with_headers(self, cohort_dir, capsys):
        sub = (cohort_dir / "submissions.csv").read_text()
        gb = (cohort_dir / "gradebook.csv").read_text()
        assert sub.startswith("# run-config: {")
        assert gb.startswith("# run-config: {")
        assert '"command": "synth"' in sub.splitlines()[0]

    def test_reports_sizes_on_stdout(self, tmp_path, capsys):
        code = main(["synth", *COHORT_ARGS, "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "20 students, 16 questions" in out

    def test_infeasible_counts_exit_usage(self, tmp_path, capsys):
        code = main(["synth", "--students", "10", "--grade-counts", "1,1,1,1,1",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_runs_as_a_module(self, tmp_path):
        src = str(Path(gradecast.__file__).parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run(
            [sys.executable, "-m", "gradecast", "synth", "--students", "5",
             "--grade-counts", "1,1,1,1,1", "--out-dir", str(tmp_path)],
            env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert "5 students" in done.stdout
        assert (tmp_path / "submissions.csv").exists()
        assert (tmp_path / "gradebook.csv").exists()

    def test_byte_identical_across_directories(self, tmp_path, monkeypatch):
        texts = []
        for name in ("one", "two"):
            base = tmp_path / name
            base.mkdir()
            monkeypatch.chdir(base)
            assert main(["synth", *COHORT_ARGS, "--out-dir", "data"]) == 0
            texts.append((base / "data" / "submissions.csv").read_bytes())
        assert texts[0] == texts[1]


class TestExtract:
    def test_writes_feature_csv(self, cohort_dir, tmp_path, capsys):
        code = main(["extract", *inputs(cohort_dir), "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        # 16 questions -> 2 * 16 + 13 columns.
        assert "20 rows x 45 feature columns" in out
        lines = (tmp_path / "features.csv").read_text().splitlines()
        assert lines[0].startswith("# run-config: {")
        assert lines[1].startswith("student_id,")
        assert len(lines) == 2 + 20

    def test_missing_input_exits_usage(self, cohort_dir, tmp_path, capsys):
        code = main(["extract", "--submissions", "/nonexistent/subs.csv",
                     "--gradebook", str(cohort_dir / "gradebook.csv"),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "/nonexistent/subs.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["submissions.csv", "gradebook.csv"])
    def test_invalid_utf8_exits_usage(self, cohort_dir, tmp_path, capsys, name):
        for each in ("submissions.csv", "gradebook.csv"):
            shutil.copy(cohort_dir / each, tmp_path / each)
        bad = tmp_path / name
        lines = bad.read_bytes().split(b"\n")
        assert lines[2].startswith(b"s")    # line 3: the first data row
        lines[2] = b"s\xff" + lines[2][1:]
        bad.write_bytes(b"\n".join(lines))
        code = main(["extract", *inputs(tmp_path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: line 3: not valid UTF-8 in {bad}\n"

    @pytest.mark.parametrize("flag", ["--submissions", "--gradebook"])
    def test_unreadable_input_exits_usage(self, cohort_dir, tmp_path, capsys, flag):
        args = inputs(cohort_dir)
        args[args.index(flag) + 1] = str(tmp_path)      # a directory
        code = main(["extract", *args, "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot read input: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    def test_inputs_are_required(self, tmp_path, capsys):
        code = main(["extract", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "required" in capsys.readouterr().err

    def test_repair_warnings_one_line_per_kind(self, tmp_path, capsys):
        gb = tmp_path / "gradebook.csv"
        gb.write_text("student_id,hw1,hw2,hw3,hw4,test1,final_grade\n"
                      "s1,90,90,90,90,90,A\ns2,50,50,50,50,50,D\n")
        sub = tmp_path / "submissions.csv"
        header = "student_id,question_id,assignment_id,timestamp,attempt_number,correct\n"
        args = ["extract", "--submissions", str(sub), "--gradebook", str(gb),
                "--out-dir", str(tmp_path)]

        sub.write_text(header + "s1,q1,1,100,1,1\ns1,q1,1,200,2,0\ns1,q1,1,300,3,0\n"
                                "s2,q1,1,100,2,1\n")
        assert main(args) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: 2 submission rows dropped after a correct answer during ingest",
            "warning: 1 submission rows re-numbered during ingest",
        ]

        sub.write_text(header + "s1,q1,1,100,1,1\ns2,q1,1,100,2,1\n")
        assert main(args) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: 1 submission rows re-numbered during ingest",
        ]

    def test_repeat_runs_are_identical(self, cohort_dir, tmp_path):
        args = ["extract", *inputs(cohort_dir), "--out-dir", str(tmp_path)]
        assert main(args) == 0
        first = (tmp_path / "features.csv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "features.csv").read_bytes() == first


class TestEvaluate:
    def test_single_model_artifacts(self, cohort_dir, tmp_path, capsys):
        code = main(["evaluate", *inputs(cohort_dir), "--model", "random",
                     "--seed", "7", "--out-dir", str(tmp_path)])
        assert code == 0
        report = (tmp_path / "report.md").read_text()
        assert report.startswith("<!-- run-config: {")
        assert "| Random |" in report
        assert (tmp_path / "predictions.csv").exists()
        assert "random: accuracy" in capsys.readouterr().out

    def test_repeat_runs_render_same_report(self, cohort_dir, tmp_path):
        args = ["evaluate", *inputs(cohort_dir), "--model", "random",
                "--seed", "7", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        first = (tmp_path / "report.md").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "report.md").read_bytes() == first

    def test_all_models_write_suffixed_predictions(self, cohort_dir, tmp_path):
        code = main(["evaluate", *inputs(cohort_dir), "--model", "all",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        for name in ("svm", "linreg", "tree", "nb", "knn", "random", "majority"):
            assert (tmp_path / f"predictions_{name}.csv").exists()
        assert not (tmp_path / "predictions.csv").exists()
        report = (tmp_path / "report.md").read_text()
        rows = [l for l in report.splitlines() if l.startswith("| ")]
        names = [r.split("|")[1].strip() for r in rows
                 if "Model" not in r and "---" not in r]
        # Two tables, same fixed order in each; svr absent unless requested.
        assert names[:7] == ["SVM", "Lin. Reg", "Decision Tree", "Naive Bayes",
                             "KNN", "Random", "All A"]
        assert "SVR" not in names

    def test_model_failure_writes_partial_report(self, cohort_dir, tmp_path,
                                                 monkeypatch, capsys):
        def broken_tree(grower, without=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(tree.Grower, "tree", broken_tree)
        code = main(["evaluate", *inputs(cohort_dir), "--model", "tree,majority",
                     "--out-dir", str(tmp_path)])
        assert code == 3
        report = (tmp_path / "report.md").read_text()
        assert "## Failed models" in report
        assert "- tree: RuntimeError: boom" in report
        assert "| All A |" in report
        assert (tmp_path / "predictions_majority.csv").exists()
        assert not (tmp_path / "predictions_tree.csv").exists()
        assert "tree: failed" in capsys.readouterr().err

    def test_unknown_model_rejected_by_parser(self, cohort_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", *inputs(cohort_dir), "--model", "mlp",
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_malformed_thresholds_rejected(self, cohort_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", *inputs(cohort_dir), "--thresholds", "0.02",
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_header_omits_thread_count(self, cohort_dir, tmp_path):
        code = main(["evaluate", *inputs(cohort_dir), "--model", "majority",
                     "--jobs", "3", "--out-dir", str(tmp_path)])
        assert code == 0
        header = (tmp_path / "report.md").read_text().splitlines()[0]
        assert '"jobs"' not in header
        assert '"command": "evaluate"' in header

    def test_evaluate_does_not_import_numpy_ma(self, cohort_dir, tmp_path):
        # numpy 2's np.unique without return_* arguments imports numpy.ma, a
        # cost of milliseconds paid by every process that calls it.
        script = (
            "import sys, numpy\n"
            "if 'numpy.ma' in sys.modules: sys.exit(77)\n"
            "from gradecast.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "sys.exit(code or ('numpy.ma' in sys.modules and 'numpy.ma was imported'))\n")
        src = str(Path(gradecast.__file__).parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run(
            [sys.executable, "-c", script, "evaluate", *inputs(cohort_dir), "--model", "all",
             "--out-dir", str(tmp_path)], env=env, capture_output=True, text=True)
        if done.returncode == 77:
            pytest.skip("importing numpy alone loads numpy.ma")
        assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key, value, model, message", [
    ("k", "0", "knn", "knn: k must be at least 1, got 0"),
    ("C", "0", "svm", "svm: C must be positive, got 0.0"),
    ("C", "-1", "svr", "svr: C must be positive, got -1.0"),
    ("epsilon", "-1", "svr", "svr: epsilon must be non-negative, got -1.0"),
], ids=["k-0", "C-0", "C-negative", "epsilon-negative"])
@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_bad_hyperparameter_exits_usage(cohort_dir, tmp_path, capsys, command, key, value,
                                        model, message, source):
    if source == "flag":
        extra = [f"--{key}", value]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key.lower(): json.loads(value)}))
        extra = ["--config", str(cfg)]
    code = main([command, *inputs(cohort_dir), "--model", model, *extra,
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["synth", "extract", "evaluate", "sweep"])
def test_out_dir_that_cannot_be_created_exits_usage(cohort_dir, tmp_path, capsys,
                                                    command, under):
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    out = taken / "out" if under else taken
    args = {"synth": COHORT_ARGS,
            "extract": inputs(cohort_dir),
            "evaluate": [*inputs(cohort_dir), "--model", "majority"],
            "sweep": [*inputs(cohort_dir), "--model", "majority"]}[command]
    code = main([command, *args, "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert str(out) in err
    assert taken.read_text() == "a file\n"


class TestColumnarPath:
    def test_extract_and_evaluate_build_no_event_objects(self, cohort_dir, tmp_path,
                                                         monkeypatch):
        built = []
        init = SubmissionEvent.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SubmissionEvent, "__init__", counting_init)
        assert main(["extract", *inputs(cohort_dir), "--out-dir", str(tmp_path)]) == 0
        assert main(["evaluate", *inputs(cohort_dir), "--model", "all",
                     "--out-dir", str(tmp_path)]) == 0
        assert built == []
        dataset, _ = load_dataset(cohort_dir / "submissions.csv", cohort_dir / "gradebook.csv")
        assert len(dataset.events) == len(built) > 0     # the count sees lazy events


class TestConfigFile:
    def test_config_supplies_defaults(self, cohort_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "majority", "seed": 3}))
        code = main(["evaluate", *inputs(cohort_dir), "--config", str(cfg),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = (tmp_path / "report.md").read_text()
        assert "| All A |" in report
        assert "| Random |" not in report
        assert '"seed": 3' in report.splitlines()[0]

    def test_flag_beats_config(self, cohort_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "majority"}))
        code = main(["evaluate", *inputs(cohort_dir), "--config", str(cfg),
                     "--model", "random", "--out-dir", str(tmp_path)])
        assert code == 0
        report = (tmp_path / "report.md").read_text()
        assert "| Random |" in report
        assert "| All A |" not in report

    def test_unreadable_config_exits_usage(self, cohort_dir, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code = main(["evaluate", *inputs(cohort_dir), "--config", str(cfg),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_not_utf8_exits_usage(self, cohort_dir, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(b'{"model": "caf\xe9"}')
        code = main(["evaluate", *inputs(cohort_dir), "--config", str(cfg),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config {cfg}: ")

    def test_non_object_config_exits_usage(self, cohort_dir, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        code = main(["evaluate", *inputs(cohort_dir), "--config", str(cfg),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        ({"jobs": "two"}, "config key 'jobs': invalid literal for int() with base 10: 'two'"),
        ({"seed": "abc"}, "config key 'seed': invalid literal for int() with base 10: 'abc'"),
        ({"seed": 1.9}, "config key 'seed': invalid literal for int() with base 10: '1.9'"),
        ({"thresholds": ["a", "b"]},
         "config key 'thresholds': could not convert string to float: 'a'"),
        ({"model": 5}, "config key 'model': unknown model '5'; choose from svm, linreg, svr, "
                       "tree, nb, knn, random, majority, all"),
        ({"normalize": "false"}, "config key 'normalize': expected true or false, got 'false'"),
        ({"out_dir": 5}, "config key 'out_dir': expected a string, got 5"),
    ], ids=["jobs", "seed", "seed-float", "thresholds", "model", "normalize", "out_dir"])
    def test_bad_config_value_exits_usage(self, cohort_dir, tmp_path, capsys, monkeypatch,
                                          config, message):
        monkeypatch.chdir(tmp_path)                     # the default out_dir
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "majority", **config}))
        code = main(["evaluate", *inputs(cohort_dir), "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_header_records_converted_config_values(self, cohort_dir, tmp_path):
        """A config value is recorded as the flag that gives it would be, and
        gives the flag's artifacts."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "knn", "thresholds": "0.02,0.05",
                                   "normalize": False}))
        runs = {"config": ["--config", str(cfg)],
                "flags": ["--model", "knn", "--thresholds", "0.02,0.05"]}
        for name, extra in runs.items():
            assert main(["evaluate", *inputs(cohort_dir), *extra,
                         "--out-dir", str(tmp_path / name)]) == 0
        header = json.loads((tmp_path / "config" / "report.md").read_text()
                            .splitlines()[0].removeprefix("<!-- run-config: ")
                            .removesuffix(" -->"))
        assert (header["model"], header["thresholds"], header["normalize"]) == (
            ["knn"], [0.02, 0.05], False)
        assert ((tmp_path / "config" / "predictions.csv").read_bytes().split(b"\n", 1)[1]
                == (tmp_path / "flags" / "predictions.csv").read_bytes().split(b"\n", 1)[1])


class TestJobs:
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("jobs", [0, -1])
    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_jobs_below_one_exits_usage(self, cohort_dir, tmp_path, capsys,
                                        command, jobs, source):
        if source == "flag":
            extra = ["--jobs", str(jobs)]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"jobs": jobs}))
            extra = ["--config", str(cfg)]
        out = tmp_path / "out"
        code = main([command, *inputs(cohort_dir), "--model", "knn", *extra,
                     "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: jobs must be at least 1, got {jobs}\n"
        assert not out.exists()


class TestSweep:
    def test_sweep_artifacts_and_winner(self, cohort_dir, tmp_path, capsys):
        code = main(["sweep", *inputs(cohort_dir), "--model", "majority",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        out_lines = [l for l in capsys.readouterr().out.splitlines()
                     if l.startswith("t_perf=")]
        assert len(out_lines) == 4
        assert sum(l.endswith("*") for l in out_lines) == 1

        sweep_lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert sweep_lines[0].startswith("# run-config: {")
        assert sweep_lines[1] == "t_perf,t_subs,accuracy,winner"
        assert len(sweep_lines) == 6
        assert sum(l.endswith(",1") for l in sweep_lines[2:]) == 1

        mask = json.loads((tmp_path / "mask.json").read_text())
        assert set(mask) == {"t_perf", "t_subs", "kept"}
        assert all(isinstance(name, str) for name in mask["kept"])

    @pytest.mark.parametrize("flag", [["--thresholds", "9,9"], ["--global-prep"]],
                             ids=["thresholds", "global-prep"])
    def test_evaluate_only_flags_rejected(self, cohort_dir, tmp_path, flag, capsys):
        # The sweep picks its own thresholds and prepares every fold on its rows.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *inputs(cohort_dir), "--model", "knn", *flag,
                  "--out-dir", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_takes_one_model(self, cohort_dir, tmp_path, capsys):
        code = main(["sweep", *inputs(cohort_dir), "--model", "all",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "exactly one model" in capsys.readouterr().err

    def test_sweep_is_deterministic(self, cohort_dir, tmp_path):
        args = ["sweep", *inputs(cohort_dir), "--model", "knn",
                "--out-dir", str(tmp_path)]
        assert main(args) == 0
        first = (tmp_path / "sweep.csv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == first

    @pytest.mark.parametrize("extra", [[], ["--normalize"]], ids=["raw", "normalized"])
    @pytest.mark.parametrize("model", ["svm", "tree"])
    def test_sweep_artifacts_do_not_depend_on_jobs(self, cohort_dir, tmp_path, model, extra):
        artifacts = []
        for jobs in (1, 4):
            out = tmp_path / f"jobs{jobs}"
            assert main(["sweep", *inputs(cohort_dir), "--model", model, *extra,
                         "--jobs", str(jobs), "--out-dir", str(out)]) == 0
            artifacts.append({"sweep.csv": (out / "sweep.csv").read_bytes().split(b"\n", 1)[1],
                              "mask.json": (out / "mask.json").read_bytes()})
        assert sorted(f.name for f in out.iterdir()) == ["mask.json", "sweep.csv"]
        assert artifacts[0] == artifacts[1]
