"""gradecast benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload loo-raw --seed 42 --trace 0 [--seconds N]

Run from anywhere; the program measured is the ``src/gradecast`` beside this
directory.  The run writes its inputs under ``.perfbench_work/`` at the root
of the checkout and removes them at the end.

With ``--trace 0`` each cohort is written by its own process (timed:
``setup_s``), then the workload's command runs on it in a fresh process with
tracing off.  Commands cycle over the cohorts while another whole command
still fits in ``--seconds`` of command time (default: ``run_seconds`` of
BENCHMARK.json).  Every command's outputs are checked; a command whose
process fails counts all of its operations as failed.  A metric is the
median over cohorts of each cohort's median.

With ``--trace 1`` every cohort runs once untraced and once with the hooks of
``tracing.py`` installed; the per-layer metrics come from the traced spans,
and the tracing overhead is the traced minus the untraced run time.  The
spans are kept in ``.perfbench_work/traces/<workload>-seed<seed>.jsonl``.

The last line of standard output is the JSON result:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT_S = 150
END_TO_END = ("setup_s", "run_s", "run_cpu_s", "peak_rss_mb")


class BenchmarkError(RuntimeError):
    """The benchmark could not measure at all (set-up failed, or no command ran)."""


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric_specs(kind: str) -> dict[str, dict]:
    """Name -> spec of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    return {m["name"]: m for m in benchmark_spec()[kind]}


# One BLAS thread per process: --jobs is then the only parallelism, and
# small-matrix BLAS calls do not contend for the two CPUs of a small host.
_CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _worker(args: list[str]) -> subprocess.CompletedProcess:
    try:
        return subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                              cwd=ROOT, env=_CHILD_ENV, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has already killed and reaped the child.
        return subprocess.CompletedProcess(exc.cmd, -9, "", f"timed out after {exc.timeout} s")


def _setup(workload, seed: int, index: int, run_dir: str,
           trace_path: str | None = None) -> dict:
    """Write cohort ``index`` in its own process; returns what setup.json records."""
    cohort_dir = os.path.join(run_dir, f"cohort{index}")
    args = ["setup", "--workload", workload.name, "--seed", str(seed),
            "--index", str(index), "--dir", cohort_dir]
    if trace_path:
        args += ["--trace", trace_path]
    proc = _worker(args)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up failed:\n{proc.stderr}")
    with open(os.path.join(cohort_dir, "setup.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Runner:
    """Runs and checks commands of one workload, counting operations."""

    def __init__(self, workload, run_dir: str):
        self.workload = workload
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tally = checks.Tally()
        self._count = 0

    def command(self, cohort: dict,
                trace_path: str | None = None) -> tuple[float, dict | None]:
        """One command on one cohort: (wall time of the process, its measurement).

        The measurement is None when the process failed (timeout, signal,
        crash, no result); its operations then count as failed.
        """
        self._count += 1
        out_dir = os.path.join(cohort["dir"], "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        result_path = os.path.join(self.run_dir, f"result{self._count}.json")
        args = ["run", "--workload", self.workload.name, "--cohort", cohort["dir"],
                "--out", out_dir, "--result", result_path]
        if trace_path:
            args += ["--trace", trace_path, "--run-id", f"run{self._count}"]
        start = time.monotonic()
        proc = _worker(args)
        wall = time.monotonic() - start
        if proc.returncode != 0 or not os.path.isfile(result_path):
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            self._record([f"process exited {proc.returncode}: {tail[0]}"], cohort)
            return wall, None
        with open(result_path, encoding="utf-8") as fh:
            measured = json.load(fh)
        self._check(cohort, out_dir, measured["exit"], proc.stderr)
        return wall, measured

    def _check(self, cohort: dict, out_dir: str, exit_code: int, stderr: str) -> None:
        w = self.workload
        if w.models:
            problems, tally = checks.check_loo(cohort["dir"], out_dir, w.models, exit_code)
            self.tally.add(tally)
        else:
            problems = checks.check_extract(out_dir, cohort["expected"], w.students,
                                            w.questions, cohort["injected"], stderr, exit_code)
        self._record(problems, cohort)

    def _record(self, problems: list[str], cohort: dict) -> None:
        """Count one command's operations, all failed if it has problems."""
        self.attempted += self.workload.operations()
        if problems:
            self.failed += self.workload.operations()
            self.problems += [f"{os.path.basename(cohort['dir'])}: {p}" for p in problems]

    def finish(self) -> None:
        """Pooled checks; a failure there fails every operation of the run."""
        problems = checks.check_floors(self.tally) if self.workload.models else []
        if problems:
            self.failed = self.attempted
            self.problems += [f"pooled over all commands: {p}" for p in problems]

    def accuracy_mean(self) -> float | None:
        scored = self.tally.scored_accuracies()
        return statistics.fmean(scored.values()) if scored else None


def measure(workload, seed: int, seconds: float, run_dir: str):
    """Untraced run: returns (runner, end-to-end metrics).

    Each cohort is set up just before its first command, so set-up and
    command samples are spread over the same stretch of time.  ``seconds``
    budgets the command processes only.
    """
    runner = Runner(workload, run_dir)
    cohorts: list[dict] = []
    samples: list[list[dict]] = [[] for _ in range(workload.cohorts)]
    last_wall = [0.0] * workload.cohorts
    spent = 0.0
    done = 0
    while True:
        index = done % workload.cohorts
        if done < workload.cohorts:
            cohorts.append(_setup(workload, seed, index, run_dir))
        elif spent + last_wall[index] > seconds:
            break
        last_wall[index], measured = runner.command(cohorts[index])
        if measured is not None:
            samples[index].append(measured)
        spent += last_wall[index]
        done += 1
    runner.finish()
    samples = [runs for runs in samples if runs]
    if not samples:
        raise BenchmarkError("no command completed:\n" + "\n".join(runner.problems[:5]))

    def over_cohorts(key: str) -> float:
        return statistics.median(statistics.median(s[key] for s in runs) for runs in samples)

    metrics = {"setup_s": statistics.median(c["setup_s"] for c in cohorts)}
    for key in END_TO_END[1:]:
        metrics[key] = over_cohorts(key)
    return runner, metrics


def measure_traced(workload, seed: int, run_dir: str):
    """Traced run: returns (runner, per-layer metrics, absent metrics)."""
    runner = Runner(workload, run_dir)
    untraced = traced = 0.0
    setup_files, run_files = [], []
    for index in range(workload.cohorts):
        setup_files.append(os.path.join(run_dir, f"setup-spans{index}.json"))
        cohort = _setup(workload, seed, index, run_dir, setup_files[-1])
        spans_path = os.path.join(run_dir, f"spans{index}.json")
        _, plain = runner.command(cohort)
        _, with_hooks = runner.command(cohort, spans_path)
        if plain is not None and with_hooks is not None:
            untraced += plain["run_s"]
            traced += with_hooks["run_s"]
            run_files.append(spans_path)
    runner.finish()
    if not run_files:
        raise BenchmarkError("no cohort completed both runs:\n"
                             + "\n".join(runner.problems[:5]))

    absent: dict[str, str] = {}

    def load(paths: list[str]) -> list[tracing.Span]:
        spans = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            absent.update(payload["absent"])
            spans += [tracing.Span(**s) for s in payload["spans"]]
        return spans

    setup_spans, run_spans = load(setup_files), load(run_files)
    _keep_trace(workload, seed, setup_spans + run_spans)
    metrics = tracing.layer_metrics(setup_spans, run_spans)
    metrics["trace.run_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    return runner, metrics, tracing.absent_metrics(metrics, absent)


def _keep_trace(workload, seed: int, spans) -> None:
    trace_dir = os.path.join(WORK_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    with open(os.path.join(trace_dir, f"{workload.name}-seed{seed}.jsonl"), "w",
              encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def _report(specs: dict[str, dict], metrics: dict[str, float],
            absent: dict[str, str]) -> dict[str, dict]:
    """Print one line per metric; return the result's ``metrics`` object."""
    out = {}
    for name, spec in specs.items():
        if name in absent:
            print(f"  {name:40s} absent: {absent[name]}")
            continue
        value = metrics[name]
        print(f"  {name:40s} {value:>16.6f} {spec['unit']}")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gradecast benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="time budget for repeating commands (untraced runs); "
                             "default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gradecast", "__init__.py")):
        print(f"error: no gradecast sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
    run_dir = os.path.join(WORK_ROOT, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        if args.trace:
            runner, metrics, absent = measure_traced(workload, args.seed, run_dir)
            specs = metric_specs("per_layer")
        else:
            runner, metrics = measure(workload, args.seed, seconds, run_dir)
            absent = {}
            specs = metric_specs("end_to_end")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{workload.name} seed {args.seed}: {workload.cohorts} cohorts of "
          f"{workload.students} students x {workload.questions} questions, "
          f"trace {args.trace}")
    result_metrics = _report(specs, metrics, absent)
    print(f"  {'fail_ratio':40s} {runner.failed / runner.attempted:>16.6f} ratio "
          f"({runner.failed} of {runner.attempted} operations)")
    if runner.accuracy_mean() is not None:
        print(f"  {'loo_accuracy_mean':40s} {runner.accuracy_mean():>16.6f} fraction")
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
