"""Child process of the benchmark: writes a workload's inputs, or runs one command.

    python3 perfbench/worker.py setup --workload W --seed N --index I --dir DIR
                                      [--trace FILE]
    python3 perfbench/worker.py run --workload W --cohort DIR --out DIR --result FILE
                                    [--trace FILE --run-id ID]

``setup`` writes cohort I of the workload into DIR, timing it, and records
the result in DIR/setup.json.  ``run`` calls ``gradecast.cli.main``
once and records its wall time, CPU time and peak memory in the result file.
With ``--trace`` the hooks of ``tracing`` are installed first and the spans
are written to FILE when the process ends.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _write_spans(path: str, tracer: tracing.Tracer, absent: dict[str, str]) -> None:
    _write_json(path, {"spans": [dataclasses.asdict(s) for s in tracer.spans],
                       "absent": absent})


def setup(args) -> int:
    import gradecast.synth  # noqa: F401  imported before the clock starts

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(f"setup{args.index}")
        restore, absent = tracing.install(tracer)
    start = time.perf_counter()
    injected, clean = workloads.write_inputs(workload, args.seed, args.index, args.dir)
    seconds = time.perf_counter() - start
    if tracer is not None:
        restore()
        _write_spans(args.trace, tracer, absent)
    cohort = {"dir": args.dir, "setup_s": seconds, "injected": injected}
    if clean is not None:
        cohort["expected"] = os.path.join(args.dir, "expected_features.csv")
        workloads.write_expected_features(clean, cohort["expected"])
    _write_json(os.path.join(args.dir, "setup.json"), cohort)
    return 0


def run(args) -> int:
    from gradecast import cli

    workload = workloads.WORKLOADS[args.workload]
    argv = workload.argv(args.cohort, args.out)
    main = cli.main
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.run_id)
        restore, absent = tracing.install(tracer)
        main = tracer.wrap("cli.main", cli.main)
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    seconds = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        restore()
        _write_spans(args.trace, tracer, absent)
    cpu = sum(getattr(after, f) - getattr(before, f)
              for before, after in ((self0, self1), (kids0, kids1))
              for f in ("ru_utime", "ru_stime"))
    peak_kib = max(self1.ru_maxrss, kids1.ru_maxrss)     # KiB on Linux
    _write_json(args.result, {"exit": code, "run_s": seconds, "run_cpu_s": cpu,
                              "peak_rss_mb": peak_kib / 1024.0})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p_setup.add_argument("--seed", type=int, required=True)
    p_setup.add_argument("--index", type=int, required=True)
    p_setup.add_argument("--dir", required=True)
    p_setup.add_argument("--trace")
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p_run.add_argument("--cohort", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--result", required=True)
    p_run.add_argument("--trace")
    p_run.add_argument("--run-id", default="run")
    args = parser.parse_args(argv)
    return setup(args) if args.mode == "setup" else run(args)


if __name__ == "__main__":
    sys.exit(main())
