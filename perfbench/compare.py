"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py pairs --base DIR --change DIR --out OUT
    python3 perfbench/compare.py report OUT/base.jsonl OUT/change.jsonl

``pairs`` runs ``perfbench/run.py`` in two checkouts (copy the same
``perfbench/`` into both, so the benchmark code is identical), ten pairs
(seeds 1..10) per workload, alternating which side runs first, and appends each
result to OUT/base.jsonl or OUT/change.jsonl.  Every workload of
BENCHMARK.json runs, for its ``run_seconds``.

``report`` prints, for every workload and end-to-end metric, each side's
median and quartiles, the share of pairs the change won (ties count for
neither), and a verdict:

* ``gain``: the change won at least 9 in 10 pairs and the medians differ by
  more than the base's own quartile spread;
* ``unresolved``: the base's quartile spread, as a share of its median, is
  wider than the metric's bound, and not every change run beat every base run;
* ``regression``: the change's median is worse than the base's by more than
  the bound;
* ``within bound`` otherwise.

Operations that failed are totalled per side; more failures on the change
side voids any gain.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WIN_SHARE = 0.9
PAIRS = 10      # choosing-metrics section 8: at least ten pairs per workload


def _records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _run(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pairs(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    sides = {"base": args.base, "change": args.change}
    for name in names:
        for seed in range(1, PAIRS + 1):
            order = ("base", "change") if seed % 2 else ("change", "base")
            for position, side in enumerate(order):
                result = _run(sides[side], name, seed, seconds)
                record = {"workload": name, "seed": seed, "first": position == 0,
                          "result": result}
                with open(os.path.join(args.out, f"{side}.jsonl"), "a",
                          encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                print(f"{name} seed {seed} {side}: correct {result['correct']}", flush=True)
    return 0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], wins: int, pairs_run: int,
            lower_is_better: bool, bound: float) -> str:
    """The section 8 verdict for one metric on one workload."""
    sign = 1.0 if lower_is_better else -1.0
    b1, bmed, b3 = _quartiles(base)
    cmed = statistics.median(change)
    improvement = sign * (bmed - cmed)
    if pairs_run and wins >= WIN_SHARE * pairs_run and improvement > b3 - b1:
        return "gain"
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if bmed and (b3 - b1) / abs(bmed) > bound and not all_better:
        return "unresolved"
    if -improvement > bound * abs(bmed):
        return "regression"
    return "within bound"


def report(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    base = _records(args.base_file)
    change = _records(args.change_file)
    workloads = list(dict.fromkeys(r["workload"] for r in base + change))
    print(f"{'workload':16s} {'metric':14s} {'base q1/median/q3':>30s} "
          f"{'change q1/median/q3':>30s} {'won':>7s}  verdict")
    for name in workloads:
        b_runs = {r["seed"]: r["result"] for r in base if r["workload"] == name}
        c_runs = {r["seed"]: r["result"] for r in change if r["workload"] == name}
        seeds = sorted(set(b_runs) & set(c_runs))
        if not seeds:
            continue
        b_failed = sum(b_runs[s]["failed"] for s in seeds)
        c_failed = sum(c_runs[s]["failed"] for s in seeds)
        for m in metrics:
            key, lower = m["name"], m["better"] == "lower"
            b = [b_runs[s]["metrics"][key]["value"] for s in seeds]
            c = [c_runs[s]["metrics"][key]["value"] for s in seeds]
            wins = sum(1 for x, y in zip(b, c) if (y < x if lower else y > x))
            result = verdict(b, c, wins, len(seeds), lower, m["bound"])
            if result == "gain" and c_failed > b_failed:
                result = "no gain: more failed operations"
            b1, bmed, b3 = _quartiles(b)
            c1, cmed, c3 = _quartiles(c)
            print(f"{name:16s} {key:14s} {b1:9.4g}/{bmed:9.4g}/{b3:9.4g}  "
                  f"{c1:9.4g}/{cmed:9.4g}/{c3:9.4g}  {wins:3d}/{len(seeds):<3d}  {result}")
        print(f"{name:16s} failed operations: base {b_failed}, change {c_failed}, "
              f"over {len(seeds)} pairs")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two commits' benchmark results")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_pairs = sub.add_parser("pairs", help="run alternating-order pairs")
    p_pairs.add_argument("--base", required=True, help="checkout of the parent commit")
    p_pairs.add_argument("--change", required=True, help="checkout of the change")
    p_pairs.add_argument("--out", required=True, help="directory for base/change.jsonl")
    p_report = sub.add_parser("report", help="print the comparison table")
    p_report.add_argument("base_file")
    p_report.add_argument("change_file")
    args = parser.parse_args(argv)
    return pairs(args) if args.mode == "pairs" else report(args)


if __name__ == "__main__":
    sys.exit(main())
