"""Command-line front end: synth, extract, evaluate, sweep.

Exit codes: 0 all requested work completed; 2 argument or input-parsing
failure, or an output that cannot be written; 3 a model failed during
evaluation (partial results are still written).  Warnings go to stderr.
Every CSV artifact starts with a ``# run-config:`` comment and
report.md with an HTML comment carrying the resolved settings, so any
output is reproducible from its own header.  The header omits the thread
count, which cannot affect results.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import evaluation, selection
from .features import assemble_feature_matrix, write_features_csv
from .ingest import IngestError, load_dataset
from .models import KINDS, ModelSpec
from .synth import CohortConfig, InfeasibleConfig, write_cohort

MODEL_CHOICES = (*KINDS, "all")
# "all" expands to the standard comparison set; svr stays opt-in.
ALL_MODELS = tuple(kind for kind in KINDS if kind != "svr")
# The hyperparameters each model takes; the others keep ModelSpec's defaults.
_HYPERPARAMETERS = {"svm": ("C",), "svr": ("C", "epsilon"), "knn": ("k",)}

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MODEL_FAILURE = 3

_UNSET = None


def _thresholds_arg(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated numbers, e.g. 0.02,0.05")
    try:
        thresholds = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    # No variance exceeds NaN or infinity, and JSON has no such numbers.
    if not all(math.isfinite(t) for t in thresholds):
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}")
    return thresholds


def _finite_float_arg(text: str) -> float:
    """A float flag's value; NaN and infinities, which no setting takes and
    JSON cannot hold, are rejected."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _grade_counts_arg(text: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if len(counts) != 5:
        raise argparse.ArgumentTypeError("expected five comma-separated counts (F,D,C,B,A)")
    return counts


def _models_arg(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise argparse.ArgumentTypeError("no model named")
    for name in names:
        if name not in MODEL_CHOICES:
            raise argparse.ArgumentTypeError(
                f"unknown model {name!r}; choose from {', '.join(MODEL_CHOICES)}")
    expanded: list[str] = []
    for name in names:
        for resolved in (ALL_MODELS if name == "all" else (name,)):
            if resolved not in expanded:
                expanded.append(resolved)
    return tuple(expanded)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradecast",
        description="Predict final course grades from early homework submission logs.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=_UNSET,
                        help="master seed (default 0)")
    common.add_argument("--config", help="JSON file with the same keys as the flags; "
                                         "explicit flags take precedence")
    common.add_argument("--out-dir", default=_UNSET, help="output directory (default .)")

    p_synth = sub.add_parser("synth", parents=[common],
                             help="generate a synthetic cohort")
    p_synth.add_argument("--students", type=int, default=_UNSET)
    p_synth.add_argument("--questions", type=int, default=_UNSET)
    p_synth.add_argument("--boolean-fraction", type=_finite_float_arg, default=_UNSET)
    p_synth.add_argument("--ability-spread", type=_finite_float_arg, default=_UNSET)
    p_synth.add_argument("--difficulty-spread", type=_finite_float_arg, default=_UNSET)
    p_synth.add_argument("--grade-counts", type=_grade_counts_arg, default=_UNSET,
                         help="five comma-separated counts for F,D,C,B,A")

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--submissions", default=_UNSET, help="submission log CSV")
    inputs.add_argument("--gradebook", default=_UNSET, help="gradebook CSV")

    p_extract = sub.add_parser("extract", parents=[common, inputs],
                               help="write the feature matrix as features.csv")

    hyper = argparse.ArgumentParser(add_help=False)
    hyper.add_argument("--C", dest="c", type=_finite_float_arg, default=_UNSET,
                       help="SVM / SVR box constraint (default 1.0)")
    hyper.add_argument("--k", type=int, default=_UNSET, help="KNN neighbours (default 5)")
    hyper.add_argument("--epsilon", type=_finite_float_arg, default=_UNSET,
                       help="SVR insensitive-tube width (default 0.1)")
    hyper.add_argument("--normalize", action="store_true", default=_UNSET,
                       help="min-max normalize kept columns per fold")
    hyper.add_argument("--jobs", type=int, default=_UNSET,
                       help="worker threads for the per-fold steps of linreg, "
                            "nb and knn, which predict every fold from their "
                            "transform group's shared work; the SVM, SVR, tree "
                            "and baselines run every fold on the calling "
                            "thread (default 1)")

    p_eval = sub.add_parser("evaluate", parents=[common, inputs, hyper],
                            help="leave-one-out evaluation -> report.md + predictions")
    p_eval.add_argument("--model", type=_models_arg, default=_UNSET,
                        help="comma-separated subset of "
                             f"{', '.join(MODEL_CHOICES)} (default all)")
    # sweep picks its own thresholds and always prepares each fold on its rows.
    p_eval.add_argument("--thresholds", type=_thresholds_arg, default=_UNSET,
                        help="variance cutoffs t_perf,t_subs (default 0.02,0.05)")
    p_eval.add_argument("--global-prep", action="store_true", default=_UNSET,
                        help="fit selection/normalization once on all rows "
                             "instead of per fold")

    p_sweep = sub.add_parser("sweep", parents=[common, inputs, hyper],
                             help="variance-threshold sweep for one model")
    p_sweep.add_argument("--model", type=_models_arg, default=_UNSET,
                         help="single model to sweep (default svm)")

    return parser


class _Settings:
    """Flag > config file > built-in default, recording resolved values."""

    def __init__(self, args: argparse.Namespace):
        self.config = {}
        if getattr(args, "config", None):
            try:
                with open(args.config, encoding="utf-8") as fh:
                    self.config = json.load(fh)
            except (OSError, ValueError) as exc:    # ValueError: not UTF-8 or not JSON
                raise UsageError(f"cannot read config {args.config}: {exc}") from exc
            if not isinstance(self.config, dict):
                raise UsageError(f"config {args.config} must hold a JSON object")
        self.args = args
        self.resolved: dict[str, object] = {}

    def get(self, key: str, default, convert):
        """The flag's value, else the config's converted by ``convert``, else ``default``.

        Flags arrive converted by argparse; a config value that ``convert``
        rejects is a UsageError naming the key.
        """
        value = getattr(self.args, key, None)
        if value is None and key in self.config:
            try:
                value = convert(self.config[key])
            except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"config key {key!r}: {exc}") from None
        elif value is None:
            value = default
        self.resolved[key] = value
        return value

    def header(self, command: str) -> str:
        payload = dict(self.resolved)
        payload.pop("jobs", None)
        payload["command"] = command
        # Strict JSON: a non-finite value raises here rather than reach a header.
        return "run-config: " + json.dumps(_plain(payload), sort_keys=True,
                                           allow_nan=False)


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


class UsageError(Exception):
    pass


# Converters of config values: each takes what a JSON config may hold for
# its key and raises TypeError, ValueError or ArgumentTypeError otherwise.
# A value that a flag also takes is converted from the flag's text.

def _flag_text(value) -> str:
    """The text of the flag that gives ``value``: a JSON list joined by commas."""
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def _as_int(value) -> int:
    return int(str(value))          # so 1.9 and true are no ints, as for a flag


def _as_float(value) -> float:
    return _finite_float_arg(str(value))    # so true is no number, as for a flag


def _as_models(value) -> tuple[str, ...]:
    return _models_arg(_flag_text(value))


def _as_thresholds(value) -> tuple[float, float]:
    return _thresholds_arg(_flag_text(value))


def _as_grade_counts(value) -> tuple[int, ...]:
    return _grade_counts_arg(_flag_text(value))


def _as_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _as_text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _load_inputs(settings: _Settings):
    sub_path = settings.get("submissions", None, _as_text)
    gb_path = settings.get("gradebook", None, _as_text)
    if not sub_path or not gb_path:
        raise UsageError("--submissions and --gradebook are required")
    try:
        dataset, repairs = load_dataset(sub_path, gb_path)
    except IngestError as exc:
        raise UsageError(str(exc)) from exc
    except OSError as exc:          # a missing file, a directory, no permission
        raise UsageError(f"cannot read input: {exc}") from exc
    for count, what in ((repairs.dropped, "dropped after a correct answer"),
                        (repairs.renumbered, "re-numbered")):
        if count:
            print(f"warning: {count} submission rows {what} during ingest",
                  file=sys.stderr)
    return dataset


def _jobs(settings: _Settings) -> int:
    jobs = settings.get("jobs", 1, _as_int)
    if jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")
    return jobs


def _out_dir(settings: _Settings) -> str:
    """The output directory; its command creates it once the inputs have loaded."""
    return settings.get("out_dir", ".", _as_text) or "."


def _loo_inputs(settings: _Settings, command: str):
    """A leave-one-out command's output directory, made once inputs of two
    students or more have loaded, its header, and its features and grades."""
    out_dir = _out_dir(settings)
    dataset = _load_inputs(settings)
    if len(dataset.students) < 2:
        raise UsageError("leave-one-out needs at least 2 students")
    os.makedirs(out_dir, exist_ok=True)
    y = np.array([int(rec.final_grade) for rec in dataset.students])
    return out_dir, settings.header(command), assemble_feature_matrix(dataset), y


def _model_spec(name: str, settings: _Settings, seed: int) -> ModelSpec:
    values = {"C": settings.get("c", ModelSpec.C, _as_float),
              "k": settings.get("k", ModelSpec.k, _as_int),
              "epsilon": settings.get("epsilon", ModelSpec.epsilon, _as_float)}
    params = {key: values[key] for key in _HYPERPARAMETERS.get(name, ())}
    try:
        return ModelSpec(name, **params, seed=seed)
    except ValueError as exc:
        raise UsageError(f"{name}: {exc}") from None


def cmd_synth(settings: _Settings) -> int:
    try:
        config = CohortConfig(
            n_students=settings.get("students", CohortConfig.n_students, _as_int),
            n_questions=settings.get("questions", CohortConfig.n_questions, _as_int),
            boolean_question_fraction=settings.get(
                "boolean_fraction", CohortConfig.boolean_question_fraction, _as_float),
            ability_spread=settings.get(
                "ability_spread", CohortConfig.ability_spread, _as_float),
            difficulty_spread=settings.get(
                "difficulty_spread", CohortConfig.difficulty_spread, _as_float),
            grade_counts=settings.get(
                "grade_counts", CohortConfig.grade_counts, _as_grade_counts),
            seed=settings.get("seed", 0, _as_int),
        )
    except InfeasibleConfig as exc:
        raise UsageError(str(exc)) from exc
    out_dir = _out_dir(settings)
    header = settings.header("synth")
    sub_path, gb_path = write_cohort(config, out_dir, header_comment=header)
    print(f"wrote {sub_path} and {gb_path} "
          f"({config.n_students} students, {config.n_questions} questions)")
    return EXIT_OK


def cmd_extract(settings: _Settings) -> int:
    out_dir = _out_dir(settings)
    settings.get("seed", 0, _as_int)
    dataset = _load_inputs(settings)
    os.makedirs(out_dir, exist_ok=True)
    matrix = assemble_feature_matrix(dataset)
    out_path = os.path.join(out_dir, "features.csv")
    write_features_csv(matrix, out_path, header_comment=settings.header("extract"))
    rows, cols = matrix.values.shape
    print(f"wrote {out_path}: {rows} rows x {cols} feature columns")
    return EXIT_OK


def cmd_evaluate(settings: _Settings) -> int:
    # Every setting is checked before the inputs are read.
    names = settings.get("model", ALL_MODELS, _as_models)
    thresholds = settings.get("thresholds", evaluation.DEFAULT_THRESHOLDS, _as_thresholds)
    normalize = settings.get("normalize", False, _as_bool)
    global_prep = settings.get("global_prep", False, _as_bool)
    jobs = _jobs(settings)
    seed = settings.get("seed", 0, _as_int)
    specs = {name: _model_spec(name, settings, seed) for name in names}
    out_dir, header, matrix, y = _loo_inputs(settings, "evaluate")
    preprocessors = evaluation.prepare_fold_preprocessors(
        matrix, thresholds, normalize, global_prep)

    reports: dict[str, evaluation.EvalReport] = {}
    failures: dict[str, str] = {}
    for name in names:
        sink: list[str] = []
        try:
            preds = evaluation.loocv_matrix(matrix, y, specs[name], preprocessors,
                                            jobs=jobs, warning_sink=sink)
            reports[name] = evaluation.summarize(preds)
        except Exception as exc:
            failures[name] = f"{type(exc).__name__}: {exc}"
            print(f"{name}: failed ({failures[name]})", file=sys.stderr)
            continue
        finally:
            for line in sink:
                print(f"warning: {name}: {line}", file=sys.stderr)
        suffix = "" if len(names) == 1 else f"_{name}"
        pred_path = os.path.join(out_dir, f"predictions{suffix}.csv")
        evaluation.write_predictions_csv(preds, pred_path, header_comment=header)
        r = reports[name]
        print(f"{name}: accuracy {100.0 * r.accuracy:.1f}%, mse {r.mse:.3f}")

    report_path = os.path.join(out_dir, "report.md")
    body = evaluation.render_report(reports) if reports else "(no model completed)\n"
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(f"<!-- {header} -->\n\n")
        fh.write(body)
        if failures:
            fh.write("\n## Failed models\n\n")
            for name in names:
                if name in failures:
                    fh.write(f"- {name}: {failures[name]}\n")
    print(f"wrote {report_path}")
    return EXIT_MODEL_FAILURE if failures else EXIT_OK


def cmd_sweep(settings: _Settings) -> int:
    # Every setting is checked before the inputs are read.
    names = settings.get("model", ("svm",), _as_models)
    if len(names) != 1:
        raise UsageError("sweep takes exactly one model")
    normalize = settings.get("normalize", False, _as_bool)
    jobs = _jobs(settings)
    seed = settings.get("seed", 0, _as_int)
    spec = _model_spec(names[0], settings, seed)
    out_dir, header, matrix, y = _loo_inputs(settings, "sweep")
    try:
        result = evaluation.threshold_sweep(matrix, y, spec, normalize=normalize, jobs=jobs)
    except evaluation.SweepFailure as exc:
        print(f"sweep failed at thresholds {exc.thresholds}: {exc.__cause__}",
              file=sys.stderr)
        return EXIT_MODEL_FAILURE
    for line in result.warnings:
        print(f"warning: {spec.kind}: {line}", file=sys.stderr)

    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        fh.write("t_perf,t_subs,accuracy,winner\n")
        for combo, acc in result.accuracies.items():
            flag = 1 if combo == result.winner else 0
            fh.write(f"{combo[0]:.2f},{combo[1]:.2f},{repr(float(acc))},{flag}\n")

    for combo, acc in result.accuracies.items():
        star = " *" if combo == result.winner else ""
        print(f"t_perf={combo[0]:.2f} t_subs={combo[1]:.2f} "
              f"accuracy={100.0 * acc:.1f}%{star}")

    kept = selection.variance_mask(matrix.values, matrix.groups, *result.winner)
    mask_path = os.path.join(out_dir, "mask.json")
    selection.write_mask_json(kept, result.winner, matrix.names, mask_path)
    print(f"wrote {csv_path} and {mask_path}")
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "extract": cmd_extract,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _Settings(args)
        return _COMMANDS[args.command](settings)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Every input is read under a handler of its own, so an OSError that
    # gets here came from writing: a file in the way, a directory where a
    # file goes, no permission, a full disk.
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
