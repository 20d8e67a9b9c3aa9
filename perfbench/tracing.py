"""Span tracing of gradecast's public functions, installed from outside the package.

``install`` replaces each hooked function or method with a wrapper that
records one span per call: name, start, end, parent span, run id and a few
counts taken from the arguments and result after the clock has stopped.
Module-level functions are also replaced wherever another gradecast module
imported them by name, so ``from .features import assemble_feature_matrix``
call sites are traced too.  Spans stay in memory until the caller writes them.

``layer_metrics`` turns the spans of a run into the per-layer metrics.
"""
from __future__ import annotations

import fnmatch
import functools
import hashlib
import importlib
import itertools
import math
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

SV_TOL = 1e-12    # svm.fit keeps alpha > 1e-12 as support vectors


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)
    cpu: float = 0.0    # CPU seconds of the calling thread during the span

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; the parent of a span is the innermost open span of its thread.

    Worker threads (the LOO fold pool) start with no open span, so their
    spans take the innermost open span of the thread that created the tracer,
    which is the LOO call waiting on the pool.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, describe: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span_id = next(self._ids)
            stack.append(span_id)
            cpu_start = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu_start
                stack.pop()
            attrs = describe(args, kwargs, result) if describe else {}
            self.spans.append(Span(span_id, name, start, end, parent, self.run_id, attrs, cpu))
            return result

        return traced


# --- what each hook records ------------------------------------------------

def _model_name(spec) -> str:
    if spec.kind == "regression":
        return "linreg" if spec.regression_backend == "least_squares" else "svr"
    return spec.kind


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_rows(path) -> int:
    with open(path, encoding="utf-8") as fh:
        lines = sum(1 for line in fh if line.strip() and not line.startswith("#"))
    return max(lines - 1, 0)    # minus the header row


def _tree_shape(node, depth: int = 0) -> tuple[int, int]:
    left, right = getattr(node, "left", None), getattr(node, "right", None)
    if left is None:
        return 1, depth
    nl, dl = _tree_shape(left, depth + 1)
    nr, dr = _tree_shape(right, depth + 1)
    return 1 + nl + nr, max(dl, dr)


def _describe_train(args, kwargs, model):
    name = _model_name(_arg(args, kwargs, 0, "spec"))
    attrs = {"model": name, "warnings": len(getattr(model, "warnings", ()))}
    if name == "tree":
        attrs["nodes"], attrs["depth"] = _tree_shape(model.root)
    return attrs


def _predicted_by(model: str):
    return lambda args, kwargs, outcome: {"model": model}


def _describe_regression_predict(args, kwargs, outcome):
    return {"model": "linreg" if args[0].backend == "least_squares" else "svr"}


@dataclass(frozen=True)
class Hook:
    target: str                 # "module:attribute" or "module:Class.method"
    name: str                   # span name
    describe: Callable | None = None
    feeds: tuple[str, ...] = ()   # fnmatch patterns of the metrics measured through it


_FOLD = ("evaluation.fold_busy_s", "evaluation.fold_wall_s", "evaluation.pool_utilization")

HOOKS = (
    Hook("gradecast.synth:generate_cohort", "synth.generate_cohort",
         lambda a, k, r: {"events": len(r[0])}, ("synth.generate_s", "synth.events")),
    Hook("gradecast.ingest:write_submissions", "synth.write", feeds=("synth.write_s",)),
    Hook("gradecast.ingest:write_gradebook", "synth.write", feeds=("synth.write_s",)),
    Hook("gradecast.ingest:parse_submissions", "ingest.parse_submissions",
         lambda a, k, r: {"rows_read": _count_rows(_arg(a, k, 0, "path")),
                          "rows_repaired": r[1]},
         ("ingest.parse_submissions_s", "ingest.rows_*")),
    Hook("gradecast.ingest:parse_gradebook", "ingest.parse_gradebook",
         feeds=("ingest.parse_gradebook_s",)),
    Hook("gradecast.ingest:build_dataset", "ingest.build_dataset",
         feeds=("ingest.build_dataset_s",)),
    *(Hook(f"gradecast.features:{fn}", f"features.{family}", feeds=(f"features.{family}_s",))
      for fn, family in (("per_question_performance", "perf"),
                         ("submissions_per_question", "subs"),
                         ("response_time_features", "rt"),
                         ("sessions_per_assignment", "sess"),
                         ("score_features", "score"))),
    Hook("gradecast.features:assemble_feature_matrix", "features.assemble",
         lambda a, k, r: {"columns": r.values.shape[1]},
         ("features.assemble_s", "features.columns")),
    Hook("gradecast.features:write_features_csv", "features.write_csv",
         feeds=("features.write_csv_s",)),
    Hook("gradecast.selection:fit_preprocessor", "selection.fit",
         lambda a, k, r: {"mask": hashlib.sha1(r.kept.tobytes()).hexdigest()},
         ("selection.fit*", "selection.distinct_masks", "selection.mask_reuse")),
    Hook("gradecast.selection:Preprocessor.transform", "selection.transform",
         feeds=("selection.transform*", *_FOLD)),
    Hook("gradecast.evaluation:prepare_fold_preprocessors", "evaluation.prep",
         feeds=("evaluation.prep_s",)),
    Hook("gradecast.evaluation:loocv_matrix", "evaluation.loo",
         lambda a, k, r: {"model": _model_name(_arg(a, k, 2, "spec")),
                          "jobs": k.get("jobs", 1)},
         ("evaluation.loo_s.*", *_FOLD)),
    Hook("gradecast.evaluation:summarize", "evaluation.summarize",
         feeds=("evaluation.summarize_s",)),
    Hook("gradecast.evaluation:write_predictions_csv", "evaluation.write",
         feeds=("evaluation.write_s",)),
    Hook("gradecast.evaluation:render_report", "evaluation.write",
         feeds=("evaluation.write_s",)),
    Hook("gradecast.models:train", "models.fit", _describe_train,
         ("models.*.fit_*", "models.svr.capped_folds", "models.tree.*", *_FOLD)),
    Hook("gradecast.models.svm:PairwiseSvm.predict", "models.predict",
         _predicted_by("svm"), ("models.svm.predict_s", *_FOLD)),
    Hook("gradecast.models.regression:RegressionModel.predict", "models.predict",
         _describe_regression_predict,
         ("models.linreg.predict_s", "models.svr.predict_s", *_FOLD)),
    Hook("gradecast.models.tree:DecisionTree.predict", "models.predict",
         _predicted_by("tree"), ("models.tree.predict_s", *_FOLD)),
    Hook("gradecast.models.bayes:GaussianNb.predict", "models.predict",
         _predicted_by("nb"), ("models.nb.predict_s", *_FOLD)),
    Hook("gradecast.models.neighbors:Knn.predict", "models.predict",
         _predicted_by("knn"), ("models.knn.predict_s", *_FOLD)),
    Hook("gradecast.models.baselines:RandomBaseline.predict", "models.predict",
         _predicted_by("random"), ("models.random.predict_s", *_FOLD)),
    Hook("gradecast.models.baselines:MajorityBaseline.predict", "models.predict",
         _predicted_by("majority"), ("models.majority.predict_s", *_FOLD)),
    Hook("gradecast.models.svm:smo", "models.svm.smo",
         lambda a, k, r: {"passes": r[3], "converged": bool(r[2]),
                          "support_vectors": int((r[0] > SV_TOL).sum())},
         ("models.svm.smo_*", "models.svm.unconverged", "models.svm.support_vectors")),
    Hook("gradecast.models.svm:rbf_kernel", "models.svm.rbf_kernel",
         feeds=("models.svm.rbf_kernel_*",)),
)


def absent_metrics(metric_names, absent: dict[str, str], hooks=HOOKS) -> dict[str, str]:
    """Metric -> reason, for every metric measured through a hook that is absent."""
    out = {}
    for hook in hooks:
        if hook.target in absent:
            for name in metric_names:
                if any(fnmatch.fnmatchcase(name, p) for p in hook.feeds):
                    out.setdefault(name, f"hook {hook.target} absent: {absent[hook.target]}")
    return out


def install(tracer: Tracer, hooks=HOOKS):
    """Wrap every hook target.  Returns (restore, absent).

    ``restore()`` puts every original back.  ``absent`` maps the target of
    each hook that could not be installed to the reason.
    """
    patches: list[tuple[object, str, object]] = []
    absent: dict[str, str] = {}
    for hook in hooks:
        module_name, _, path = hook.target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            absent[hook.target] = f"{type(exc).__name__}: {exc}"
            continue
        traced = tracer.wrap(hook.name, original, hook.describe)
        sites = [(owner, attr)]
        if not owners:
            sites += [(module, name) for module in _package_modules(module_name)
                      for name, value in vars(module).items()
                      if value is original and (module, name) != (owner, attr)]
        for site, name in sites:
            patches.append((site, name, getattr(site, name)))
            setattr(site, name, traced)

    def restore():
        for site, name, original in reversed(patches):
            setattr(site, name, original)
        patches.clear()

    return restore, absent


def _package_modules(module_name: str):
    package = module_name.split(".")[0]
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


# --- per-layer metrics -----------------------------------------------------

MODELS = ("svm", "linreg", "svr", "tree", "nb", "knn", "random", "majority")
FEATURE_FAMILIES = ("perf", "subs", "rt", "sess", "score")


def self_time(span: Span, children: list[Span]) -> float:
    """Span time minus the part of its interval that child spans cover."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.seconds - covered


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def layer_metrics(setup_spans: list[Span], run_spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics.  Times are summed over all spans of the given runs.

    Set-up spans feed only the synth metrics; run spans feed the rest.  Times
    are wall times, except ``evaluation.fold_busy_s``: under ``--jobs`` > 1
    a fold thread's wall time includes its waits for the GIL, so fold busy
    time and pool utilization count the CPU time of the fold threads.
    """
    by_name: dict[str, list[Span]] = {}
    for s in run_spans:
        by_name.setdefault(s.name, []).append(s)

    def spans(name: str, model: str | None = None) -> list[Span]:
        found = by_name.get(name, [])
        return found if model is None else [s for s in found if s.attrs.get("model") == model]

    def total(name: str, model: str | None = None) -> float:
        return sum(s.seconds for s in spans(name, model))

    def count(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in spans(name))

    m: dict[str, float] = {}
    setup = [s for s in setup_spans if s.name.startswith("synth.")]
    m["synth.generate_s"] = sum(s.seconds for s in setup if s.name == "synth.generate_cohort")
    m["synth.write_s"] = sum(s.seconds for s in setup if s.name == "synth.write")
    m["synth.events"] = sum(s.attrs.get("events", 0) for s in setup)

    m["ingest.parse_submissions_s"] = total("ingest.parse_submissions")
    m["ingest.parse_gradebook_s"] = total("ingest.parse_gradebook")
    m["ingest.build_dataset_s"] = total("ingest.build_dataset")
    m["ingest.rows_read"] = count("ingest.parse_submissions", "rows_read")
    m["ingest.rows_repaired"] = count("ingest.parse_submissions", "rows_repaired")
    parse_s = m["ingest.parse_submissions_s"]
    m["ingest.rows_per_s"] = m["ingest.rows_read"] / parse_s if parse_s > 0 else 0.0

    for family in FEATURE_FAMILIES:
        m[f"features.{family}_s"] = total(f"features.{family}")
    # Span ids are unique within one run only.
    children: dict[tuple[str, int], list[Span]] = {}
    for s in run_spans:
        if s.parent is not None:
            children.setdefault((s.run, s.parent), []).append(s)
    m["features.assemble_s"] = sum(self_time(s, children.get((s.run, s.id), []))
                                   for s in spans("features.assemble"))
    m["features.write_csv_s"] = total("features.write_csv")
    m["features.columns"] = max((s.attrs["columns"] for s in spans("features.assemble")),
                                default=0)

    fits = spans("selection.fit")
    # Masks are distinct per run: two runs on different cohorts share none.
    masks = {(s.run, s.attrs["mask"]) for s in fits}
    m["selection.fit_s"] = total("selection.fit")
    m["selection.fits"] = len(fits)
    m["selection.distinct_masks"] = len(masks)
    m["selection.mask_reuse"] = len(fits) / len(masks) if masks else 0.0
    m["selection.transform_s"] = total("selection.transform")
    m["selection.transforms"] = len(spans("selection.transform"))

    loo = spans("evaluation.loo")
    folds = [c for s in loo for c in children.get((s.run, s.id), [])]
    busy = sum(c.cpu for c in folds)
    capacity = sum(s.seconds * s.attrs["jobs"] for s in loo)
    m["evaluation.prep_s"] = total("evaluation.prep")
    for model in MODELS:
        m[f"evaluation.loo_s.{model}"] = total("evaluation.loo", model)
    m["evaluation.fold_busy_s"] = busy
    m["evaluation.fold_wall_s"] = sum(c.seconds for c in folds)
    m["evaluation.pool_utilization"] = busy / capacity if capacity > 0 else 0.0
    m["evaluation.summarize_s"] = total("evaluation.summarize")
    m["evaluation.write_s"] = total("evaluation.write")

    for model in MODELS:
        fit_ms = [1000.0 * s.seconds for s in spans("models.fit", model)]
        m[f"models.{model}.fit_s"] = sum(fit_ms) / 1000.0
        m[f"models.{model}.fit_ms_p50"] = statistics.median(fit_ms) if fit_ms else 0.0
        m[f"models.{model}.fit_ms_p95"] = _percentile(fit_ms, 0.95)
        m[f"models.{model}.predict_s"] = total("models.predict", model)

    smo = spans("models.svm.smo")
    m["models.svm.smo_calls"] = len(smo)
    m["models.svm.smo_passes"] = count("models.svm.smo", "passes")
    m["models.svm.smo_s"] = total("models.svm.smo")
    m["models.svm.unconverged"] = sum(1 for s in smo if not s.attrs["converged"])
    m["models.svm.support_vectors"] = count("models.svm.smo", "support_vectors")
    m["models.svm.rbf_kernel_s"] = total("models.svm.rbf_kernel")
    m["models.svm.rbf_kernel_calls"] = len(spans("models.svm.rbf_kernel"))
    m["models.svr.capped_folds"] = sum(1 for s in spans("models.fit", "svr")
                                       if s.attrs["warnings"])
    trees = spans("models.fit", "tree")
    m["models.tree.nodes"] = sum(s.attrs["nodes"] for s in trees)
    m["models.tree.depth_max"] = max((s.attrs["depth"] for s in trees), default=0)
    return m
