"""The default cohort's expected leave-one-out grades (``expected_grades.json``).

For the raw and the ``--normalize`` preparation, the file holds per model
the predicted grades of the default cohort (``synth --seed 42``, 249
students) as one string of letters in student order, and the model's two
report.md rows.  It covers the seven ``--model all`` models, and the SVR
normalized only: raw SVR takes longer than every other model together.
``test_acceptance.py`` recomputes it and names every moved grade.

Regenerate the file, after a change that is meant to move grades, with

    PYTHONPATH=src python tests/expected_grades.py

and list the moved rows in CHANGES.md.
"""
from __future__ import annotations

import json
from pathlib import Path

from gradecast.cli import ALL_MODELS
from gradecast.evaluation import (DEFAULT_THRESHOLDS, loocv_matrix,
                                  prepare_fold_preprocessors, render_report, summarize)
from gradecast.features import assemble_feature_matrix
from gradecast.ingest import Grade, build_dataset
from gradecast.models import ModelSpec
from gradecast.synth import CohortConfig, generate_cohort

PATH = Path(__file__).with_name("expected_grades.json")
MODELS = {"raw": ALL_MODELS, "normalized": (*ALL_MODELS, "svr")}


def predicted(matrix, y, preps: dict) -> dict:
    """Per preparation of ``MODELS`` and model, {"grades", "report"}: fold i
    of a preparation is prepared by ``preps[preparation][i]``."""
    out = {}
    for prep, kinds in MODELS.items():
        out[prep] = {}
        for kind in kinds:
            preds = loocv_matrix(matrix, y, ModelSpec(kind=kind), preps[prep])
            report = render_report({kind: summarize(preds)}).splitlines()
            out[prep][kind] = {
                "grades": "".join(Grade(p.outcome.grade).letter for p in preds),
                "report": [row for row in report
                           if row.startswith("| ") and not row.startswith(("| Model", "| ---"))],
            }
    return out


def moved(expected: dict, actual: dict, student_ids) -> list[str]:
    """One line per difference: (preparation, model, student, old -> new
    grade), a changed report row, or a model only one side holds."""
    lines = []
    for prep in sorted(expected.keys() | actual.keys()):
        old, new = expected.get(prep, {}), actual.get(prep, {})
        for kind in sorted(old.keys() | new.keys()):
            if kind not in old or kind not in new:
                lines.append(f"{prep} {kind}: only {'actual' if kind in new else 'expected'}")
                continue
            lines += [f"{prep} {kind} {sid}: {a} -> {b}" for sid, a, b in
                      zip(student_ids, old[kind]["grades"], new[kind]["grades"]) if a != b]
            lines += [f"{prep} {kind} report: {a!r} -> {b!r}" for a, b in
                      zip(old[kind]["report"], new[kind]["report"]) if a != b]
    return lines


def main() -> None:
    dataset = build_dataset(*generate_cohort(CohortConfig(seed=42)))
    matrix = assemble_feature_matrix(dataset)
    y = [int(rec.final_grade) for rec in dataset.students]
    preps = {prep: prepare_fold_preprocessors(matrix, DEFAULT_THRESHOLDS, prep == "normalized")
             for prep in MODELS}
    PATH.write_text(json.dumps(predicted(matrix, y, preps), indent=1) + "\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
