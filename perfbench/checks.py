"""Output checks for one command of a workload.

Each check returns a list of problems; an empty list means the outputs are
correct.  The checks read only the files the command wrote, the inputs it
was given and what the set-up recorded about them.
"""
from __future__ import annotations

import csv
import os
import re
from dataclasses import dataclass, field

GRADES = {"F": 1, "D": 2, "C": 3, "B": 4, "A": 5}
BASELINES = ("random", "majority")
# Criterion 5's floors, relative to the LOO majority baseline.  They were set
# for a 249-student cohort, so they are applied to a workload's predictions
# pooled over its cohorts, not to each small cohort alone.
FLOOR_BELOW_MAJORITY = 0.02
BEST_ABOVE_MAJORITY = 0.03
PREDICTION_HEADER = ["student_id", "true_grade", "predicted_grade",
                     "score_F", "score_D", "score_C", "score_B", "score_A"]
_REPAIR_LINE = re.compile(r"^warning: .*\brows?\b")


def _data_rows(path: str) -> list[list[str]]:
    """CSV rows after the leading '#' comment lines, header included."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.reader(lines))


def gradebook_grades(path: str) -> dict[str, int]:
    rows = _data_rows(path)
    return {row[0]: GRADES[row[-1]] for row in rows[1:]}


def loo_majority_correct(grades: list[int]) -> int:
    """LOO hits of always predicting the training majority (ties to the higher grade)."""
    counts = [0] * 6
    for g in grades:
        counts[g] += 1
    correct = 0
    for g in grades:
        counts[g] -= 1
        best = max(range(1, 6), key=lambda c: (counts[c], c))
        correct += best == g
        counts[g] += 1
    return correct


def prediction_file(out_dir: str, model: str, n_models: int) -> str:
    suffix = "" if n_models == 1 else f"_{model}"
    return os.path.join(out_dir, f"predictions{suffix}.csv")


def check_predictions(path: str, grades: dict[str, int]) -> tuple[list[str], int]:
    """Problems with one predictions file, and its number of correct predictions."""
    if not os.path.isfile(path):
        return [f"{path}: missing"], 0
    rows = _data_rows(path)
    if not rows or rows[0] != PREDICTION_HEADER:
        return [f"{path}: bad header"], 0
    problems = []
    seen = set()
    correct = 0
    for row in rows[1:]:
        if len(row) != len(PREDICTION_HEADER):
            problems.append(f"{path}: row with {len(row)} fields")
            continue
        sid, true_letter, predicted_letter = row[:3]
        if sid in seen:
            problems.append(f"{path}: {sid} predicted twice")
        seen.add(sid)
        if sid not in grades or GRADES.get(true_letter) != grades[sid]:
            problems.append(f"{path}: {sid} has the wrong true grade {true_letter!r}")
        if predicted_letter not in GRADES:
            problems.append(f"{path}: {sid} has no valid predicted grade")
        correct += GRADES.get(predicted_letter) == grades.get(sid)
    missing = set(grades) - seen
    if missing:
        problems.append(f"{path}: {len(missing)} students without a prediction")
    return problems, correct


@dataclass
class Tally:
    """Correct LOO predictions per model, and of the majority baseline computed here."""

    students: int = 0
    majority: int = 0
    correct: dict[str, int] = field(default_factory=dict)

    def add(self, other: "Tally") -> None:
        self.students += other.students
        self.majority += other.majority
        for model, hits in other.correct.items():
            self.correct[model] = self.correct.get(model, 0) + hits

    def scored_accuracies(self) -> dict[str, float]:
        """Accuracy of each non-baseline model."""
        return {m: c / self.students for m, c in self.correct.items() if m not in BASELINES}


def check_loo(cohort_dir: str, out_dir: str, models, exit_code: int):
    """Problems with one evaluate command, and its tally of correct predictions."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    grades = gradebook_grades(os.path.join(cohort_dir, "gradebook.csv"))
    tally = Tally(len(grades), loo_majority_correct(list(grades.values())))
    for model in models:
        found, tally.correct[model] = check_predictions(
            prediction_file(out_dir, model, len(models)), grades)
        problems += found
    return problems, tally


def check_floors(tally: Tally) -> list[str]:
    """Criterion 5's floors on a tally pooled over a workload's commands."""
    base = tally.majority / tally.students
    scored = tally.scored_accuracies()
    problems = [f"{model} accuracy {acc:.3f} below majority {base:.3f} - "
                f"{FLOOR_BELOW_MAJORITY}"
                for model, acc in scored.items() if acc < base - FLOOR_BELOW_MAJORITY]
    if scored and max(scored.values()) < base + BEST_ABOVE_MAJORITY:
        problems.append(f"best accuracy {max(scored.values()):.3f} not above majority "
                        f"{base:.3f} + {BEST_ABOVE_MAJORITY}")
    return problems


def repair_count(stderr: str) -> int:
    """Rows ingest reports as repaired: the sum of the counts on its warning lines."""
    total = 0
    for line in stderr.splitlines():
        if _REPAIR_LINE.match(line):
            total += sum(int(n) for n in re.findall(r"\b\d+\b", line))
    return total


def check_extract(out_dir: str, expected_path: str, students: int, questions: int,
                  injected: int, stderr: str, exit_code: int) -> list[str]:
    """Problems with an extract run on a perturbed cohort."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    problems = []
    path = os.path.join(out_dir, "features.csv")
    if not os.path.isfile(path):
        return [f"{path}: missing"]
    with open(path, encoding="utf-8") as fh:
        got = [line for line in fh if not line.startswith("#")]
    columns = 2 * questions + 13
    shapes = {len(line.split(",")) - 1 for line in got}
    if len(got) != students + 1 or shapes != {columns}:
        problems.append(f"features.csv is {len(got) - 1} rows x {sorted(shapes)} columns, "
                        f"expected {students} x {columns}")
    repaired = repair_count(stderr)
    if repaired != injected:
        problems.append(f"ingest repaired {repaired} rows, the generator altered {injected}")
    with open(expected_path, encoding="utf-8") as fh:
        if got != fh.readlines():
            problems.append("repaired features differ from the clean cohort's")
    return problems
