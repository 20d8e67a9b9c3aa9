"""Workload definitions and their seeded input generators.

A workload is a set of independent cohorts generated from one seed plus the
``gradecast`` command run on each of them.  Several small cohorts, not one
large one, make up a workload because solver time depends on the data: the
median over cohorts moves far less from seed to seed than any one cohort does.

The program only ever sees the CSV files written here.
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_GRADE_COUNTS = (26, 10, 22, 72, 119)    # the default cohort's F..A counts

# ingest-large perturbation rates, per (student, question) group.  They are
# assumptions, not taken from a real submission log: any nonzero rate reaches
# ingest's repair path, and 3% keeps repair work a small part of the extract.
RESUBMIT_RATE = 0.03    # solved groups that get 1-3 rows after the correct answer
SCRAMBLE_RATE = 0.03    # other groups whose attempt numbers are scrambled

_FAMILY_KEYS = {"loo": 1, "ingest": 2}
_PERTURB_STREAM = 7


@dataclass(frozen=True)
class Workload:
    name: str
    family: str                 # cohorts are shared by workloads of one family
    students: int
    questions: int
    cohorts: int
    command: tuple[str, ...]    # gradecast subcommand and flags, inputs excluded
    models: tuple[str, ...]     # models whose predictions are checked

    def argv(self, cohort_dir: str, out_dir: str) -> list[str]:
        return [self.command[0],
                "--submissions", os.path.join(cohort_dir, "submissions.csv"),
                "--gradebook", os.path.join(cohort_dir, "gradebook.csv"),
                "--out-dir", out_dir, *self.command[1:]]

    def operations(self) -> int:
        """Operations one command performs: a (model, fold) prediction or an extract pass."""
        return len(self.models) * self.students if self.models else 1


WORKLOADS = {w.name: w for w in (
    Workload("loo-raw", "loo", 40, 409, 10,
             ("evaluate", "--model", "all", "--jobs", "1"),
             ("svm", "linreg", "tree", "nb", "knn", "random", "majority")),
    Workload("loo-normalized", "loo", 40, 409, 10,
             ("evaluate", "--normalize", "--model", "svm,svr", "--jobs", "2"),
             ("svm", "svr")),
    Workload("ingest-large", "ingest", 300, 409, 3,
             ("extract",),
             ()),
)}


def grade_counts(students: int) -> tuple[int, ...]:
    """The default grade distribution scaled to ``students`` (largest remainder)."""
    total = sum(DEFAULT_GRADE_COUNTS)
    exact = [students * c / total for c in DEFAULT_GRADE_COUNTS]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[:students - sum(counts)]:
        counts[i] += 1
    return tuple(counts)


def cohort_seed(seed: int, family: str, index: int) -> int:
    """Seed of cohort ``index`` of a workload family; distinct seeds never share cohorts."""
    state = np.random.SeedSequence([seed, _FAMILY_KEYS[family], index]).generate_state(1)
    return int(state[0])


def cohort_config(workload: Workload, seed: int, index: int):
    from gradecast.synth import CohortConfig

    return CohortConfig(n_students=workload.students, n_questions=workload.questions,
                        grade_counts=grade_counts(workload.students),
                        seed=cohort_seed(seed, workload.family, index))


def _rows_after_correct(group, rng):
    """One to three rows recorded after the group's correct (final) answer."""
    last = group[-1]
    extra = []
    t = last.timestamp
    for k in range(1, int(rng.integers(1, 4)) + 1):
        t += int(rng.integers(5, 300))
        extra.append(dataclasses.replace(last, timestamp=t,
                                         attempt_number=last.attempt_number + k,
                                         correct=bool(rng.integers(0, 2))))
    return extra


def _scrambled(group, rng):
    """The group with every attempt number changed: rotated, or offset when alone."""
    if len(group) == 1:
        offset = int(rng.integers(1, 4))
        return [dataclasses.replace(group[0], attempt_number=group[0].attempt_number + offset)]
    numbers = [ev.attempt_number for ev in group]
    rotated = numbers[1:] + numbers[:1]
    return [dataclasses.replace(ev, attempt_number=a) for ev, a in zip(group, rotated)]


def perturb(events, seed: int):
    """Untidy copy of a clean, time-ordered event log.

    Returns (rows, injected): the rows in a seeded shuffled order, and the
    number of rows altered or added, which is the number ingest must repair.
    Re-submission and scramble groups are disjoint, so each altered row is
    repaired exactly once.
    """
    rng = np.random.default_rng([seed, _PERTURB_STREAM])
    groups: dict[tuple[str, str], list] = {}
    for ev in events:
        groups.setdefault((ev.student_id, ev.question_id), []).append(ev)
    rows = []
    injected = 0
    for group in groups.values():
        u = rng.random()
        if u < RESUBMIT_RATE and group[-1].correct:
            extra = _rows_after_correct(group, rng)
            rows.extend(group)
            rows.extend(extra)
            injected += len(extra)
        elif u > 1.0 - SCRAMBLE_RATE:
            rows.extend(_scrambled(group, rng))
            injected += len(group)
        else:
            rows.extend(group)
    order = rng.permutation(len(rows))
    return [rows[i] for i in order], injected


def canonical(events):
    """Events in ingest's documented canonical order."""
    return sorted(events, key=lambda e: (e.student_id, e.question_id, e.timestamp,
                                         e.attempt_number, e.correct))


def write_inputs(workload: Workload, seed: int, index: int, out_dir: str):
    """Write one cohort's submissions.csv and gradebook.csv; the timed set-up step.

    Returns (injected, clean): the number of rows ingest must repair, and for
    the ingest family the clean (events, records) the untidy log came from.
    Calls go through the ``gradecast`` module attributes so that a traced
    set-up records them.
    """
    from gradecast import ingest, synth

    config = cohort_config(workload, seed, index)
    os.makedirs(out_dir, exist_ok=True)
    if workload.family == "loo":
        synth.write_cohort(config, out_dir)
        return 0, None
    events, records = synth.generate_cohort(config)
    rows, injected = perturb(events, config.seed)
    ingest.write_submissions(rows, os.path.join(out_dir, "submissions.csv"))
    ingest.write_gradebook(records, os.path.join(out_dir, "gradebook.csv"))
    return injected, (events, records)


def write_expected_features(clean, path: str) -> None:
    """Features of the clean cohort, the reference the repaired extract must match."""
    from gradecast import features, ingest

    events, records = clean
    dataset = ingest.build_dataset(canonical(events), records)
    features.write_features_csv(features.assemble_feature_matrix(dataset), path)
