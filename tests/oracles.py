"""Independent brute-force reference implementations used only by tests.

Everything here favours obviousness over speed: exhaustive enumeration,
exact rational arithmetic where practical, and plain Python loops.  These
are the second route for dual-route checks and must stay independent of
the package's own algorithms.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from gradecast import synth
from gradecast.features import QUICK_RESPONSE_SECONDS, FeatureMatrix
from gradecast.ingest import (
    N_ASSIGNMENTS,
    SESSION_GAP_SECONDS,
    SUBMISSIONS_HEADER,
    DuplicateStudent,
    EmptyLog,
    Grade,
    InconsistentAssignment,
    MalformedRow,
    OrphanEvent,
    RepairCount,
    StudentRecord,
    SubmissionEvent,
    _numbered_rows,
)
from gradecast.rng import substream
from gradecast.selection import fit_preprocessor


# ---------------------------------------------------------------- random streams

_MASK64 = (1 << 64) - 1


def seed_sequence_word(seed: int, index: int) -> int:
    """numpy's first uint64 of ``SeedSequence([seed, index])``, both mod 2**64."""
    ss = np.random.SeedSequence([seed & _MASK64, index & _MASK64])
    return int(ss.generate_state(1, np.uint64)[0])


def philox_uniforms(seed: int, *path: int, count: int) -> list[float]:
    """numpy's first ``count`` doubles of Philox keyed by ``SeedSequence([seed, *path])``."""
    ss = np.random.SeedSequence([v & _MASK64 for v in (seed, *path)])
    return np.random.Generator(np.random.Philox(ss)).random(count).tolist()


# ---------------------------------------------------------------- SVM dual

def svm_dual_objective(alpha, y, K):
    alpha = np.asarray(alpha, dtype=float)
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ K @ ay)


def svm_dual_oracle(K, y, C):
    """Globally maximize the soft-margin dual by active-set enumeration.

    Every variable is pinned to 0, pinned to C, or left free; for each of
    the 3^n assignments the free block is solved as an equality-constrained
    quadratic (KKT linear system), checked for box feasibility, and scored.
    Exact for any PSD kernel matrix; practical for n <= 9 or so.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    best_obj = -np.inf
    best_alpha = None
    for assignment in itertools.product((0, 1, 2), repeat=n):
        fixed = np.array([C if a == 1 else 0.0 for a in assignment])
        free = [i for i, a in enumerate(assignment) if a == 2]
        alpha = fixed.copy()
        if free:
            # Stationarity on the free block with multiplier for sum(a*y)=0:
            #   Q_ff a_f + y_f t = 1 - Q_fp a_p ;  y_f . a_f = -y_p . a_p
            q = (y[:, None] * y[None, :]) * K
            f = np.array(free)
            pinned = np.array([i for i in range(n) if i not in set(free)], dtype=int)
            rhs_top = np.ones(f.size)
            target = 0.0
            if pinned.size:
                rhs_top = rhs_top - q[np.ix_(f, pinned)] @ fixed[pinned]
                target = -float(y[pinned] @ fixed[pinned])
            system = np.zeros((f.size + 1, f.size + 1))
            system[:f.size, :f.size] = q[np.ix_(f, f)]
            system[:f.size, f.size] = y[f]
            system[f.size, :f.size] = y[f]
            rhs = np.concatenate([rhs_top, [target]])
            sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
            alpha[f] = sol[:f.size]
        if np.any(alpha < -1e-9) or np.any(alpha > C + 1e-9):
            continue
        if abs(float(alpha @ y)) > 1e-8:
            continue
        obj = svm_dual_objective(np.clip(alpha, 0.0, C), y, K)
        if obj > best_obj:
            best_obj = obj
            best_alpha = np.clip(alpha, 0.0, C)
    return best_alpha, best_obj


def svm_bias_from_alpha(alpha, y, K, C):
    """Bias consistent with the KKT conditions of a dual solution."""
    f = (alpha * y) @ K
    free = (alpha > 1e-8) & (alpha < C - 1e-8)
    if free.any():
        return float(np.mean(y[free] - f[free]))
    # All bound: b must keep y_i (f_i + b) >= 1 where alpha=0 and <= 1
    # where alpha=C; take the midpoint of the feasible interval.
    lo, hi = -np.inf, np.inf
    for i in range(y.size):
        bound = y[i] - f[i]
        at_zero = alpha[i] <= 1e-8
        if (at_zero and y[i] > 0) or (not at_zero and y[i] < 0):
            lo = max(lo, bound)
        else:
            hi = min(hi, bound)
    if lo == -np.inf and hi == np.inf:
        return 0.0
    if lo == -np.inf:
        return float(hi)
    if hi == np.inf:
        return float(lo)
    return float(0.5 * (lo + hi))


def svm_bias_interval(alpha, y, K, C):
    """KKT-feasible bias range for an all-bound dual solution."""
    f = (alpha * y) @ K
    lo, hi = -np.inf, np.inf
    for i in range(y.size):
        bound = y[i] - f[i]
        at_zero = alpha[i] <= 1e-8
        if (at_zero and y[i] > 0) or (not at_zero and y[i] < 0):
            lo = max(lo, bound)
        else:
            hi = min(hi, bound)
    return lo, hi


def kkt_max_violation(alpha, y, K, b, C):
    """Largest violation of the soft-margin KKT conditions, vectorized."""
    margins = y * (K @ (alpha * y) + b)
    atol = 1e-9
    zero = alpha <= atol
    at_c = alpha >= C - atol
    free = ~zero & ~at_c
    v = np.zeros_like(margins)
    v[zero] = np.maximum(0.0, 1.0 - margins[zero])
    v[at_c] = np.maximum(0.0, margins[at_c] - 1.0)
    v[free] = np.abs(margins[free] - 1.0)
    return float(v.max()) if v.size else 0.0


def svm_kkt_violation(alpha, y, K, b, C):
    """Largest complementary-slackness violation of a candidate solution."""
    f = (alpha * y) @ K + b
    worst = 0.0
    for i in range(y.size):
        margin = y[i] * f[i]
        if alpha[i] <= 1e-8:
            worst = max(worst, 1.0 - margin)
        elif alpha[i] >= C - 1e-8:
            worst = max(worst, margin - 1.0)
        else:
            worst = max(worst, abs(margin - 1.0))
    return worst


def svr_kkt_violation(beta, y, K, b, C, epsilon):
    """Largest violation of the epsilon-tube conditions of an SVR solution.

    With residual r_i = y_i - (sum_j beta_j K_ij + b), a solution of the
    epsilon-SVR dual satisfies, point by point:
      beta_i = 0        |r_i| <= epsilon   (inside the tube)
      0 < beta_i < C    r_i = epsilon      (on the upper edge)
      beta_i = C        r_i >= epsilon     (above the tube)
      -C < beta_i < 0   r_i = -epsilon     (on the lower edge)
      beta_i = -C       r_i <= -epsilon    (below the tube)
    """
    n = len(y)
    worst = 0.0
    for i in range(n):
        r = y[i] - (sum(beta[j] * K[i][j] for j in range(n)) + b)
        if abs(beta[i]) <= 1e-8:
            v = abs(r) - epsilon
        elif beta[i] >= C - 1e-8:
            v = epsilon - r
        elif beta[i] > 0:
            v = abs(r - epsilon)
        elif beta[i] <= -C + 1e-8:
            v = r + epsilon
        else:
            v = abs(r + epsilon)
        worst = max(worst, v)
    return worst


def dual_solve_reference(Q, s, p, C, tol, max_iter, tau):
    """The dual solver as first written: both working-set masks rebuilt from
    scratch on every iteration.  Returns (a, rho, converged, iterations).

    The package solver must reproduce this bit for bit; it differs only in
    how it keeps the masks current.
    """
    def up_low(a):
        pos = s > 0
        return np.where(pos, a < C, a > 0), np.where(pos, a > 0, a < C)

    a = np.zeros(s.size)
    G = np.array(p, dtype=float)
    QD = np.diag(Q)
    iterations = 0
    while True:
        up, low = up_low(a)
        v = -s * G
        v_up = np.where(up, v, -np.inf)
        v_low = np.where(low, v, np.inf)
        i = int(np.argmax(v_up))
        converged = bool(v_up[i] - v_low.min() < tol)
        if converged or iterations == max_iter:
            break
        gap = v_up[i] - v_low
        curv = np.maximum(QD[i] + QD - 2.0 * s[i] * s * Q[i], tau)
        j = int(np.argmin(np.where(gap > 0, -gap * gap / curv, np.inf)))
        room_i = C - a[i] if s[i] > 0 else a[i]
        room_j = a[j] if s[j] > 0 else C - a[j]
        t = min(gap[j] / curv[j], room_i, room_j)
        ai = (C if s[i] > 0 else 0.0) if t == room_i else a[i] + s[i] * t
        aj = (0.0 if s[j] > 0 else C) if t == room_j else a[j] - s[j] * t
        G += (ai - a[i]) * Q[i] + (aj - a[j]) * Q[j]
        a[i], a[j] = ai, aj
        iterations += 1
    sG = s * G
    free = (a > 0) & (a < C)
    if free.any():
        rho = float(sG[free].mean())
    else:
        up, low = up_low(a)
        rho = 0.5 * float(sG[up].min() + sG[low].max())
    return a, rho, converged, iterations


# ---------------------------------------------------------- decision tree

def gini(labels) -> float:
    """Gini impurity of a label multiset."""
    arr = np.asarray(labels)
    if arr.size == 0:
        return 0.0
    counts = np.bincount(arr)
    p = counts[counts > 0] / arr.size
    return float(1.0 - np.sum(p * p))


def _gini_fraction(labels):
    n = len(labels)
    if n == 0:
        return Fraction(0)
    total = Fraction(0)
    for g in set(labels):
        p = Fraction(labels.count(g), n)
        total += p * p
    return 1 - total


def _best_gini_split(rows, labels, gain_eps):
    """Exhaustive exact-arithmetic search for the best Gini split.

    Returns (feature, threshold) with threshold an exact midpoint of two
    consecutive distinct values, or None unless the weighted impurity drops
    by more than gain_eps.  Exact ties go to the lower feature, then the
    lower threshold.
    """
    n = len(rows)
    best = None   # (impurity, feature, threshold)
    for feat in range(len(rows[0])):
        values = sorted({row[feat] for row in rows})
        for v1, v2 in zip(values, values[1:]):
            threshold = (v1 + v2) / 2
            left = [labels[i] for i in range(n) if rows[i][feat] <= threshold]
            right = [labels[i] for i in range(n) if rows[i][feat] > threshold]
            imp = (Fraction(len(left), n) * _gini_fraction(left)
                   + Fraction(len(right), n) * _gini_fraction(right))
            if best is None or (imp, feat, threshold) < best:
                best = (imp, feat, threshold)
    if best is None or _gini_fraction(labels) - best[0] <= gain_eps:
        return None
    return best[1], best[2]


def gini_split_oracle(train_x, train_y, gain_eps=Fraction(1, 10**9)):
    """Best single split of the rows as (feature, float threshold), or None."""
    rows = [[Fraction(v) for v in row] for row in train_x]
    split = _best_gini_split(rows, list(train_y), gain_eps)
    return None if split is None else (split[0], float(split[1]))


def tree_oracle_predict(train_x, train_y, x, gain_eps=Fraction(1, 10**9)):
    """Recursive exact-arithmetic CART: lowest feature, lowest threshold.

    Split quality is weighted Gini over exact fractions; a split is taken
    only if impurity strictly decreases by more than gain_eps.  Thresholds
    are midpoints of consecutive distinct sorted values.
    """
    rows = [tuple(Fraction(v).limit_denominator(10**12) if not isinstance(v, Fraction)
                  else v for v in row) for row in train_x]
    labels = list(train_y)

    def build(indices):
        ys = [labels[i] for i in indices]
        if len(set(ys)) == 1:
            return ("leaf", ys[0])
        split = _best_gini_split([rows[i] for i in indices], ys, gain_eps)
        if split is None:
            counts = {g: ys.count(g) for g in set(ys)}
            top = max(counts.values())
            grade = min(g for g, c in counts.items() if c == top)
            return ("leaf", grade)
        feat, threshold = split
        left = [i for i in indices if rows[i][feat] <= threshold]
        right = [i for i in indices if rows[i][feat] > threshold]
        return ("split", feat, threshold, build(left), build(right))

    node = build(list(range(len(rows))))
    point = tuple(Fraction(v).limit_denominator(10**12) for v in x)
    while node[0] == "split":
        _, feat, threshold, left, right = node
        node = left if point[feat] <= threshold else right
    return node[1]


# ------------------------------------------------------------ regression

def ridge_oracle(X, y, damping):
    """Ridge fit with an unpenalized intercept, by SVD of the centered X.

    Minimizes |Xc w - yc|^2 + damping |w|^2; with Xc = U diag(sv) V' the
    weights are V diag(sv / (sv^2 + damping)) U' yc.  Returns (w, b).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    xmean = X.mean(axis=0)
    ymean = y.mean()
    U, sv, Vt = np.linalg.svd(X - xmean, full_matrices=False)
    # Singular values at rounding level belong to exactly dependent columns
    # or rows; their exact value is 0, and so is their share of w.
    sv = np.where(sv > sv.max(initial=0.0) * max(X.shape) * np.finfo(float).eps, sv, 0.0)
    w = Vt.T @ ((sv / (sv * sv + damping)) * (U.T @ (y - ymean)))
    return w, float(ymean - xmean @ w)


# ------------------------------------------------------------------- KNN

def knn_oracle_predict(train_x, train_y, x, k):
    """Plain-loop KNN: stable distance sort, tie vote to nearest member."""
    dists = []
    for i, row in enumerate(train_x):
        d = sum((float(a) - float(b)) ** 2 for a, b in zip(row, x))
        dists.append((d, i))
    dists.sort(key=lambda t: (t[0], t[1]))
    chosen = dists[:k]
    votes = {}
    for _, i in chosen:
        votes[train_y[i]] = votes.get(train_y[i], 0) + 1
    top = max(votes.values())
    tied = {g for g, c in votes.items() if c == top}
    for _, i in chosen:
        if train_y[i] in tied:
            return train_y[i]
    raise AssertionError("unreachable")


# ---------------------------------------------------------- naive Bayes

def nb_oracle_predict(train_x, train_y, x, var_smoothing=1e-9):
    """Loop-based Gaussian naive Bayes with population variances.

    Per-class terms are combined with math.fsum, which returns the correctly
    rounded sum regardless of term order; classes whose term lists are
    permutations of each other therefore tie bit-exactly, and the tie goes
    to the lower grade.
    """
    train_x = [[float(v) for v in row] for row in train_x]
    n_features = len(train_x[0])
    classes = sorted(set(train_y))
    all_vars = []
    for j in range(n_features):
        col = [row[j] for row in train_x]
        mean = sum(col) / len(col)
        all_vars.append(sum((v - mean) ** 2 for v in col) / len(col))
    smoothing = var_smoothing * max(all_vars)
    if smoothing <= 0.0:
        smoothing = 1e-12
    best = None
    for g in classes:
        rows = [train_x[i] for i in range(len(train_y)) if train_y[i] == g]
        terms = [float(np.log(len(rows) / len(train_y)))]
        for j in range(n_features):
            col = [row[j] for row in rows]
            mean = sum(col) / len(col)
            var = sum((v - mean) ** 2 for v in col) / len(col) + smoothing
            terms.append(-0.5 * float(np.log(2.0 * np.pi * var)))
            terms.append(-((float(x[j]) - mean) ** 2) / (2.0 * var))
        log_post = math.fsum(terms)
        # Ascending class order: strict improvement keeps ties at the
        # lowest tied grade.
        if best is None or log_post > best[0]:
            best = (log_post, g)
    return best[1]


# ------------------------------------------------------------- variance

def variance_oracle(values):
    """Per-column population variance via an explicit loop."""
    values = [[float(v) for v in row] for row in values]
    n = len(values)
    out = []
    for j in range(len(values[0])):
        col = [row[j] for row in values]
        mean = sum(col) / n
        out.append(sum((v - mean) ** 2 for v in col) / n)
    return out


def column_variance(values: np.ndarray, column: int) -> float:
    """Population variance of one column."""
    col = np.asarray(values, dtype=float)[:, column]
    return float(np.mean((col - col.mean()) ** 2))


def reference_fold_preprocessors(values, groups, t_perf, t_subs, normalize):
    """Every leave-one-out fold's preprocessor, fitted on its own rows one
    fold at a time."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    preps = []
    for i in range(n):
        keep = np.ones(n, dtype=bool)
        keep[i] = False
        preps.append(fit_preprocessor(values[keep], groups, t_perf, t_subs, normalize))
    return preps


def apply_mask(matrix: FeatureMatrix, kept: np.ndarray) -> FeatureMatrix:
    return FeatureMatrix(
        matrix.row_ids,
        tuple(n for n, k in zip(matrix.names, kept) if k),
        tuple(g for g, k in zip(matrix.groups, kept) if k),
        matrix.values[:, kept].copy(),
    )


def minmax_normalize(matrix: FeatureMatrix) -> FeatureMatrix:
    """Rescale every column to [0, 1]; constant columns map to 0."""
    values = matrix.values
    mins = values.min(axis=0)
    ranges = values.max(axis=0) - mins
    scaled = np.zeros_like(values)
    moving = ranges > 0
    scaled[:, moving] = (values[:, moving] - mins[moving]) / ranges[moving]
    return FeatureMatrix(matrix.row_ids, matrix.names, matrix.groups, scaled)


# --------------------------------------------------------------- metrics

def auroc_oracle(scores, labels):
    """Pair-counting AUROC: wins + half-ties over positive x negative pairs."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    if not pos or not neg:
        return None
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def average_precision_oracle(scores, labels, n_positive):
    """AP by explicit ranked enumeration; ties must be pre-broken by order."""
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    total = 0.0
    for rank, i in enumerate(ranked, start=1):
        if labels[i]:
            hits += 1
            total += hits / rank
    return total / n_positive


# ----------------------------------------------------- ingest and features
#
# The row-object implementation of parse_submissions, build_dataset and the
# feature families that the columnar code replaced, kept as the reference the
# fuzz tests compare against.  Its sort key leaves out assignment_id, so rows
# that differ only in assignment come out in file order.

@dataclass(frozen=True)
class Session:
    student_id: str
    assignment_id: int
    events: tuple[SubmissionEvent, ...]


@dataclass(frozen=True)
class ReferenceDataset:
    events: tuple[SubmissionEvent, ...]
    students: tuple[StudentRecord, ...]
    question_catalog: dict[str, tuple[int, int]]

    @property
    def n_questions(self) -> int:
        return len(self.question_catalog)

    @cached_property
    def student_rows(self) -> dict[str, int]:
        return {rec.student_id: i for i, rec in enumerate(self.students)}

    @cached_property
    def _events_by_student(self) -> dict[str, tuple[SubmissionEvent, ...]]:
        grouped: dict[str, list[SubmissionEvent]] = {}
        for ev in self.events:
            grouped.setdefault(ev.student_id, []).append(ev)
        return {sid: tuple(evs) for sid, evs in grouped.items()}

    def events_for(self, student_id: str) -> tuple[SubmissionEvent, ...]:
        return self._events_by_student.get(student_id, ())


def reference_parse_submissions(path) -> tuple[tuple[SubmissionEvent, ...], RepairCount]:
    raw: list[SubmissionEvent] = []
    saw_header = False
    for line_no, fields in _numbered_rows(path):
        if not saw_header:
            if tuple(fields) != SUBMISSIONS_HEADER:
                raise MalformedRow(line_no, f"bad header {fields!r}")
            saw_header = True
            continue
        if len(fields) != len(SUBMISSIONS_HEADER):
            raise MalformedRow(
                line_no, f"expected {len(SUBMISSIONS_HEADER)} fields, got {len(fields)}")
        sid, qid, assignment_s, ts_s, attempt_s, correct_s = fields
        try:
            assignment = int(assignment_s)
            timestamp = int(ts_s)
            attempt = int(attempt_s)
        except ValueError:
            raise MalformedRow(line_no, "non-integer numeric field") from None
        if not 1 <= assignment <= N_ASSIGNMENTS:
            raise MalformedRow(
                line_no, f"assignment_id {assignment} outside 1..{N_ASSIGNMENTS}")
        if correct_s not in ("0", "1"):
            raise MalformedRow(line_no, f"correct must be 0 or 1, got {correct_s!r}")
        raw.append(SubmissionEvent(sid, qid, assignment, timestamp, attempt, correct_s == "1"))
    if not raw:
        raise EmptyLog(str(path))

    raw.sort(key=lambda e: (e.student_id, e.question_id, e.timestamp,
                            e.attempt_number, e.correct))
    events: list[SubmissionEvent] = []
    dropped = renumbered = 0
    i = 0
    while i < len(raw):
        j = i
        key = (raw[i].student_id, raw[i].question_id)
        while j < len(raw) and (raw[j].student_id, raw[j].question_id) == key:
            j += 1
        group = raw[i:j]
        for pos, ev in enumerate(group):
            if ev.correct and pos + 1 < len(group):
                dropped += len(group) - pos - 1
                group = group[:pos + 1]
                break
        for pos, ev in enumerate(group, start=1):
            if ev.attempt_number != pos:
                ev = replace(ev, attempt_number=pos)
                renumbered += 1
            events.append(ev)
        i = j
    return tuple(events), RepairCount(dropped, renumbered)


def reference_build_dataset(events, students) -> ReferenceDataset:
    if not events or not students:
        raise EmptyLog("build_dataset input")
    seen: set[str] = set()
    for rec in students:
        if rec.student_id in seen:
            raise DuplicateStudent(rec.student_id)
        seen.add(rec.student_id)
    assignment: dict[str, int] = {}
    for ev in events:
        if ev.student_id not in seen:
            raise OrphanEvent(ev.student_id)
        if assignment.setdefault(ev.question_id, ev.assignment_id) != ev.assignment_id:
            raise InconsistentAssignment(ev.question_id)
    # Columns follow sorted (assignment_id, question_id) order.
    order = sorted(assignment, key=lambda q: (assignment[q], q))
    catalog = {q: (assignment[q], i) for i, q in enumerate(order)}
    return ReferenceDataset(tuple(events), tuple(students), catalog)


def reference_per_question_performance(dataset) -> np.ndarray:
    out = np.zeros((len(dataset.students), dataset.n_questions))
    rows = dataset.student_rows
    for ev in dataset.events:
        if ev.correct:
            out[rows[ev.student_id], dataset.question_catalog[ev.question_id][1]] = 1.0
    return out


def reference_submissions_per_question(dataset) -> np.ndarray:
    out = np.zeros((len(dataset.students), dataset.n_questions))
    rows = dataset.student_rows
    for ev in dataset.events:
        out[rows[ev.student_id], dataset.question_catalog[ev.question_id][1]] += 1.0
    return out


def reference_segment_sessions(dataset, student_id: str, assignment_id: int) -> list[Session]:
    if student_id not in dataset.student_rows:
        raise KeyError(student_id)
    events = [ev for ev in dataset.events_for(student_id)
              if ev.assignment_id == assignment_id]
    events.sort(key=lambda e: (e.timestamp, e.question_id, e.attempt_number))
    sessions: list[Session] = []
    current: list[SubmissionEvent] = []
    for ev in events:
        if current and ev.timestamp - current[-1].timestamp > SESSION_GAP_SECONDS:
            sessions.append(Session(student_id, assignment_id, tuple(current)))
            current = []
        current.append(ev)
    if current:
        sessions.append(Session(student_id, assignment_id, tuple(current)))
    return sessions


def reference_sessions_per_assignment(dataset) -> np.ndarray:
    out = np.zeros((len(dataset.students), 4))
    for i, rec in enumerate(dataset.students):
        for assignment in range(1, 5):
            out[i, assignment - 1] = len(
                reference_segment_sessions(dataset, rec.student_id, assignment))
    return out


def reference_response_times(dataset, student_id: str) -> list[int]:
    gaps: list[int] = []
    for assignment in range(1, 5):
        for session in reference_segment_sessions(dataset, student_id, assignment):
            ts = [ev.timestamp for ev in session.events]
            gaps.extend(b - a for a, b in zip(ts, ts[1:]))
    return gaps


def reference_response_time_features(dataset) -> np.ndarray:
    per_student = [reference_response_times(dataset, rec.student_id)
                   for rec in dataset.students]
    out = np.zeros((len(dataset.students), 4))
    pooled = [t for gaps in per_student for t in gaps]
    if not pooled:
        return out
    arr = np.asarray(pooled, dtype=float)
    mu = float(arr.mean())
    sigma = float(np.sqrt(np.mean((arr - mu) ** 2)))
    long_cut = mu + 2.0 * sigma
    for i, gaps in enumerate(per_student):
        if not gaps:
            continue
        g = np.asarray(gaps, dtype=float)
        long_n = int(np.sum(g > long_cut))
        quick_n = int(np.sum(g < QUICK_RESPONSE_SECONDS))
        out[i] = (long_n, quick_n, long_n / g.size, quick_n / g.size)
    return out


def reference_score_features(dataset) -> np.ndarray:
    return np.array([[*rec.hw_scores, rec.test_score] for rec in dataset.students],
                    dtype=float)


def reference_feature_values(dataset) -> np.ndarray:
    """The five families side by side, the layout of assemble_feature_matrix."""
    return np.hstack([reference_per_question_performance(dataset),
                      reference_submissions_per_question(dataset),
                      reference_response_time_features(dataset),
                      reference_sessions_per_assignment(dataset),
                      reference_score_features(dataset)])


def reference_write_features_csv(matrix: FeatureMatrix, path,
                                 header_comment: str | None = None) -> None:
    """The per-cell writer that the value-table writer replaced: one repr per
    cell, each row written by ``csv.writer``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment is not None:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("student_id", *matrix.names))
        for sid, row in zip(matrix.row_ids, matrix.values):
            writer.writerow((sid, *[repr(float(v)) for v in row]))


def reference_session_order(dataset) -> np.ndarray:
    """The events of a Dataset's sessions in session order, by the five-key
    lexsort that the packed sort replaced."""
    log = dataset.log
    graded = np.flatnonzero((log.assignment >= 1) & (log.assignment <= N_ASSIGNMENTS))
    return graded[np.lexsort(tuple(col[graded] for col in (
        log.attempt, log.question, log.timestamp, log.assignment, dataset.row)))]


def reference_session_index(dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``Dataset.sessions`` as (key, gaps, gap_row): one Python loop over
    ``reference_session_order`` with the 2-hour rule, in exact integers."""
    keys: list[int] = []
    gaps: list[int] = []
    gap_rows: list[int] = []
    previous = None
    for i in reference_session_order(dataset).tolist():
        row = int(dataset.row[i])
        key = row * N_ASSIGNMENTS + int(dataset.log.assignment[i]) - 1
        timestamp = int(dataset.log.timestamp[i])
        if (previous is not None and previous[0] == key
                and timestamp - previous[1] <= SESSION_GAP_SECONDS):
            gaps.append(timestamp - previous[1])
            gap_rows.append(row)
        else:
            keys.append(key)
        previous = key, timestamp
    return (np.array(keys, dtype=np.int64), np.array(gaps, dtype=np.int64),
            np.array(gap_rows, dtype=np.int64))


# ------------------------------------------------------------------- synth
#
# The scalar generator that the per-student batched draws replaced: one
# draw, clip and logistic per attempt, gap and (student, question).  It
# draws from each student's stream in the same order, so its cohorts are
# equal to generate_cohort's.

def _reference_attempt_outcomes(p_success: float, rolls, cap: int) -> list[bool]:
    """Correct flags for one (student, question): stop on success or cap."""
    outcomes = []
    for k in range(cap):
        success = bool(rolls[k] < p_success)
        outcomes.append(success)
        if success:
            break
    return outcomes


def reference_generate_cohort(config):
    bank = synth.question_bank(config)
    student_ids = synth._pad_ids("s", config.n_students)
    by_assignment: dict[int, list[int]] = {a: [] for a in range(1, N_ASSIGNMENTS + 1)}
    for q, info in enumerate(bank):
        by_assignment[info.assignment_id].append(q)
    width = max(config.max_attempts_boolean, config.max_attempts_other)

    events: list[SubmissionEvent] = []
    hw_scores = np.zeros((config.n_students, N_ASSIGNMENTS))
    test_scores = np.zeros(config.n_students)

    for s, sid in enumerate(student_ids):
        rng = substream(config.seed, synth._STUDENT_STREAM, s)
        ability = config.ability_spread * float(rng.standard_normal())
        noise = synth.TEST_NOISE * float(rng.standard_normal())
        rolls = rng.random((config.n_questions, width))
        test_scores[s] = 100.0 * float(synth._logistic(ability + noise))

        for a in range(1, N_ASSIGNMENTS + 1):
            question_indices = by_assignment[a]
            attempt_plan = []   # (question index, correct flags)
            for q in question_indices:
                info = bank[q]
                p = float(synth._logistic(ability - info.difficulty))
                flags = _reference_attempt_outcomes(p, rolls[q], info.max_attempts)
                attempt_plan.append((q, flags))

            solved = sum(1 for _, flags in attempt_plan if flags[-1])
            hw_scores[s, a - 1] = 100.0 * solved / len(question_indices)

            n_events = sum(len(flags) for _, flags in attempt_plan)
            n_sessions = int(rng.integers(1, 4))
            jitter = int(rng.integers(0, synth.START_JITTER))
            flat = [(q, k, correct)
                    for q, flags in attempt_plan
                    for k, correct in enumerate(flags, start=1)]
            chunks = np.array_split(np.arange(n_events), n_sessions)

            t = synth.COURSE_START + (a - 1) * synth.ASSIGNMENT_SPACING + jitter
            started = False
            for chunk in chunks:
                if chunk.size == 0:
                    continue
                if started:
                    t += synth.SESSION_BREAK + int(rng.exponential(synth.SESSION_BREAK_SCALE))
                started = True
                for offset, idx in enumerate(chunk):
                    if offset > 0:
                        gap = int(np.clip(rng.lognormal(synth.GAP_LOG_MEDIAN, synth.GAP_LOG_SIGMA),
                                          1, synth.MAX_GAP))
                        t += gap
                    q, attempt_number, correct = flat[idx]
                    events.append(SubmissionEvent(sid, bank[q].question_id, a,
                                                  t, attempt_number, correct))

    final_numeric = 0.6 * test_scores + 0.4 * hw_scores.mean(axis=1)
    grades = synth._assign_grades(final_numeric, config.grade_counts)

    records = tuple(
        StudentRecord(student_ids[s],
                      tuple(float(x) for x in hw_scores[s]),
                      float(test_scores[s]),
                      Grade(grades[s]))
        for s in range(config.n_students))
    return tuple(events), records
