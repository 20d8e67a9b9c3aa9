"""Independent brute-force reference implementations used only by tests.

Everything here favours obviousness over speed: exhaustive enumeration,
exact rational arithmetic where practical, and plain Python loops.  These
are the second route for dual-route checks and must stay independent of
the package's own algorithms.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


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
