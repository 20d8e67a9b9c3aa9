"""The dual QP solver shared by the SVM pair machines and the epsilon-SVR.

Both models reduce to the LIBSVM dual

    min 1/2 a'Qa + p'a   subject to   s'a = 0,  0 <= a <= C,

with signs s_i = +-1 and a signed kernel matrix Q_ij = s_i s_j K[r_i, r_j]
over rows r of the problem's kernel matrix K.  Each iteration moves one
pair of variables: i is the maximal violator in the "up" set and j the
"low"-set index with the largest second-order gain (Fan, Chen & Lin,
"Working set selection using second order information", JMLR 2005;
Chang & Lin, "LIBSVM: a library for support vector machines", ACM TIST
2011).  A problem stops once its maximal violation m(a) - M(a) drops
below TOL, or after MAX_ITER pair updates, in which case the best-so-far
point is returned with converged=False.

``solve`` advances a flat list of independent problems in lock-step:
every step is the same elementwise arithmetic over a padded (problem,
variable) array, so each problem's result is bit-identical to solving it
alone, whatever else is in the batch.  ``solve_groups`` feeds it the
problems of many training folds, a memory-bounded batch at a time; the
folds of one group share one kernel, each fold's problems using its own
rows of it.  Folds of a group may hold the same problem, which is solved
once for all of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

TOL = 1e-3
MAX_ITER = 100_000
_TAU = 1e-12    # curvature floor for pairs along which Q is flat
BLOCK_BYTES = 256 << 10   # padded solver state of one batch: problems x variables x 8 B


@dataclass(frozen=True, eq=False)
class Problem:
    """One dual over the rows ``rows`` of the kernel matrix ``K``."""

    K: np.ndarray       # kernel matrix; problems may share one
    rows: np.ndarray    # kernel row of each variable
    s: np.ndarray       # +-1 per variable
    p: np.ndarray       # linear term per variable
    C: float


Solution = tuple[np.ndarray, float, bool, int]    # (a, rho, converged, iterations)


def solve(problems: Sequence[Problem]) -> list[Solution]:
    """Minimize every dual from a = 0.

    Returns each problem's (a, rho, converged, iterations), in order; the
    fitted decision function of a problem is sum_i a_i s_i K(x_{r_i}, x) - rho.
    """
    sizes = np.array([prob.s.size for prob in problems], dtype=np.intp)
    B, N = sizes.size, int(sizes.max(initial=0))
    # Q rows are gathered from one flat copy of the distinct kernels: Q_ij
    # is s_i s_j K_flat[rowbase_i + col_j].  Padding has s = 0, so it is in
    # neither working set and its Q entries are zero.
    kernels = {id(prob.K): prob.K for prob in problems}
    offsets = dict(zip(kernels, np.cumsum([0, *(K.size for K in kernels.values())])))
    flat = np.concatenate([K.ravel() for K in kernels.values()] or [np.zeros(1)])
    s = np.zeros((B, N))
    G = np.zeros((B, N))     # gradient Q a + p
    col = np.zeros((B, N), dtype=np.intp)
    rowbase = np.zeros((B, N), dtype=np.intp)
    C = np.empty(B)
    for b, prob in enumerate(problems):
        n = prob.s.size
        s[b, :n], G[b, :n], col[b, :n] = prob.s, prob.p, prob.rows
        rowbase[b] = offsets[id(prob.K)] + col[b] * prob.K.shape[0]
        C[b] = prob.C
    QD = flat[rowbase + col]    # s_i^2 K_ii = K_ii
    a = np.zeros((B, N))
    neg_s = -s
    up, low = _up_low(a, s, C[:, None])
    ids = np.arange(B)          # the running problems, in row order
    r = np.arange(B)
    results: list[Solution | None] = [None] * B
    max_iter = MAX_ITER
    iterations = 0
    while ids.size:
        v = neg_s * G
        v_up = np.where(up, v, -np.inf)
        v_low = np.where(low, v, np.inf)
        i = v_up.argmax(axis=1)
        v_max = v_up[r, i]
        converged = v_max - v_low.min(axis=1) < TOL
        done = converged | (iterations == max_iter)
        if done.any():
            for b in np.flatnonzero(done):
                prob = problems[ids[b]]
                n = prob.s.size
                a_b = a[b, :n].copy()
                results[ids[b]] = (a_b, rho(a_b, prob.s, G[b, :n], prob.C),
                                   bool(converged[b]), iterations)
            run = ~done
            ids = ids[run]
            if not ids.size:
                break
            width = int(sizes[ids].max())
            a, G, s, neg_s, up, low, QD, col, rowbase = (
                x[run, :width] for x in (a, G, s, neg_s, up, low, QD, col, rowbase))
            C, i, v_max, v_low = C[run], i[run], v_max[run], v_low[run, :width]
            r = np.arange(ids.size)
        gap = v_max[:, None] - v_low   # positive exactly where (i, t) is a violating pair
        si = s[r, i]
        Qi = si[:, None] * s * flat[rowbase[r, i][:, None] + col]
        # j maximizes the second-order gain gap^2 / curv over violating pairs.
        curv = QD[r, i][:, None] + QD
        curv -= (2.0 * si)[:, None] * s * Qi
        np.maximum(curv, _TAU, out=curv)
        gain = gap * gap
        gain /= curv
        j = np.where(gap > 0, gain, -np.inf).argmax(axis=1)
        # Move a_i by s_i t and a_j by -s_j t, which keeps s'a fixed; clip t
        # to the box and land exactly on the bound that stops it.
        sj, ai, aj = s[r, j], a[r, i], a[r, j]
        room_i = np.where(si > 0, C - ai, ai)
        room_j = np.where(sj > 0, aj, C - aj)
        t = np.minimum(np.minimum(gap[r, j] / curv[r, j], room_i), room_j)
        ai_new = np.where(t == room_i, np.where(si > 0, C, 0.0), ai + si * t)
        aj_new = np.where(t == room_j, np.where(sj > 0, 0.0, C), aj - sj * t)
        Qj = sj[:, None] * s * flat[rowbase[r, j][:, None] + col]
        G += (ai_new - ai)[:, None] * Qi + (aj_new - aj)[:, None] * Qj
        a[r, i], a[r, j] = ai_new, aj_new
        for k, sk, ak in ((i, si, ai_new), (j, sj, aj_new)):
            grow, shrink = ak < C, ak > 0
            up[r, k] = np.where(sk > 0, grow, shrink)
            low[r, k] = np.where(sk > 0, shrink, grow)
        iterations += 1
    return results


def solve_groups(groups: Iterable, plan: Callable) -> Iterator[tuple]:
    """Solve the duals of every fold of every group in lock-step batches.

    ``plan(group)`` returns (problems, note): per fold, the list of that
    fold's duals.  Folds of a group may hold the same ``Problem`` object:
    each distinct problem of a group is solved once, and every fold that
    holds it gets the same ``Solution``.  Yields, per group in order,
    (note, solutions), with ``solutions[f]`` the solutions of fold f's
    duals.  Folds join a batch until its padded solver state (distinct
    problems times the widest one's variables, 8 bytes each) reaches
    BLOCK_BYTES, so one group's folds may span batches; a problem solved in
    an earlier batch is not queued again.  A group's duals, and so their
    kernels, are kept until the group is yielded, and the rest of what
    ``plan`` reads can be freed as soon as it returns.
    """
    planned: list[_Group] = []
    batch: list[tuple[_Group, Problem]] = []     # distinct problems not solved yet
    width = 0
    for group in groups:
        problems, note = plan(group)
        planned.append(_Group(note, problems, {}))
        for probs in problems:
            for prob in probs:
                if prob not in planned[-1].solved:
                    planned[-1].solved[prob] = None
                    batch.append((planned[-1], prob))
                    width = max(width, prob.s.size)
            if len(batch) * width * 8 >= BLOCK_BYTES:
                _solve_batch(batch)
                batch, width = [], 0
        while planned and planned[0].done():
            yield planned[0].result()
            planned.pop(0)
    if batch:
        _solve_batch(batch)
    for done in planned:
        yield done.result()


@dataclass(eq=False)
class _Group:
    note: object
    problems: list[list[Problem]]               # per fold
    solved: dict[Problem, Solution | None]      # each distinct problem, once queued

    def done(self) -> bool:
        return None not in self.solved.values()

    def result(self) -> tuple:
        return self.note, [[self.solved[prob] for prob in probs] for probs in self.problems]


def _solve_batch(batch: list[tuple[_Group, Problem]]) -> None:
    """Solve the problems (group, problem) of ``batch`` in one call."""
    for (group, prob), solution in zip(batch, solve([prob for _, prob in batch])):
        group.solved[prob] = solution


def rho(a: np.ndarray, s: np.ndarray, G: np.ndarray, C: float) -> float:
    """Offset rho of the point a with gradient G.

    With free variables, rho is the mean of s_i G_i over them.  With none,
    it is the midpoint of the interval the bound variables leave, from the
    largest s_i G_i in the "low" set to the smallest in the "up" set; a
    near-optimal point can leave that interval crossed by less than TOL.
    """
    sG = s * G
    free = (a > 0) & (a < C)
    if free.any():
        return float(sG[free].mean())
    up, low = _up_low(a, s, C)
    return 0.5 * float(sG[up].min() + sG[low].max())


def _up_low(a: np.ndarray, s: np.ndarray, C) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the variables that can grow along s ("up") and shrink ("low").

    A padding variable (s = 0) is in neither.
    """
    pos, neg = s > 0, s < 0
    grow, shrink = a < C, a > 0
    return pos & grow | neg & shrink, pos & shrink | neg & grow
