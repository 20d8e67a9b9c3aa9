"""The dual QP solver shared by the SVM pair machines and the epsilon-SVR.

Both models reduce to the LIBSVM dual

    min 1/2 a'Qa + p'a   subject to   s'a = 0,  0 <= a <= C,

with signs s_i = +-1 and a signed kernel matrix Q_ij = s_i s_j K_ij.  Each
iteration moves one pair of variables: i is the maximal violator in the
"up" set and j the "low"-set index with the largest second-order gain
(Fan, Chen & Lin, "Working set selection using second order information",
JMLR 2005; Chang & Lin, "LIBSVM: a library for support vector machines",
ACM TIST 2011).  The solver stops once the maximal violation m(a) - M(a)
drops below TOL, or after MAX_ITER pair updates, in which case the
best-so-far point is returned with converged=False.
"""
from __future__ import annotations

import numpy as np

TOL = 1e-3
MAX_ITER = 100_000
_TAU = 1e-12    # curvature floor for pairs along which Q is flat


def solve(Q: np.ndarray, s: np.ndarray, p: np.ndarray,
          C: float) -> tuple[np.ndarray, float, bool, int]:
    """Minimize the dual from a = 0.  Returns (a, rho, converged, iterations).

    The fitted decision function is sum_i a_i s_i K(x_i, x) - rho.
    """
    a = np.zeros(s.size)
    G = np.array(p, dtype=float)    # gradient Q a + p
    QD = np.diag(Q)
    neg_s = -s
    signs = s.tolist()
    up, low = _up_low(a, s, C)      # kept current below, two entries a step
    iterations = 0
    while True:
        v = neg_s * G
        v_up = np.where(up, v, -np.inf)
        v_low = np.where(low, v, np.inf)
        i = int(v_up.argmax())
        converged = bool(v_up[i] - v_low.min() < TOL)
        if converged or iterations == MAX_ITER:
            break
        gap = v_up[i] - v_low   # positive exactly where (i, t) is a violating pair
        # j maximizes the second-order gain gap^2 / curv over violating pairs.
        curv = QD[i] + QD
        curv -= (2.0 * signs[i]) * s * Q[i]
        np.maximum(curv, _TAU, out=curv)
        gain = gap * gap
        gain /= curv
        j = int(np.where(gap > 0, gain, -np.inf).argmax())
        # Move a_i by s_i t and a_j by -s_j t, which keeps s'a fixed; clip t
        # to the box and land exactly on the bound that stops it.  Scalars
        # are Python floats: the same IEEE arithmetic as numpy scalars, cheaper.
        si, sj, ai, aj = signs[i], signs[j], float(a[i]), float(a[j])
        room_i = C - ai if si > 0 else ai
        room_j = aj if sj > 0 else C - aj
        t = min(float(gap[j] / curv[j]), room_i, room_j)
        ai_new = (C if si > 0 else 0.0) if t == room_i else ai + si * t
        aj_new = (0.0 if sj > 0 else C) if t == room_j else aj - sj * t
        G += (ai_new - ai) * Q[i] + (aj_new - aj) * Q[j]
        a[i], a[j] = ai_new, aj_new
        for k, sk, ak in ((i, si, ai_new), (j, sj, aj_new)):
            grow, shrink = ak < C, ak > 0
            up[k], low[k] = (grow, shrink) if sk > 0 else (shrink, grow)
        iterations += 1
    return a, rho(a, s, G, C), converged, iterations


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


def _up_low(a: np.ndarray, s: np.ndarray, C: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the variables that can grow along s ("up") and shrink ("low")."""
    pos = s > 0
    return np.where(pos, a < C, a > 0), np.where(pos, a > 0, a < C)
