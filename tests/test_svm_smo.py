import numpy as np
import pytest

from gradecast.models import ModelSpec, dual, train
from gradecast.models.base import linear_kernel
from gradecast.models.svm import rbf_kernel, smo
from helpers import svr_dual
from oracles import (
    dual_solve_reference,
    kkt_max_violation,
    svm_bias_interval,
    svm_dual_objective,
    svm_dual_oracle,
    svm_kkt_violation,
    svr_kkt_violation,
)


def random_problem(rng, n_max=8, d_max=3):
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    X = rng.normal(size=(n, d))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    K = rbf_kernel(X, X, 1.0 / d)
    return K, y


class TestRbfKernel:
    def test_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 4))
        K = rbf_kernel(X, X, 0.25)
        assert np.allclose(np.diag(K), 1.0)
        assert np.array_equal(K, K.T)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(6, 3)) * 3
        B = rng.normal(size=(9, 3)) * 3
        K = rbf_kernel(A, B, 1.0 / 3)
        assert np.all(K > 0) and np.all(K <= 1)
        # Huge separations may underflow to exactly zero but never go
        # negative or above one.
        K_far = rbf_kernel(A * 100, B * 100, 1.0 / 3)
        assert np.all(K_far >= 0) and np.all(K_far <= 1)

    def test_decreases_with_distance(self):
        a = np.array([[0.0]])
        near = rbf_kernel(a, np.array([[1.0]]), 1.0)[0, 0]
        far = rbf_kernel(a, np.array([[3.0]]), 1.0)[0, 0]
        assert near > far

    def test_known_value(self):
        k = rbf_kernel(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), 0.5)
        assert k[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)


class TestKernelsDependOnTwoRowsOnly:
    """Entry (i, j) of a kernel depends only on rows i and j, bit for bit.
    Leave-one-out folds share one kernel per transform group on this: a
    fold's kernel is a submatrix of the group's, and its held-out row's
    kernel values are a column of it.  A BLAS product breaks this."""

    KERNELS = {"rbf": lambda A, B: rbf_kernel(A, B, 1.0 / np.shape(A)[-1]),
               "linear": linear_kernel}

    @staticmethod
    def layouts(rng, X):
        return X if rng.random() < 0.5 else np.asfortranarray(X)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_row_subsets_transposes_and_single_rows(self, name):
        kernel = self.KERNELS[name]
        rng = np.random.default_rng(70)
        for trial in range(150):
            n = int(rng.integers(2, 45))
            d = int(rng.integers(1, 450)) * 2 - trial % 2      # odd widths on even trials
            X = self.layouts(rng, rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0))
            K = kernel(X, X)
            keep = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            sub = self.layouts(rng, X[keep])
            assert np.array_equal(K[np.ix_(keep, keep)], kernel(sub, sub))
            assert np.array_equal(K, K.T)
            x = X[int(rng.integers(n))] if trial % 3 else rng.normal(size=d)
            assert np.array_equal(kernel(sub, x), kernel(X, x)[keep])
            i = int(rng.integers(n))
            others = np.arange(n) != i
            assert np.array_equal(K[others, i], kernel(X[others], X[i])[:, 0])


class TestSmoSolver:
    def test_deterministic(self):
        rng = np.random.default_rng(10)
        K, y = random_problem(rng)
        a1, b1, c1, _ = smo(K.copy(), y.copy(), 1.0)
        a2, b2, c2, _ = smo(K.copy(), y.copy(), 1.0)
        assert np.array_equal(a1, a2)
        assert b1 == b2 and c1 == c2

    def test_objective_never_decreases(self, monkeypatch):
        # The objective after k iterations is the solution with the cap at k.
        rng = np.random.default_rng(11)
        for _ in range(20):
            K, y = random_problem(rng)
            _, _, converged, iterations = smo(K, y, 1.0)
            assert converged
            trace = []
            with monkeypatch.context() as patch:
                for cap in range(1, iterations + 1):
                    patch.setattr(dual, "MAX_ITER", cap)
                    alpha, _, _, _ = smo(K, y, 1.0)
                    trace.append(svm_dual_objective(alpha, y, K))
            assert trace
            assert np.diff(np.array([0.0] + trace)).min() > -1e-10

    def test_alpha_in_box_and_constraint_held(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            K, y = random_problem(rng)
            alpha, _, _, _ = smo(K, y, 1.0)
            assert np.all(alpha >= 0) and np.all(alpha <= 1.0)
            assert abs(alpha @ y) < 1e-9

    def test_converged_solutions_satisfy_kkt(self):
        rng = np.random.default_rng(13)
        seen = 0
        for _ in range(40):
            K, y = random_problem(rng)
            alpha, b, converged, _ = smo(K, y, 1.0)
            if converged:
                seen += 1
                assert kkt_max_violation(alpha, y, K, b, 1.0) <= dual.TOL
        assert seen >= 35

    def test_two_point_problem_exact(self):
        # K = I, y = (+1, -1): the dual optimum is alpha = (1, 1) clipped
        # at C, objective 2 - 1 = 1, and b = 0 by symmetry.
        K = np.eye(2)
        y = np.array([1.0, -1.0])
        alpha, b, converged, _ = smo(K, y, C=1.0)
        assert converged
        assert alpha == pytest.approx([1.0, 1.0])
        assert b == pytest.approx(0.0, abs=1e-12)
        assert svm_dual_objective(alpha, y, K) == pytest.approx(1.0)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            K, y = random_problem(rng, n_max=7)
            alpha, b, converged, _ = smo(K, y, 1.0)
            assert converged
            _, best = svm_dual_oracle(K, y, 1.0)
            got = svm_dual_objective(alpha, y, K)
            assert got <= best + 1e-9
            assert best - got <= 1e-4

    def test_kkt_helpers_agree(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            K, y = random_problem(rng)
            alpha, b, _, _ = smo(K, y, 1.0)
            fast = kkt_max_violation(alpha, y, K, b, 1.0)
            slow = svm_kkt_violation(alpha, y, K, b, 1.0)
            assert fast == pytest.approx(slow, abs=1e-12)


class TestCanonicalBias:
    def test_free_vector_mean(self):
        rng = np.random.default_rng(20)
        K, y = random_problem(rng, n_max=6)
        alpha, b, _, _ = smo(K, y, 1.0)
        free = (alpha > 1e-9) & (alpha < 1.0 - 1e-9)
        if free.any():
            f = K @ (alpha * y)
            assert b == pytest.approx(float(np.mean(y[free] - f[free])))

    def test_all_bound_bias_is_interval_midpoint(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(200):
            K, y = random_problem(rng, n_max=6)
            alpha, b, converged, _ = smo(K, y, C=1.0)
            if not converged:
                continue
            free = (alpha > 1e-9) & (alpha < 1.0 - 1e-9)
            if free.any():
                continue
            lo, hi = svm_bias_interval(alpha, y, K, 1.0)
            checked += 1
            # Near-optimal alphas can leave a crossed interval (lo > hi);
            # the midpoint convention still applies and minimizes the
            # worst-side violation.
            if np.isfinite(lo) and np.isfinite(hi):
                assert b == pytest.approx(0.5 * (lo + hi), abs=1e-7)
            elif np.isfinite(hi):
                assert b == pytest.approx(hi, abs=1e-7)
            elif np.isfinite(lo):
                assert b == pytest.approx(lo, abs=1e-7)
            if lo <= hi:
                assert lo - 1e-7 <= b <= hi + 1e-7
        assert checked >= 5

    def test_rho_from_recomputed_gradient_matches_b(self):
        # b comes from the incrementally updated gradient; rebuilding the
        # gradient from alpha alone must give the same bias.
        rng = np.random.default_rng(22)
        for _ in range(20):
            K, y = random_problem(rng)
            alpha, b, _, _ = smo(K, y, 1.0)
            gradient = (y[:, None] * y[None, :] * K) @ alpha - 1.0
            assert -dual.rho(alpha, y, gradient, 1.0) == pytest.approx(b, abs=1e-12)


class TestEpsilonSvr:
    def test_random_problems_satisfy_tube_conditions(self):
        rng = np.random.default_rng(30)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            X = rng.normal(size=(n, int(rng.integers(1, 4))))
            y = rng.integers(1, 6, size=n).astype(float)
            C = float(rng.choice([0.1, 1.0, 10.0]))
            epsilon = float(rng.choice([0.05, 0.1, 0.5]))
            K = X @ X.T
            beta, b, converged, _ = svr_dual(K, y, C, epsilon)
            assert converged
            assert np.all(np.abs(beta) <= C)
            assert abs(beta.sum()) < 1e-9
            assert svr_kkt_violation(beta, y, K, b, C, epsilon) <= dual.TOL


class TestSolverMatchesReference:
    """dual.solve advances a padded batch of problems in lock-step; every bit
    of each problem's output must equal the reference loop, which solves it
    alone and rebuilds its working-set masks each step."""

    @staticmethod
    def svm_pair_problem(rng):
        # A pair's dual uses a subset of its fold kernel's rows, as in svm._plan.
        K, y = random_problem(rng, n_max=14, d_max=4)
        rows = np.sort(rng.choice(y.size, size=int(rng.integers(2, y.size + 1)),
                                  replace=False))
        s = y[rows]
        if np.all(s == s[0]):
            s[0] = -s[0]
        C = float(rng.choice([0.05, 0.5, 1.0, 10.0]))
        return K, dual.Problem(rows, s, np.full(rows.size, -1.0), C)

    @staticmethod
    def svr_problem(rng):
        n = int(rng.integers(1, 10))
        X = rng.integers(0, 4, size=(n, int(rng.integers(1, 4)))).astype(float)
        y = rng.integers(1, 6, size=n).astype(float)
        epsilon = float(rng.choice([0.05, 0.1, 0.5]))
        C = float(rng.choice([0.05, 0.5, 1.0, 10.0]))
        return X @ X.T, dual.Problem(np.tile(np.arange(n), 2), np.repeat([1.0, -1.0], n),
                                     np.concatenate([epsilon - y, epsilon + y]), C)

    def mixed(self, rng, count):
        return [(self.svm_pair_problem if k % 2 else self.svr_problem)(rng)
                for k in range(count)]

    @staticmethod
    def solve(problems):
        """One batch, one kernel per problem."""
        return [sols[0] for sols in dual.solve([K for K, _ in problems],
                                               [[prob] for _, prob in problems])]

    @staticmethod
    def reference(K, prob, max_iter):
        Q = prob.s[:, None] * prob.s[None, :] * K[np.ix_(prob.rows, prob.rows)]
        return dual_solve_reference(Q, prob.s, prob.p, prob.C, dual.TOL, max_iter,
                                    dual._TAU)

    @staticmethod
    def assert_same(got, want):
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]

    def test_bit_identical_on_random_problems(self):
        rng = np.random.default_rng(60)
        problems = self.mixed(rng, 240)
        results = self.solve(problems)
        at_zero = at_c = size_two = 0
        for (K, prob), got in zip(problems, results):
            self.assert_same(got, self.reference(K, prob, dual.MAX_ITER))
            a, _, converged, _ = got
            assert converged
            at_zero += bool(np.any(a == 0.0))
            at_c += bool(np.any(a == prob.C))
            size_two += prob.s.size == 2
        assert at_zero >= 100 and at_c >= 50 and size_two >= 10
        assert len({got[3] for got in results}) > 20    # problems stop on their own

    def test_bit_identical_when_capped(self, monkeypatch):
        rng = np.random.default_rng(61)
        capped = 0
        for _ in range(6):
            problems = self.mixed(rng, 10)
            cap = int(rng.integers(1, 6))
            monkeypatch.setattr(dual, "MAX_ITER", cap)
            for (K, prob), got in zip(problems, self.solve(problems)):
                self.assert_same(got, self.reference(K, prob, cap))
                capped += not got[2]
        assert capped >= 30

    def test_result_does_not_depend_on_batch_order_or_company(self):
        rng = np.random.default_rng(62)
        problems = self.mixed(rng, 40)
        alone = [self.solve([problem])[0] for problem in problems]
        together = self.solve(problems)
        order = rng.permutation(len(problems))
        permuted = self.solve([problems[k] for k in order])
        for k in range(len(problems)):
            self.assert_same(together[k], alone[k])
            self.assert_same(permuted[int(np.flatnonzero(order == k)[0])], alone[k])

    def test_problems_sharing_a_kernel(self):
        # The pair duals of one fold all index rows of the same kernel matrix.
        rng = np.random.default_rng(63)
        kernels, batch = [], []
        for _ in range(5):
            K, y = random_problem(rng, n_max=12)
            pos, neg = np.flatnonzero(y > 0), np.flatnonzero(y < 0)
            kernels.append(K)
            batch.append([dual.Problem(rows, y[rows], np.full(rows.size, -1.0), 1.0)
                          for rows in (np.arange(y.size), np.concatenate([neg, pos[:1]]))])
        solved = dual.solve(kernels, batch)
        assert [len(sols) for sols in solved] == [2] * 5
        for K, probs, sols in zip(kernels, batch, solved):
            for prob, got in zip(probs, sols):
                self.assert_same(got, self.reference(K, prob, dual.MAX_ITER))


def test_iteration_cap_keeps_best_so_far_and_warns(monkeypatch):
    rng = np.random.default_rng(40)
    X = rng.normal(size=(20, 3))
    y = np.tile([1, 5], 10)
    monkeypatch.setattr(dual, "MAX_ITER", 2)

    svr = train(ModelSpec(kind="regression", regression_backend="epsilon_svr"), X, y)
    assert svr.warnings == ("svr: iteration cap reached",)
    beta, b, converged, iterations = svr_dual(linear_kernel(X, X), y.astype(float), 1.0, 0.1)
    assert not converged and iterations == 2
    assert np.array_equal(svr.weights, X.T @ beta) and svr.intercept == b

    svm = train(ModelSpec(kind="svm"), X, y)
    assert svm.warnings == ("svm pair 1-5: iteration cap reached",)
    assert 0 < svm.pairs[0].sv_coef.size <= 4     # two pair updates so far
    for x in X:
        assert 1 <= svm.predict(x).grade <= 5
