import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phcle.datamodel import HyperParams
from phcle.descriptive import (
    LIPSCHITZ_FLOOR,
    descriptive_objective,
    elastic_net_objective,
    fista_solve_U,
    grad_U_smooth,
    grad_W_descriptive,
    lipschitz_bound,
    masked_residual,
    prox_elastic_net,
)
from phcle.errors import DivergenceError


def numeric_grad(f, X, h=1e-6):
    G = np.zeros_like(X)
    it = np.nditer(X, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bump = np.zeros_like(X)
        bump[idx] = h
        G[idx] = (f(X + bump) - f(X - bump)) / (2 * h)
    return G


def random_problem(rng, labels, attrs, dim, mask_frac=0.3):
    A = rng.standard_normal((labels, attrs))
    I = (rng.uniform(size=(labels, attrs)) > mask_frac).astype(float)
    W = rng.standard_normal((dim, labels))
    U = rng.standard_normal((dim, attrs))
    return A, I, W, U


class TestMaskedResidual:
    def test_full_mask_is_plain_residual(self):
        rng = np.random.default_rng(0)
        A, _, W, U = random_problem(rng, 4, 3, 2)
        R = masked_residual(A, np.ones_like(A), W, U)
        np.testing.assert_array_equal(R, A - W.T @ U)

    def test_masked_entries_exactly_zero(self):
        rng = np.random.default_rng(1)
        A, I, W, U = random_problem(rng, 5, 4, 3)
        R = masked_residual(A, I, W, U)
        assert np.all(R[I == 0] == 0.0)

    def test_garbage_behind_mask_changes_nothing(self):
        # Unobserved cells may hold nan or inf without touching any output bit.
        rng = np.random.default_rng(2)
        A, I, W, U = random_problem(rng, 5, 4, 3)
        A_dirty = A.copy()
        A_dirty[I == 0] = np.nan
        A_dirty[np.unravel_index(int(np.argmin(I)), I.shape)] = np.inf
        assert np.array_equal(masked_residual(A, I, W, U), masked_residual(A_dirty, I, W, U))
        assert np.array_equal(
            grad_W_descriptive(A, I, W, U, 0.7), grad_W_descriptive(A_dirty, I, W, U, 0.7)
        )
        assert np.array_equal(
            grad_U_smooth(A, I, W, U, 0.7), grad_U_smooth(A_dirty, I, W, U, 0.7)
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            masked_residual(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((1, 2)), np.zeros((1, 3)))


class TestObjectiveAndGradients:
    def test_scalar_value(self):
        # single observed cell: 0.5 * w * (a - w^T u)^2 = 0.5 * 2 * (3 - 2)^2
        val = descriptive_objective([[3.0]], [[1.0]], [[1.0]], [[2.0]], 2.0)
        assert val == pytest.approx(1.0, rel=1e-15)

    def test_weight_scales_linearly(self):
        rng = np.random.default_rng(3)
        A, I, W, U = random_problem(rng, 4, 5, 2)
        base = descriptive_objective(A, I, W, U, 1.0)
        assert descriptive_objective(A, I, W, U, 3.5) == pytest.approx(3.5 * base, rel=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_W_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        A, I, W, U = random_problem(rng, 4, 3, 3)
        G = grad_W_descriptive(A, I, W, U, 1.3)
        num = numeric_grad(lambda Wx: descriptive_objective(A, I, Wx, U, 1.3), W)
        np.testing.assert_allclose(G, num, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_U_matches_finite_differences(self, seed):
        rng = np.random.default_rng(20 + seed)
        A, I, W, U = random_problem(rng, 3, 5, 2)
        G = grad_U_smooth(A, I, W, U, 0.8)
        num = numeric_grad(lambda Ux: descriptive_objective(A, I, W, Ux, 0.8), U)
        np.testing.assert_allclose(G, num, rtol=1e-5, atol=1e-8)

    def test_zero_residual_means_zero_gradients(self):
        rng = np.random.default_rng(8)
        W = rng.standard_normal((2, 3))
        U = rng.standard_normal((2, 4))
        A = W.T @ U
        I = np.ones_like(A)
        assert np.all(grad_W_descriptive(A, I, W, U, 1.0) == 0.0)
        assert np.all(grad_U_smooth(A, I, W, U, 1.0) == 0.0)


def prox_oracle_scalar(k, tau, lam2, lam3, grid_half_width=6.0, step=1e-4):
    """Brute-force the 1-d prox objective over a fine grid."""
    us = np.arange(-grid_half_width, grid_half_width, step)
    vals = 0.5 * tau * (us - k) ** 2 + lam2 * np.abs(us) + 0.5 * lam3 * us ** 2
    return us[int(np.argmin(vals))]


class TestProxElasticNet:
    def test_frozen_anchor(self):
        assert prox_elastic_net(np.array([2.0]), 1.0, 0.5, 1.0)[0] == pytest.approx(0.75)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            k = float(rng.uniform(-4, 4))
            tau = float(rng.uniform(0.2, 3.0))
            lam2 = float(rng.uniform(0.0, 1.5))
            lam3 = float(rng.uniform(0.0, 2.0))
            got = prox_elastic_net(np.array([k]), tau, lam2, lam3)[0]
            assert got == pytest.approx(prox_oracle_scalar(k, tau, lam2, lam3), abs=2e-4)

    def test_soft_threshold_dead_zone(self):
        out = prox_elastic_net(np.array([-0.4, 0.0, 0.4]), 1.0, 0.5, 0.0)
        assert np.array_equal(out, np.zeros(3))

    def test_odd_symmetry(self):
        K = np.linspace(-3, 3, 13)
        out = prox_elastic_net(K, 1.7, 0.3, 0.2)
        np.testing.assert_array_equal(out, -prox_elastic_net(-K, 1.7, 0.3, 0.2))

    def test_nonexpansive(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(50)
        y = rng.standard_normal(50)
        px = prox_elastic_net(x, 1.2, 0.4, 0.6)
        py = prox_elastic_net(y, 1.2, 0.4, 0.6)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="positive"):
            prox_elastic_net(np.zeros(2), 0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            prox_elastic_net(np.zeros(2), 1.0, -0.1, 0.1)
        with pytest.raises(ValueError):
            prox_elastic_net(np.zeros(2), 1.0, 0.1, -0.1)


class TestLipschitzBound:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_eigensolver(self, seed):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 8))))
        weight = float(rng.uniform(0.1, 4.0))
        expected = weight * float(np.linalg.eigvalsh(W @ W.T)[-1])
        assert lipschitz_bound(W, weight) == pytest.approx(expected, rel=1e-6)

    def test_top_eigenvector_orthogonal_to_ones(self):
        # W W^T = [[1, -1], [-1, 1]] has eigenvalues 2 and 0; the top
        # eigenvector (1, -1)/sqrt(2) has no component along (1, 1).
        W = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert lipschitz_bound(W, 1.0) == pytest.approx(2.0, rel=1e-7)

    def test_zero_matrix_hits_floor(self):
        assert lipschitz_bound(np.zeros((3, 4)), 1.0) == LIPSCHITZ_FLOOR

    def test_zero_weight_hits_floor(self):
        assert lipschitz_bound(np.ones((2, 2)), 0.0) == LIPSCHITZ_FLOOR

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            lipschitz_bound(np.ones((2, 2)), -1.0)


def with_top_singular_values(rng, dim, labels, top):
    """A random dim x labels W whose leading singular values are ``top``,
    followed by smaller random ones."""
    k = min(dim, labels)
    rest = np.sort(rng.uniform(0.0, 0.5, size=k))[::-1] * min(top)
    s = np.concatenate([top, rest])[:k]
    left, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    right, _ = np.linalg.qr(rng.standard_normal((labels, k)))
    return (left * s) @ right.T


class TestExactLipschitzBound:
    # Overflows a normalization that squares the entries; the bound must
    # still see the 1e80 entry.
    HUGE_W = np.array([[1e80, 0.0, 0.0], [0.0, 1.0, -0.5]])

    def test_huge_entry_gives_its_square(self):
        assert lipschitz_bound(self.HUGE_W, 1.0) == pytest.approx(1e160, rel=1e-12)

    def test_fista_descends_with_a_huge_entry(self):
        A = np.random.default_rng(0).standard_normal((3, 4))
        I = np.ones_like(A)
        U0 = np.full((2, 4), 1e-81)
        h = HyperParams(lambda2=0.01, lambda3=0.01, tolerance=1e-12)
        U, _, F = fista_solve_U(A, I, self.HUGE_W, U0, h)
        assert np.isfinite(U).all()
        F0 = elastic_net_objective(A, I, self.HUGE_W, U0, h.lambda1, h.lambda2, h.lambda3)
        assert F < F0

    @pytest.mark.parametrize(
        "W",
        [
            np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 2.0]]),
            np.full((2, 3), 1e155),
        ],
        ids=["nan", "gram-overflow"],
    )
    def test_non_finite_gram_is_inf_and_diverges(self, W):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lipschitz_bound(W, 1.0) == np.inf
        A = np.random.default_rng(0).standard_normal((3, 4))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                fista_solve_U(A, np.ones_like(A), W, np.zeros((2, 4)), HyperParams())

    def test_dim_zero_hits_floor(self):
        assert lipschitz_bound(np.zeros((0, 5)), 1.0) == LIPSCHITZ_FLOOR

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("top", ["distinct", "tied", "nearly-tied"])
    def test_agrees_with_eigvalsh(self, seed, top):
        rng = np.random.default_rng(seed)
        dim, labels = int(rng.integers(2, 9)), int(rng.integers(2, 30))
        s1 = float(rng.uniform(0.5, 20.0))
        leading = {"distinct": [s1, 0.5 * s1], "tied": [s1, s1], "nearly-tied": [s1, s1 * (1 - 1e-9)]}
        W = with_top_singular_values(rng, dim, labels, leading[top])
        weight = float(rng.uniform(0.1, 4.0))
        expected = weight * float(np.linalg.eigvalsh(W @ W.T)[-1])
        assert lipschitz_bound(W, weight) == pytest.approx(expected, rel=1e-12)


class TestFista:
    def hyper(self, **kw):
        base = dict(lambda1=1.0, lambda2=0.05, lambda3=0.1, inner_max_iter=50, tolerance=1e-4)
        base.update(kw)
        return HyperParams(**base)

    def test_zero_problem_converges_immediately(self):
        A = np.zeros((3, 2))
        I = np.ones_like(A)
        W = np.eye(3)
        U, iters, F = fista_solve_U(A, I, W, np.zeros((3, 2)), self.hyper())
        assert np.array_equal(U, np.zeros((3, 2)))
        assert iters == 1
        assert F == 0.0

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            A, I, W, U0 = random_problem(rng, 5, 4, 3)
            h = self.hyper()
            U, _, F = fista_solve_U(A, I, W, U0, h)
            F0 = elastic_net_objective(A, I, W, U0, h.lambda1, h.lambda2, h.lambda3)
            assert F <= F0 + 1e-12
            assert F == pytest.approx(
                elastic_net_objective(A, I, W, U, h.lambda1, h.lambda2, h.lambda3), rel=1e-12
            )

    def test_identity_factor_recovers_closed_form(self):
        # With W = I the subproblem separates per entry and the exact
        # minimizer is one prox application of the observed values.
        rng = np.random.default_rng(32)
        A = rng.standard_normal((4, 3))
        I = (rng.uniform(size=A.shape) > 0.25).astype(float)
        W = np.eye(4)
        h = self.hyper(lambda1=2.0, lambda2=0.3, lambda3=0.5, inner_max_iter=2000, tolerance=1e-14)
        U, _, _ = fista_solve_U(A, I, W, np.zeros_like(A), h)
        expected = np.where(I != 0, prox_elastic_net(A, 2.0, 0.3, 0.5), 0.0)
        np.testing.assert_allclose(U, expected, atol=1e-8)

    def test_masked_garbage_is_bitwise_inert(self):
        rng = np.random.default_rng(33)
        A, I, W, U0 = random_problem(rng, 6, 4, 3)
        A_dirty = A.copy()
        A_dirty[I == 0] = np.inf
        h = self.hyper()
        U_clean, it_clean, F_clean = fista_solve_U(A, I, W, U0, h)
        U_dirty, it_dirty, F_dirty = fista_solve_U(A_dirty, I, W, U0, h)
        assert np.array_equal(U_clean, U_dirty)
        assert (it_clean, F_clean) == (it_dirty, F_dirty)

    def test_budget_exhaustion_reports_iterations(self):
        rng = np.random.default_rng(34)
        A, I, W, U0 = random_problem(rng, 5, 4, 3)
        h = self.hyper(inner_max_iter=7, tolerance=1e-30)
        _, iters, _ = fista_solve_U(A, I, W, U0, h)
        assert iters == 7

    def test_overflowing_start_raises_divergence(self):
        h = self.hyper()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                fista_solve_U([[0.0]], [[1.0]], [[2.0]], [[1e308]], h)
        assert err.value.iteration == 1


# Oracles: the residual formula and the FISTA loop as they stood before the
# solve reused one residual buffer, copied verbatim. The buffered residual
# must reproduce their bits. The solve takes its step gradient from the
# gradients at the last two iterates, so after its first two steps it matches
# the loop below to rounding (see assert_close_outcome).


def ref_masked_residual(A, I, W, U):
    A = np.asarray(A, dtype=np.float64)
    I = np.asarray(I, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    U = np.asarray(U, dtype=np.float64)
    return np.where(I != 0, A - W.T @ U, 0.0)


def ref_descriptive_objective(A, I, W, U, weight):
    R = ref_masked_residual(A, I, W, U)
    return 0.5 * weight * float(np.sum(R * R))


def ref_grad_W_descriptive(A, I, W, U, weight):
    R = ref_masked_residual(A, I, W, U)
    return -weight * (U @ R.T)


def ref_grad_U_smooth(A, I, W, U, weight):
    R = ref_masked_residual(A, I, W, U)
    return -weight * (W @ R)


def ref_prox_elastic_net(K, tau, lambda2, lambda3):
    if tau <= 0:
        raise ValueError("prox step weight tau must be positive")
    if lambda2 < 0 or lambda3 < 0:
        raise ValueError("penalty weights must be >= 0")
    K = np.asarray(K, dtype=np.float64)
    return np.sign(K) * np.maximum(tau * np.abs(K) - lambda2, 0.0) / (tau + lambda3)


def ref_elastic_net_objective(A, I, W, U, weight, lambda2, lambda3):
    U = np.asarray(U, dtype=np.float64)
    return (
        ref_descriptive_objective(A, I, W, U, weight)
        + 0.5 * lambda3 * float(np.sum(U * U))
        + lambda2 * float(np.sum(np.abs(U)))
    )


def ref_fista_solve_U(A, I, W, U_init, hyper):
    A = np.asarray(A, dtype=np.float64)
    I = np.asarray(I, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    U_prev = np.array(U_init, dtype=np.float64, copy=True)

    weight, lambda2, lambda3 = hyper.lambda1, hyper.lambda2, hyper.lambda3
    L = lipschitz_bound(W, weight)
    Z = U_prev.copy()
    t = 1.0
    F_prev = ref_elastic_net_objective(A, I, W, U_prev, weight, lambda2, lambda3)
    best_U, best_F = U_prev.copy(), F_prev
    iterations = 0
    for j in range(1, hyper.inner_max_iter + 1):
        step = Z - ref_grad_U_smooth(A, I, W, Z, weight) / L
        U_new = ref_prox_elastic_net(step, L, lambda2, lambda3)
        if not np.isfinite(U_new).all():
            raise DivergenceError(j, f"non-finite iterate at inner iteration {j}")
        iterations = j
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        Z = U_new + ((t - 1.0) / t_next) * (U_new - U_prev)
        t = t_next
        F_new = ref_elastic_net_objective(A, I, W, U_new, weight, lambda2, lambda3)
        if F_new < best_F:
            best_U, best_F = U_new.copy(), F_new
        rel_change = abs(F_prev - F_new) / max(abs(F_new), 1e-12)
        U_prev, F_prev = U_new, F_new
        if rel_change < hyper.tolerance:
            break
    return best_U, iterations, best_F


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def solve_outcome(solve, *args):
    """``(U, iterations, F)``, or the divergence as ``(iteration, message)``."""
    try:
        return solve(*args)
    except DivergenceError as err:
        return err.iteration, str(err)


def assert_same_outcome(got, want):
    assert len(got) == len(want)
    if len(want) == 2:
        assert got == want
        return
    assert_same_bits(got[0], want[0])
    assert got[1] == want[1]
    assert_same_bits(got[2], want[2])


def solve_with_warnings(solve, *args):
    """The solve's outcome and the set of warning messages it raised."""
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        outcome = solve_outcome(solve, *args)
    return outcome, {str(w.message) for w in warned}


def assert_objective_close(got, want):
    assert abs(got - want) <= 1e-12 * abs(want)


def assert_close_outcome(got, want):
    """The solve agrees with the reference loop to rounding: the same
    iteration count, iterates within 1e-10 of the largest reference entry,
    the objective within 1e-12 relative; a divergence is the same one."""
    assert len(got) == len(want)
    if len(want) == 2:
        assert got == want
        return
    assert got[1] == want[1]
    assert np.max(np.abs(got[0] - want[0]), initial=0.0) <= 1e-10 * np.max(np.abs(want[0]), initial=0.0)
    assert_objective_close(got[2], want[2])


def oracle_instance(seed, labels=9, attrs=7, dim=3):
    """A random problem whose unobserved cells hold NaN, +-inf and 1e308
    placeholders, with label 0 and attribute 2 never observed."""
    rng = np.random.default_rng(seed)
    A = 3.0 * rng.standard_normal((labels, attrs))
    I = (rng.uniform(size=A.shape) < 0.6).astype(float)
    I[0, :] = 0.0
    I[:, 2] = 0.0
    hidden = np.flatnonzero(I == 0)
    A.flat[hidden] = rng.choice([np.nan, np.inf, -np.inf, 1e308], size=hidden.size)
    W = rng.standard_normal((dim, labels))
    U = rng.standard_normal((dim, attrs))
    return A, I, W, U


def fista_hyper(**kw):
    base = dict(lambda1=1.0, lambda2=0.05, lambda3=0.1, inner_max_iter=50, tolerance=1e-4)
    base.update(kw)
    return HyperParams(**base)


class TestBufferedResidualOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_residual_and_its_consumers_match_where_formula(self, seed):
        A, I, W, U = oracle_instance(seed)
        assert_same_bits(masked_residual(A, I, W, U), ref_masked_residual(A, I, W, U))
        assert_same_bits(descriptive_objective(A, I, W, U, 0.7), ref_descriptive_objective(A, I, W, U, 0.7))
        assert_same_bits(grad_W_descriptive(A, I, W, U, 0.7), ref_grad_W_descriptive(A, I, W, U, 0.7))
        assert_same_bits(grad_U_smooth(A, I, W, U, 0.7), ref_grad_U_smooth(A, I, W, U, 0.7))
        assert_same_bits(
            elastic_net_objective(A, I, W, U, 0.7, 0.05, 0.1),
            ref_elastic_net_objective(A, I, W, U, 0.7, 0.05, 0.1),
        )

    def test_unobserved_cells_are_positive_zero(self):
        # W^T U is negative in about half the hidden cells, and -x * 0 is -0.0
        # before the subtraction from the zeroed assoc turns it into +0.0.
        A, I, W, U = oracle_instance(7)
        assert (W.T @ U)[I == 0].min() < 0
        R = masked_residual(A, I, W, U)
        assert np.all(R[I == 0] == 0.0) and not np.signbit(R[I == 0]).any()

    def test_exact_zero_residual_keeps_its_sign(self):
        A, I, W, U = oracle_instance(8)
        observed = I != 0
        A[observed] = (W.T @ U)[observed]
        A[0, 0] = -0.0
        U[:, 0] = 0.0
        I[0, 0] = 1.0
        assert_same_bits(masked_residual(A, I, W, U), ref_masked_residual(A, I, W, U))

    @pytest.mark.parametrize("seed", range(6))
    def test_solve_matches_reference_on_early_stop(self, seed):
        A, I, W, U0 = oracle_instance(100 + seed)
        h = fista_hyper(inner_max_iter=500)
        want, ref_warned = solve_with_warnings(ref_fista_solve_U, A, I, W, U0, h)
        got, warned = solve_with_warnings(fista_solve_U, A, I, W, U0, h)
        assert want[1] < h.inner_max_iter
        assert_close_outcome(got, want)
        assert warned == ref_warned

    @pytest.mark.parametrize("seed", range(4))
    def test_solve_matches_reference_on_budget_exhaustion(self, seed):
        A, I, W, U0 = oracle_instance(200 + seed, labels=12, attrs=5, dim=4)
        h = fista_hyper(inner_max_iter=15, tolerance=1e-30)
        want, ref_warned = solve_with_warnings(ref_fista_solve_U, A, I, W, U0, h)
        got, warned = solve_with_warnings(fista_solve_U, A, I, W, U0, h)
        assert want[1] == 15
        assert_close_outcome(got, want)
        assert warned == ref_warned

    def test_solve_leaves_its_inputs_unchanged(self):
        A, I, W, U0 = oracle_instance(300)
        copies = [x.copy() for x in (A, I, W, U0)]
        fista_solve_U(A, I, W, U0, fista_hyper())
        for before, after in zip(copies, (A, I, W, U0)):
            assert_same_bits(after, before)

    @staticmethod
    def overflow_instance():
        # Label 0 is never observed and W^T U overflows to inf in its first
        # cell; inf * 0 in the buffered residual would leave NaN there.
        W = np.array([[1e76, 0.0, 0.0], [0.0, 1.0, -0.5]])
        U = np.array([[1e240, 0.0], [0.3, -0.2]])
        A = np.array([[np.nan, 7.0], [0.5, 1.0], [-1.0, 2.0]])
        I = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        with np.errstate(over="ignore"):
            assert np.isposinf(W.T @ U)[0, 0]
        return A, I, W, U

    def test_overflow_in_unobserved_cell_matches_where_formula(self):
        A, I, W, U = self.overflow_instance()
        with np.errstate(over="ignore"):
            R = masked_residual(A, I, W, U)
            assert_same_bits(R, ref_masked_residual(A, I, W, U))
            assert np.isfinite(R).all()
            assert_same_bits(descriptive_objective(A, I, W, U, 0.5), ref_descriptive_objective(A, I, W, U, 0.5))
            assert_same_bits(grad_W_descriptive(A, I, W, U, 0.5), ref_grad_W_descriptive(A, I, W, U, 0.5))
            assert_same_bits(grad_U_smooth(A, I, W, U, 0.5), ref_grad_U_smooth(A, I, W, U, 0.5))

    @pytest.mark.parametrize(
        "weight, diverges",
        # L = weight * 1e152 (floored at 1e-12): with weight 1 the prox
        # overflows at the first step; a tiny weight keeps L * |U| finite.
        [(1e-200, False), (1.0, True)],
    )
    def test_overflow_in_unobserved_cell_solve_matches_reference(self, weight, diverges):
        A, I, W, U0 = self.overflow_instance()
        h = fista_hyper(lambda1=weight, inner_max_iter=6, tolerance=1e-12)
        with warnings.catch_warnings(record=True) as ref_warned:
            warnings.simplefilter("always")
            want = solve_outcome(ref_fista_solve_U, A, I, W, U0, h)
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            got = solve_outcome(fista_solve_U, A, I, W, U0, h)
        assert (len(want) == 2) == diverges
        assert_same_outcome(got, want)
        assert {str(w.message) for w in warned} == {str(w.message) for w in ref_warned}


finite_values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_property_residual_and_solve_match_reference(data):
    labels, attrs, dim = (data.draw(st.integers(1, n)) for n in (8, 8, 4))
    A = data.draw(hnp.arrays(np.float64, (labels, attrs), elements=finite_values))
    observed = data.draw(hnp.arrays(np.bool_, (labels, attrs)))
    placeholder = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -0.0]))
    A = np.where(observed, A, placeholder)
    I = observed.astype(np.float64)
    W = data.draw(hnp.arrays(np.float64, (dim, labels), elements=st.floats(-10, 10)))
    U0 = data.draw(hnp.arrays(np.float64, (dim, attrs), elements=st.floats(-10, 10)))
    assert_same_bits(masked_residual(A, I, W, U0), ref_masked_residual(A, I, W, U0))
    h = HyperParams(
        lambda1=data.draw(st.floats(0.0, 4.0)),
        lambda2=data.draw(st.floats(0.0, 1.0)),
        lambda3=data.draw(st.floats(0.0, 1.0)),
        inner_max_iter=data.draw(st.integers(1, 40)),
        tolerance=data.draw(st.sampled_from([1e-2, 1e-6, 1e-30])),
    )
    with np.errstate(all="ignore"):
        want = solve_outcome(ref_fista_solve_U, A, I, W, U0, h)
        got = solve_outcome(fista_solve_U, A, I, W, U0, h)
        # The first two steps take their gradients as the reference does.
        for budget in (1, 2):
            short = replace(h, inner_max_iter=budget)
            assert_same_outcome(
                solve_outcome(fista_solve_U, A, I, W, U0, short),
                solve_outcome(ref_fista_solve_U, A, I, W, U0, short),
            )
    # Iteration counts are pinned on the fixed instances only: an exact-zero
    # relative change (the 1e-30 tolerance) is a rounding-level stop.
    if len(want) == 2 or len(got) == 2:
        assert got == want
    else:
        assert_objective_close(got[2], want[2])
