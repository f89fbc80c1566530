import numpy as np
import pytest
from scipy.special import expit

from phcle.relational import (
    emf_objective,
    expected_cooccurrence,
    grad_C,
    grad_W_relational,
    softplus,
)


def numeric_grad(f, X, h=1e-6):
    """Central differences, one coordinate at a time."""
    G = np.zeros_like(X)
    it = np.nditer(X, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bump = np.zeros_like(X)
        bump[idx] = h
        G[idx] = (f(X + bump) - f(X - bump)) / (2 * h)
    return G


def random_instance(rng, contexts, labels, dim):
    D = rng.integers(0, 5, size=(contexts, labels)).astype(float)
    Q = D + rng.uniform(0.0, 3.0, size=D.shape)
    C = rng.standard_normal((dim, contexts)) * 0.4
    W = rng.standard_normal((dim, labels)) * 0.4
    return D, Q, C, W


class TestSoftplus:
    def test_matches_naive_in_safe_range(self):
        x = np.linspace(-20, 20, 101)
        np.testing.assert_allclose(softplus(x), np.log1p(np.exp(x)), rtol=1e-12)

    def test_large_positive_does_not_overflow(self):
        x = np.array([500.0, 1000.0])
        out = softplus(x)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, x, rtol=1e-12)

    def test_large_negative_underflows_to_zero(self):
        assert softplus(np.array([-800.0]))[0] == 0.0

    def test_scalar_zero(self):
        assert softplus(np.array([0.0]))[0] == pytest.approx(np.log(2.0), rel=1e-14)


class TestObjective:
    def test_frozen_scalar_case(self):
        # D=1, Q=2, C=[1], W=[1]: -1*1 + 2*softplus(1)
        val = emf_objective(
            np.array([[1.0]]), np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]])
        )
        assert val == pytest.approx(1.6265233750364456, rel=1e-15)

    def test_zero_factors_give_log_two_mass(self):
        D = np.array([[1.0, 2.0], [0.0, 3.0]])
        Q = D + 1.0
        C = np.zeros((3, 2))
        W = np.zeros((3, 2))
        assert emf_objective(D, Q, C, W) == pytest.approx(np.sum(Q) * np.log(2.0), rel=1e-14)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            emf_objective(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="dimension"):
            emf_objective(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            emf_objective(
                np.array([[np.nan]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]])
            )


class TestExpectedCooccurrence:
    def test_frozen_scalar_case(self):
        E = expected_cooccurrence(np.array([[4.0]]), np.array([[1.0]]), np.array([[1.0]]))
        assert E[0, 0] == pytest.approx(2.9242343145200196, rel=1e-15)

    def test_elementwise_definition(self):
        rng = np.random.default_rng(3)
        D, Q, C, W = random_instance(rng, 4, 5, 3)
        E = expected_cooccurrence(Q, C, W)
        np.testing.assert_allclose(E, Q * expit(C.T @ W), rtol=1e-15)

    def test_bounded_by_q(self):
        rng = np.random.default_rng(9)
        _, Q, C, W = random_instance(rng, 6, 4, 2)
        E = expected_cooccurrence(Q, C, W)
        assert np.all(E >= 0.0) and np.all(E <= Q)


class TestGradients:
    @pytest.mark.parametrize("seed", range(6))
    def test_grad_C_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        D, Q, C, W = random_instance(rng, 3, 4, 2)
        G = grad_C(D, Q, C, W)
        num = numeric_grad(lambda Cx: emf_objective(D, Q, Cx, W), C)
        np.testing.assert_allclose(G, num, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_grad_W_matches_finite_differences(self, seed):
        rng = np.random.default_rng(10 + seed)
        D, Q, C, W = random_instance(rng, 4, 3, 3)
        G = grad_W_relational(D, Q, C, W)
        num = numeric_grad(lambda Wx: emf_objective(D, Q, C, Wx), W)
        np.testing.assert_allclose(G, num, rtol=1e-5, atol=1e-8)

    def test_gradients_vanish_at_stationary_counts(self):
        # When D equals the model's expected counts both gradients are zero.
        rng = np.random.default_rng(21)
        C = rng.standard_normal((2, 3))
        W = rng.standard_normal((2, 4))
        Q = rng.uniform(1.0, 4.0, size=(3, 4))
        D = Q * expit(C.T @ W)
        np.testing.assert_allclose(grad_C(D, Q, C, W), 0.0, atol=1e-12)
        np.testing.assert_allclose(grad_W_relational(D, Q, C, W), 0.0, atol=1e-12)

    def test_grad_shapes(self):
        rng = np.random.default_rng(5)
        D, Q, C, W = random_instance(rng, 5, 7, 3)
        assert grad_C(D, Q, C, W).shape == C.shape
        assert grad_W_relational(D, Q, C, W).shape == W.shape


def oracle_instance(rng, contexts, labels, dim, max_logit=50.0):
    """Random instance with zero counts, an empty context row, an empty
    label column, a context with a zero bound, and logits reaching
    ``|C^T W| = max_logit``."""
    D = rng.integers(0, 6, size=(contexts, labels)).astype(float)
    D[rng.random(D.shape) < 0.5] = 0.0
    D[1, :] = 0.0
    D[:, 2] = 0.0
    Q = D + rng.uniform(0.0, 3.0, size=D.shape)
    D[0, :] = Q[0, :] = 0.0
    C = rng.standard_normal((dim, contexts))
    W = rng.standard_normal((dim, labels))
    scale = np.sqrt(max_logit / np.abs(C.T @ W).max())
    return D, Q, C * scale, W * scale


def reference_residual(D, Q, C, W):
    return Q * expit(C.T @ W) - D


def reference_objective(D, Q, C, W):
    X = C.T @ W
    return float(np.sum(-D * X + Q * (np.maximum(X, 0.0) + np.log1p(np.exp(-np.abs(X))))))


class TestOracles:
    """The in-place kernels against the plain expit/softplus formulas."""

    SHAPES = [(5, 7, 3), (40, 30, 6), (120, 90, 10)]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_grad_C_matches_reference(self, seed, shape):
        D, Q, C, W = oracle_instance(np.random.default_rng(seed), *shape)
        ref = W @ reference_residual(D, Q, C, W).T
        got = grad_C(D, Q, C, W)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_grad_W_matches_reference(self, seed, shape):
        D, Q, C, W = oracle_instance(np.random.default_rng(100 + seed), *shape)
        ref = C @ reference_residual(D, Q, C, W)
        got = grad_W_relational(D, Q, C, W)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_objective_matches_reference(self, seed, shape):
        D, Q, C, W = oracle_instance(np.random.default_rng(200 + seed), *shape)
        assert emf_objective(D, Q, C, W) == pytest.approx(reference_objective(D, Q, C, W), rel=1e-13)

    def test_inputs_are_left_unchanged(self):
        D, Q, C, W = oracle_instance(np.random.default_rng(7), 6, 5, 3)
        copies = [m.copy() for m in (D, Q, C, W)]
        grad_C(D, Q, C, W)
        grad_W_relational(D, Q, C, W)
        emf_objective(D, Q, C, W)
        for before, after in zip(copies, (D, Q, C, W)):
            np.testing.assert_array_equal(before, after)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", "DQCW")
    def test_objective_names_the_non_finite_matrix(self, name, bad):
        mats = dict(zip("DQCW", oracle_instance(np.random.default_rng(3), 6, 5, 3)))
        mats[name][-1, -1] = bad
        with pytest.raises(ValueError, match=f"^{name} contains non-finite"):
            emf_objective(mats["D"], mats["Q"], mats["C"], mats["W"])

    def test_objective_reports_the_first_non_finite_matrix(self):
        D, Q, C, W = oracle_instance(np.random.default_rng(4), 6, 5, 3)
        Q[0, 0] = np.nan
        W[0, 0] = np.inf
        with pytest.raises(ValueError, match="^Q contains non-finite"):
            emf_objective(D, Q, C, W)

    def test_objective_overflow_with_finite_inputs_is_inf(self):
        val = emf_objective(
            np.array([[0.0]]), np.array([[1e308]]), np.array([[1e154]]), np.array([[1e154]])
        )
        assert val == np.inf
