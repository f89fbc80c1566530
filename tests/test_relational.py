import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

from phcle import relational
from phcle.relational import emf_objective, grad_C, grad_W_relational
from reference import expected_cooccurrence, softplus


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
        # Scores far into both tails, where exp overflows, and at 0; with C
        # a single 1 the scores are exactly the entries of W.
        scores = np.array([[40.0, -40.0, 800.0, -800.0, 0.0]])
        Q = rng.uniform(1.0, 4.0, size=(1, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = expected_cooccurrence(Q, np.ones((1, 1)), scores)
        np.testing.assert_allclose(E, Q * expit(scores), rtol=1e-15)

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


# ---------------------------------------------------------------------------
# The kernels as they were before the row blocks, kept verbatim as
# references: the blocked passes must give the same bits.


def _softplus_inplace(x: np.ndarray) -> np.ndarray:
    """Overwrite the float array ``x`` with softplus(x); one temporary."""
    t = np.empty_like(x)
    np.abs(x, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    np.maximum(x, 0.0, out=x)
    x += t
    return x


def _residual(D, Q, C, W) -> np.ndarray:
    """``E - D`` with ``E = Q * sigmoid(C^T W)``, built in one array."""
    # Halving C is exact, so T starts as X / 2 bit for bit.
    T = (0.5 * C).T @ W
    np.tanh(T, out=T)
    T += 1.0
    T *= Q
    T *= 0.5
    T -= D
    return T


def unblocked_objective(D, Q, C, W):
    X = C.T @ W
    counts_term = np.vdot(D, X)
    return float(np.vdot(Q, _softplus_inplace(X)) - counts_term)


def blocked_instance(rng, contexts, labels, dim=3):
    """Sparse counts, a bound with zeros, and logits past +-40, where the
    tanh sigmoid and the softplus exp both saturate."""
    D = rng.integers(0, 6, size=(contexts, labels)).astype(float)
    D[rng.random(D.shape) < 0.5] = 0.0
    Q = D + rng.uniform(0.0, 3.0, size=D.shape)
    Q[:, 0] = D[:, 0] = 0.0
    C = rng.standard_normal((dim, contexts)) * 4.0
    W = rng.standard_normal((dim, labels)) * 4.0
    return D, Q, C, W


# Rows of one 256 KB block at 500 labels.
LABELS, ROWS = 500, max(1, 2**18 // (8 * 500))


class TestRowBlocks:
    """The row-blocked kernels against the unblocked ones, bit for bit."""

    SHAPES = [(n, LABELS) for n in (1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 5)] + [(3, 40000)]

    def test_block_size(self):
        assert relational._block_rows(np.empty((2, LABELS))) == ROWS
        assert relational._block_rows(np.empty((3, 40000))) == 1

    @pytest.mark.parametrize("shape", SHAPES)
    def test_kernels_keep_their_bits(self, shape):
        D, Q, C, W = blocked_instance(np.random.default_rng(shape[0]), *shape)
        assert grad_C(D, Q, C, W).tobytes() == (W @ _residual(D, Q, C, W).T).tobytes()
        assert grad_W_relational(D, Q, C, W).tobytes() == (C @ _residual(D, Q, C, W)).tobytes()
        assert np.float64(emf_objective(D, Q, C, W)).tobytes() == np.float64(unblocked_objective(D, Q, C, W)).tobytes()

    @pytest.mark.parametrize("shape", SHAPES + [(0,), (1,), (7,), (0, 5), (4, 0), (2, 3, 40000)])
    def test_softplus_keeps_its_bits(self, shape):
        x = np.random.default_rng(len(shape)).standard_normal(shape) * 60.0
        got = softplus(x)
        ref = _softplus_inplace(np.array(x, dtype=np.float64))
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_softplus_of_a_column_major_array(self):
        x = np.asfortranarray(np.random.default_rng(2).standard_normal((3 * ROWS + 5, LABELS)) * 60.0)
        assert softplus(x).tobytes() == _softplus_inplace(np.array(x)).tobytes()


def traced_peak(f, *args):
    """Bytes ``f(*args)`` allocates at its peak, numpy buffers included."""
    f(*args)  # warm up: first-call caches are not the kernel's memory
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Each kernel holds at most one dense contexts x labels array."""

    CONTEXTS, DIM = 600, 4
    # Python objects the calls make besides the arrays
    SLACK = 4096

    def instance(self):
        return blocked_instance(np.random.default_rng(0), self.CONTEXTS, LABELS, self.DIM)

    def test_objective_holds_one_dense_array_and_one_block(self):
        dense, block = 8 * self.CONTEXTS * LABELS, 8 * ROWS * LABELS
        assert traced_peak(emf_objective, *self.instance()) <= dense + block + self.SLACK

    @pytest.mark.parametrize("grad", [grad_C, grad_W_relational])
    def test_gradient_holds_one_dense_array_and_one_factor(self, grad):
        # next to the residual: the halved C while it is formed, then the output
        dense, factor = 8 * self.CONTEXTS * LABELS, 8 * self.DIM * max(self.CONTEXTS, LABELS)
        assert traced_peak(grad, *self.instance()) <= dense + factor + self.SLACK
