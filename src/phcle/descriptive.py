"""Masked least-squares descriptive loss and its elastic-net solver.

The loss is ``(weight / 2) * ||mask * (A - W^T U)||_F^2`` over the observed
entries only; U additionally carries an l1 penalty (lambda2) and an l2
penalty (lambda3), minimized with an accelerated proximal gradient loop.

Every masked residual is formed by :class:`_Residual`, which holds, for one
``(A, I)`` pair, the observed cells as a bool array, ``A`` with its
unobserved cells set to 0 (so placeholders such as NaN never reach the
arithmetic) and one ``labels x attrs`` buffer. A residual is written into
that buffer in three passes:

    buf = W^T U;   buf *= observed;   buf = A_obs - buf

This gives ``A - W^T U`` on observed cells and ``0.0 - (+/-0.0) = +0.0`` on
unobserved ones: the same bits, sign of zero included, as
``np.where(I != 0, A - W^T U, 0.0)``. The objective squares the buffer in
place and sums it with ``np.sum``, so it keeps the pairwise summation of
``np.sum(R * R)``.

A FISTA solve evaluates two residuals per step, so it prepares these arrays
once per solve and reuses the buffer: no per-step conversions, shape checks,
parameter checks or fresh temporaries. On a random 4000 x 150 mask, 60%
observed, a masked write (``np.where``, ``np.copyto(where=)``,
``np.putmask``, boolean indexing) took 3.4 to 4.4 ms against 0.5 ms for
the multiply, so masked writes stay out of the loop. The one case the multiply gets wrong is a
``W^T U`` that overflowed in an unobserved cell: ``inf * 0`` leaves NaN
where the masked formula has 0. That NaN reaches the gradient and the sum
of squares, so those are checked late, and only a non-finite one takes the
masked write that zeroes the unobserved cells, and is computed again from
the cleared buffer.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError

LIPSCHITZ_FLOOR = 1e-12


def _check_shapes(A, I, W, U):
    if A.shape != I.shape:
        raise ValueError(f"assoc {A.shape} and mask {I.shape} differ in shape")
    if W.shape[0] != U.shape[0]:
        raise ValueError(f"factors disagree on dimension: W has {W.shape[0]} rows, U has {U.shape[0]}")
    if A.shape != (W.shape[1], U.shape[1]):
        raise ValueError(
            f"assoc shaped {A.shape} needs W with {A.shape[0]} columns and U with {A.shape[1]} columns"
        )


def _checked(A, I, W, U):
    A, I, W, U = (np.asarray(x, dtype=np.float64) for x in (A, I, W, U))
    _check_shapes(A, I, W, U)
    return A, I, W, U


class _Residual:
    """Masked residuals of one ``(A, I)`` pair, computed into one reused
    buffer (see the module docstring)."""

    def __init__(self, A, I):
        self.observed = I != 0
        self.A_obs = np.where(self.observed, A, 0.0)
        self.buf = np.empty(A.shape)

    def of(self, W, U) -> np.ndarray:
        """The buffer, set to ``A - W^T U`` on observed cells and +0.0
        elsewhere, or NaN where ``W^T U`` overflowed in an unobserved cell."""
        buf = self.buf
        np.matmul(W.T, U, out=buf)
        with np.errstate(invalid="ignore"):  # inf * 0; the masked formula never forms it
            buf *= self.observed
        return np.subtract(self.A_obs, buf, out=buf)

    def clear_unobserved(self) -> np.ndarray:
        np.copyto(self.buf, 0.0, where=~self.observed)
        return self.buf

    def misfit(self, W, U, weight: float) -> float:
        """``(weight / 2) * ||masked residual||_F^2``, squaring in the buffer."""
        R = self.of(W, U)
        total = np.sum(np.multiply(R, R, out=R))
        if not np.isfinite(total):
            total = np.sum(self.clear_unobserved())
        return 0.5 * weight * float(total)

    def grad_U(self, W, U, weight: float) -> np.ndarray:
        """``-weight * W R``."""
        G = -weight * (W @ self.of(W, U))
        if not np.isfinite(G).all():
            G = -weight * (W @ self.clear_unobserved())
        return G


def masked_residual(A, I, W, U) -> np.ndarray:
    """``A - W^T U`` where the mask is 1, exactly 0 elsewhere.

    Unobserved entries of A never touch the arithmetic, so they may hold
    any value, including non-finite placeholders.
    """
    A, I, W, U = _checked(A, I, W, U)
    residual = _Residual(A, I)
    R = residual.of(W, U)
    if not np.isfinite(R).all():
        R = residual.clear_unobserved()
    return R


def descriptive_objective(A, I, W, U, weight: float) -> float:
    """``(weight / 2) * ||masked residual||_F^2``."""
    A, I, W, U = _checked(A, I, W, U)
    return _Residual(A, I).misfit(W, U, weight)


def grad_W_descriptive(A, I, W, U, weight: float) -> np.ndarray:
    """Gradient of the descriptive loss in W: ``-weight * U R^T``."""
    R = masked_residual(A, I, W, U)
    return -weight * (U @ R.T)


def grad_U_smooth(A, I, W, U, weight: float) -> np.ndarray:
    """Gradient of the (smooth) descriptive loss in U: ``-weight * W R``."""
    A, I, W, U = _checked(A, I, W, U)
    return _Residual(A, I).grad_U(W, U, weight)


def _check_prox_weights(tau, lambda2, lambda3):
    if tau <= 0:
        raise ValueError("prox step weight tau must be positive")
    if lambda2 < 0 or lambda3 < 0:
        raise ValueError("penalty weights must be >= 0")


def _prox(K, tau, lambda2, lambda3):
    return np.sign(K) * np.maximum(tau * np.abs(K) - lambda2, 0.0) / (tau + lambda3)


def prox_elastic_net(K, tau: float, lambda2: float, lambda3: float) -> np.ndarray:
    """Closed-form minimizer of (tau/2)(u - k)^2 + (lambda3/2)u^2 + lambda2|u|.

    Applied elementwise: soft-threshold by lambda2/tau, then shrink by
    tau / (tau + lambda3).
    """
    _check_prox_weights(tau, lambda2, lambda3)
    return _prox(np.asarray(K, dtype=np.float64), tau, lambda2, lambda3)


def lipschitz_bound(W, weight: float) -> float:
    """Exact curvature of the smooth descriptive loss in U,
    ``weight * lambda_max(W W^T)``, from LAPACK's symmetric eigensolver on
    the dim x dim Gram. It is floored at a tiny positive value so a step
    size 1/L stays finite even for an all-zero or empty W, and it is inf
    when the Gram has a non-finite entry (there ``eigvalsh`` gives 0 or
    NaN), so the solve diverges instead of stepping blindly."""
    W = np.asarray(W, dtype=np.float64)
    if weight < 0:
        raise ValueError("weight must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = W @ W.T
    if not np.isfinite(gram).all():
        return np.inf
    if gram.size == 0:
        return LIPSCHITZ_FLOOR
    return max(weight * float(np.linalg.eigvalsh(gram)[-1]), LIPSCHITZ_FLOOR)


def _add_penalties(misfit, U, lambda2, lambda3) -> float:
    return misfit + 0.5 * lambda3 * float(np.sum(U * U)) + lambda2 * float(np.sum(np.abs(U)))


def elastic_net_objective(A, I, W, U, weight, lambda2, lambda3) -> float:
    """Full subproblem value: masked misfit plus both penalties on U."""
    U = np.asarray(U, dtype=np.float64)
    return _add_penalties(descriptive_objective(A, I, W, U, weight), U, lambda2, lambda3)


def fista_solve_U(A, I, W, U_init, hyper):
    """Minimize the descriptive loss plus elastic-net penalties over U.

    Accelerated proximal gradient with the classic momentum schedule
    t <- (1 + sqrt(1 + 4 t^2)) / 2, a fixed step 1/L from
    :func:`lipschitz_bound`, and a relative-decrease stopping rule on the
    subproblem objective (threshold ``hyper.tolerance``, budget
    ``hyper.inner_max_iter``). Returns ``(U, iterations_used, objective)``
    for the best iterate seen, so the objective never exceeds the value
    at ``U_init``.
    """
    A, I, W, U_init = _checked(A, I, W, U_init)
    U_prev = np.array(U_init, copy=True)

    weight, lambda2, lambda3 = hyper.lambda1, hyper.lambda2, hyper.lambda3
    L = lipschitz_bound(W, weight)
    _check_prox_weights(L, lambda2, lambda3)
    residual = _Residual(A, I)
    Z = U_prev.copy()
    t = 1.0
    F_prev = _add_penalties(residual.misfit(W, U_prev, weight), U_prev, lambda2, lambda3)
    best_U, best_F = U_prev.copy(), F_prev
    iterations = 0
    for j in range(1, hyper.inner_max_iter + 1):
        step = Z - residual.grad_U(W, Z, weight) / L
        U_new = _prox(step, L, lambda2, lambda3)
        if not np.isfinite(U_new).all():
            raise DivergenceError(j, f"non-finite iterate at inner iteration {j}")
        iterations = j
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        Z = U_new + ((t - 1.0) / t_next) * (U_new - U_prev)
        t = t_next
        F_new = _add_penalties(residual.misfit(W, U_new, weight), U_new, lambda2, lambda3)
        if F_new < best_F:
            best_U, best_F = U_new.copy(), F_new
        rel_change = abs(F_prev - F_new) / max(abs(F_new), 1e-12)
        U_prev, F_prev = U_new, F_new
        if rel_change < hyper.tolerance:
            break
    return best_U, iterations, best_F
