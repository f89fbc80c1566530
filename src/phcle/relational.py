"""Relational loss on co-occurrence counts.

With scores ``X = C^T W`` the loss treats each count ``D[c, w]`` as
successes out of ``Q[c, w]`` logistic trials:

    sum over (c, w) of  -D[c, w] * X[c, w] + Q[c, w] * softplus(X[c, w])

which is minimized where the expected counts ``Q * sigmoid(X)`` equal the
observed ones. All functions take plain float arrays in the shared
orientation (D, Q: contexts x labels; C, W: dim x count).

The objective and the gradients work on the dense contexts x labels scores,
so their cost is in the elementwise passes over that array rather than in
the matmuls. The gradients therefore take the sigmoid through the identity

    sigmoid(x) = (1 + tanh(x / 2)) / 2

because numpy's vectorized ``tanh`` is several times faster than
``scipy.special.expit``, and they build the residual ``E - D`` in place in a
single dense temporary. The objective likewise computes softplus in place
with one temporary next to the scores. ``expected_cooccurrence`` keeps the
plain ``expit`` form.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit


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


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) computed without overflow for large |x|."""
    return _softplus_inplace(np.array(x, dtype=np.float64))


def _check_pair_shapes(D, Q, C, W):
    if D.shape != Q.shape:
        raise ValueError(f"counts {D.shape} and bound {Q.shape} differ in shape")
    if C.shape[0] != W.shape[0]:
        raise ValueError(f"factors disagree on dimension: C has {C.shape[0]} rows, W has {W.shape[0]}")
    if D.shape != (C.shape[1], W.shape[1]):
        raise ValueError(
            f"counts shaped {D.shape} need C with {D.shape[0]} columns and W with {D.shape[1]} columns"
        )


def _as_arrays(D, Q, C, W):
    mats = tuple(np.asarray(m, dtype=np.float64) for m in (D, Q, C, W))
    _check_pair_shapes(*mats)
    return mats


def _require_finite(D, Q, C, W):
    for name, m in zip("DQCW", (D, Q, C, W)):
        if not np.isfinite(m).all():
            raise ValueError(f"{name} contains non-finite entries")


def emf_objective(D, Q, C, W) -> float:
    """Value of the relational loss at the current factors.

    Raises ``ValueError`` naming the first of D, Q, C, W that holds a NaN or
    an infinity. Finite inputs whose loss overflows give ``inf``.
    """
    D, Q, C, W = _as_arrays(D, Q, C, W)
    # A BLAS may skip products with a zero operand, so a non-finite factor
    # need not reach X; the factors are small, so check them up front.
    if not (np.isfinite(C).all() and np.isfinite(W).all()):
        _require_finite(D, Q, C, W)
    X = C.T @ W
    counts_term = np.vdot(D, X)  # before softplus overwrites X
    value = float(np.vdot(Q, _softplus_inplace(X)) - counts_term)
    # A non-finite entry of D or Q always makes the value non-finite, so the
    # dense scans of D and Q are only needed on that path.
    if not np.isfinite(value):
        _require_finite(D, Q, C, W)
    return value


def expected_cooccurrence(Q, C, W) -> np.ndarray:
    """Expected counts ``Q * sigmoid(C^T W)`` under the current factors."""
    Q = np.asarray(Q, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if Q.shape != (C.shape[1], W.shape[1]) or C.shape[0] != W.shape[0]:
        raise ValueError(
            f"bound shaped {Q.shape} needs C with {Q.shape[0]} columns and W with {Q.shape[1]} columns"
        )
    return Q * expit(C.T @ W)


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


def grad_C(D, Q, C, W) -> np.ndarray:
    """Gradient of the relational loss in C: ``W (E - D)^T``, dim x contexts."""
    D, Q, C, W = _as_arrays(D, Q, C, W)
    return W @ _residual(D, Q, C, W).T


def grad_W_relational(D, Q, C, W) -> np.ndarray:
    """Gradient of the relational loss in W: ``C (E - D)``, dim x labels."""
    D, Q, C, W = _as_arrays(D, Q, C, W)
    return C @ _residual(D, Q, C, W)
