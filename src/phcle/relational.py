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

evaluated in place, and they build the residual ``E - D`` in the same single
dense temporary. The objective likewise computes softplus in place.

Each matmul runs whole, but the elementwise passes run over row blocks of
about 256 KB (``max(1, 2**18 // (8 * labels))`` rows): a block fits in the
L2 cache, so its later passes read it from there, where passes over the
whole array would each stream it from memory again. The softplus temporary
is one block, not a second dense array. Every element still goes through
the same operations in the same order, and the matmuls and the objective's
dot products still run over whole arrays, so the blocks change no bit of a
gradient or an objective.
"""

from __future__ import annotations

import numpy as np


# Bytes of one row block of the elementwise passes: a block stays in the
# L2 cache from its first pass to its last.
_ROW_BLOCK_BYTES = 1 << 18


def _block_rows(X: np.ndarray) -> int:
    """Rows of ``X`` in one ~256 KB block, at least one."""
    return max(1, _ROW_BLOCK_BYTES // max(1, X[:1].nbytes))


def _softplus_inplace(X: np.ndarray) -> np.ndarray:
    """Overwrite the float array ``X`` (at least 1-D) with softplus(X), one
    row block at a time; one block-sized temporary."""
    rows = _block_rows(X)
    t = np.empty_like(X[:rows])
    for start in range(0, len(X), rows):
        x = X[start : start + rows]
        tb = t[: len(x)]
        np.abs(x, out=tb)
        np.negative(tb, out=tb)
        np.exp(tb, out=tb)
        np.log1p(tb, out=tb)
        np.maximum(x, 0.0, out=x)
        x += tb
    return X


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


def _residual(D, Q, C, W) -> np.ndarray:
    """``E - D`` with ``E = Q * sigmoid(C^T W)``, built in one array."""
    # Halving C is exact, so T starts as X / 2 bit for bit.
    T = (0.5 * C).T @ W
    rows = _block_rows(T)
    for start in range(0, len(T), rows):
        t = T[start : start + rows]
        np.tanh(t, out=t)
        t += 1.0
        t *= Q[start : start + rows]
        t *= 0.5
        t -= D[start : start + rows]
    return T


def grad_C(D, Q, C, W) -> np.ndarray:
    """Gradient of the relational loss in C: ``W (E - D)^T``, dim x contexts."""
    D, Q, C, W = _as_arrays(D, Q, C, W)
    return W @ _residual(D, Q, C, W).T


def grad_W_relational(D, Q, C, W) -> np.ndarray:
    """Gradient of the relational loss in W: ``C (E - D)``, dim x labels."""
    D, Q, C, W = _as_arrays(D, Q, C, W)
    return C @ _residual(D, Q, C, W)
