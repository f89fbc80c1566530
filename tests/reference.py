"""Reference code the tests use as oracles.

No command of ``phcle`` calls these, so they are not part of the package:
each is kept here as it was written there, next to the private helpers of
``phcle`` it is built on, and the tests check the shipped code against it.
Under ``ingest`` are the count-file block reader and sum as they were
before value texts were parsed once per block and summed by one
``np.bincount``, under ``descriptive`` the block as it was before its
solve ran over only the labels its table observes, under ``trainer`` the
one-table ``train`` as it was before it shared the weight rule of
``train_generalized``, and under ``cli`` the co-occurrence writer as it
was before the byte gather replaced it.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from phcle.datamodel import (
    DEFAULT_INIT_SCHEME,
    AttributeContext,
    EmbeddingModel,
    HyperParams,
    VocabularyMaps,
    _atomic_open,
    _draw_factors,
    _frozen_array,
    format_float,
)
from phcle.descriptive import _add_penalties, _prox, descriptive_objective, lipschitz_bound
from phcle.errors import DivergenceError, ParseError
from phcle.evaluation import NORM_FLOOR
from phcle.ingest import _BLOCK_BYTES, _check_relation, _Irregular, _line_blocks, _relation_lines, _separators
from phcle.relational import _softplus_inplace
from phcle.trainer import _train_engine

# ---------------------------------------------------------------------------
# datamodel


@dataclass(frozen=True, eq=False)
class CooccurrenceMatrix:
    """Label/context co-occurrence counts, ``contexts x labels``, >= 0."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values, "cooccurrence matrix")
        if (arr < 0).any():
            raise ValueError("cooccurrence matrix contains negative entries")
        object.__setattr__(self, "values", arr)


GeneralizedEmbeddingModel = EmbeddingModel


def init_model(
    vocab: VocabularyMaps,
    dim: int,
    scheme: str = DEFAULT_INIT_SCHEME,
    seed: int = 0,
) -> EmbeddingModel:
    """Deterministically initialize every factor.

    ``uniform_random(s)`` draws i.i.d. uniform entries from [-s, s] with a
    seeded generator; the draw order is W, then each C, then each U, so
    identical inputs always produce bitwise-identical models.
    """
    if dim < 1:
        raise ValueError("embedding dimension must be >= 1")
    if not vocab.labels or not vocab.context_lists or not all(vocab.context_lists):
        raise ValueError("vocabulary must contain at least one label and one context")
    W, Cs, Us = _draw_factors(
        scheme, seed, dim, len(vocab.labels), map(len, vocab.context_lists), map(len, vocab.attribute_lists)
    )
    return EmbeddingModel(W=W, Cs=tuple(Cs), Us=tuple(Us), dim=dim)


# ---------------------------------------------------------------------------
# ingest


def _accumulate(blocks, path, capacity) -> tuple[VocabularyMaps, np.ndarray]:
    """Sum ``(contexts, labels, values)`` column blocks from the file
    ``path`` into a contexts x labels matrix over the sorted names, in one
    pass: names get ids in order of first appearance, the ids then map to
    positions in the sorted vocabulary, and the values are added in the
    order given, so each cell sums exactly as a line-by-line loop would.
    ``capacity`` is an upper bound on the entries, not a starting size:
    the arrays never grow, and blocks that hold more raise.

    A :class:`ParseError` from ``blocks`` keeps its line; any other
    ``ValueError`` (an undecodable byte, a bad name, more than
    ``capacity`` entries) and a sum that overflows become one naming
    ``path``.
    """
    context_ids = defaultdict(itertools.count().__next__)
    label_ids = defaultdict(itertools.count().__next__)
    rows = np.empty(capacity, dtype=np.intp)
    cols = np.empty(capacity, dtype=np.intp)
    values = np.empty(capacity)
    n = 0

    def sorted_names(ids):
        names = tuple(sorted(ids))
        position = np.empty(len(names), dtype=np.intp)
        position[[ids[name] for name in names]] = np.arange(len(names))
        return names, position

    try:
        for contexts, labels, block_values in blocks:
            end = n + len(block_values)
            rows[n:end] = np.fromiter(map(context_ids.__getitem__, contexts), np.intp, end - n)
            cols[n:end] = np.fromiter(map(label_ids.__getitem__, labels), np.intp, end - n)
            values[n:end] = block_values
            n = end
        contexts, context_position = sorted_names(context_ids)
        labels, label_position = sorted_names(label_ids)
        vocab = VocabularyMaps(labels=labels, context_lists=(contexts,))
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from None
    D = np.zeros((len(contexts), len(labels)))
    with np.errstate(over="ignore"):  # an overflowing sum is reported below
        np.add.at(D, (context_position[rows[:n]], label_position[cols[:n]]), values[:n])
    if not np.isfinite(D).all():
        raise ParseError("cooccurrence matrix contains non-finite entries", path=path)
    return vocab, D


def _count_blocks(fh, label_column, positive, weight_optional=False):
    """Yield ``(contexts, labels, values)`` column blocks from the binary
    file ``fh`` of ``name<TAB>name<TAB>value`` lines, the label name in
    field ``label_column``, checking each block as a whole. With
    ``weight_optional`` a file of ``name<TAB>name`` lines is read too, each
    line with the value 1.0; the first block fixes the field count.

    Raises :class:`_Irregular` on anything the line reader judges or
    reads differently: a carriage return, a blank line or another field
    count, an empty field, undecodable UTF-8, a value ``float`` rejects,
    and a value that is not finite and ``> 0`` (``positive``) or ``>= 0``.
    """
    widths = (2, 3) if weight_optional else (3,)
    for block in _line_blocks(fh, _BLOCK_BYTES):
        _, width = _separators(np.frombuffer(block, dtype=np.uint8), widths)
        widths = (width,)
        try:
            tokens = block.decode("utf-8").replace("\n", "\t").split("\t")
            tokens.pop()  # after the final newline
            lines = len(tokens) // width
            values = np.fromiter(map(float, tokens[2::3]), np.float64, lines) if width == 3 else np.ones(lines)
        except ValueError:  # UnicodeDecodeError included
            raise _Irregular from None
        if not np.isfinite(values).all() or not (values > 0 if positive else values >= 0).all():
            raise _Irregular
        names = tokens[0::width], tokens[1::width]
        yield names[1 - label_column], names[label_column], values


@dataclass(frozen=True)
class RelationRecord:
    """One observed (label, context) pair with a positive weight."""

    label: str
    context: str
    weight: float = 1.0

    def __post_init__(self):
        _check_relation(self.label, self.context, self.weight)


def context_index(vocab: VocabularyMaps, name: str) -> int:
    """Where ``name`` sits in the vocabulary's only context list."""
    contexts = vocab.contexts
    try:
        return contexts.index(name)
    except ValueError:
        raise ValueError(f"context {name!r} unknown") from None


def build_cooccurrence(records, vocab: VocabularyMaps) -> CooccurrenceMatrix:
    """Accumulate record weights into a contexts x labels count matrix.

    Repeated (label, context) pairs add up. Any name missing from the
    vocabulary is an error identifying the offending record.
    """
    D = np.zeros((len(vocab.contexts), len(vocab.labels)))
    for rec in records:
        try:
            w = vocab.label_index(rec.label)
            c = context_index(vocab, rec.context)
        except ValueError as exc:
            raise ValueError(f"{exc} (record {rec.label!r} -> {rec.context!r})") from None
        D[c, w] += rec.weight
    return CooccurrenceMatrix(values=D)


def load_relation_file(path) -> list[RelationRecord]:
    """Read tab-separated relation lines: label, context, optional weight."""
    with open(path, "r", encoding="utf-8") as fh:
        return [RelationRecord(label, context, weight) for context, label, weight in _relation_lines(fh, path)]


# ---------------------------------------------------------------------------
# relational


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) computed without overflow for large |x|."""
    out = np.array(x, dtype=np.float64)
    _softplus_inplace(np.atleast_2d(out))
    return out


def expected_cooccurrence(Q, C, W) -> np.ndarray:
    """Expected counts ``Q * sigmoid(C^T W)`` under the current factors.

    It keeps the ``1 / (1 + exp(-x))`` form, which holds its relative
    accuracy where the sigmoid is tiny: ``(1 + tanh(x / 2)) / 2`` rounds to
    0 near x = -40, where the sigmoid is about 4.2e-18.
    """
    Q = np.asarray(Q, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if Q.shape != (C.shape[1], W.shape[1]) or C.shape[0] != W.shape[0]:
        raise ValueError(
            f"bound shaped {Q.shape} needs C with {Q.shape[0]} columns and W with {Q.shape[1]} columns"
        )
    # exp(-X) overflows to inf for X below about -709, which gives the
    # correct limit 0.
    with np.errstate(over="ignore"):
        return Q * (1.0 / (1.0 + np.exp(-(C.T @ W))))


# ---------------------------------------------------------------------------
# descriptive


class DescriptiveBlock:
    """One descriptive context, float64 ``(A, I)`` at ``weight``, prepared
    once: its residuals, objective term, gradients and the solve of its
    attribute factor ``factor``. It computes in ``buf``, a flat float64
    array of at least ``A.size`` elements, or else in one of its own."""

    def __init__(self, A, I, weight: float, n_labels: int, index: int = 0, buf=None, factor=None):
        if A.shape != I.shape:
            raise ValueError(f"descriptive context {index}: assoc {A.shape} and mask {I.shape} differ")
        if A.ndim != 2 or A.shape[0] != n_labels:
            raise ValueError(f"descriptive context {index} has shape {A.shape}, expected {n_labels} label rows")
        self.name, self.weight, self.factor = f"U[{index}]", weight, factor
        self.observed = I != 0
        hidden = A[~self.observed]
        positive_zeros = not (hidden.any() or np.signbit(hidden).any())
        self.A_obs = A if positive_zeros else np.where(self.observed, A, 0.0)
        self.buf = (np.empty(A.size) if buf is None else buf)[: A.size].reshape(A.shape)

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

    def term(self, W) -> float:
        """``(weight / 2) * ||masked residual||_F^2`` at the block's factor."""
        self.of(W, self.factor)
        return self._squared_sum()

    def residual(self, W, U) -> np.ndarray:
        """:meth:`of`, with the unobserved cells cleared if any cell is not finite."""
        R = self.of(W, U)
        return R if np.isfinite(R).all() else self.clear_unobserved()

    def grad_W(self, W) -> np.ndarray:
        """Gradient of the loss in W at the block's factor: ``-weight * U R^T``."""
        return -self.weight * (self.factor @ self.residual(W, self.factor).T)

    def grad_U(self, W, U) -> np.ndarray:
        """Gradient of the loss in U, ``-weight * W R``, leaving R in the
        buffer (cleared if the first product was not finite)."""
        G = -self.weight * (W @ self.of(W, U))
        if not np.isfinite(G).all():
            G = -self.weight * (W @ self.clear_unobserved())
        return G

    def _squared_sum(self) -> float:
        R = self.buf
        total = np.sum(np.multiply(R, R, out=R))
        if not np.isfinite(total):
            total = np.sum(self.clear_unobserved())
        return 0.5 * self.weight * float(total)

    def update(self, W, hyper) -> int:
        """Re-solve the factor against ``W``; returns the FISTA iterations."""
        self.factor, iterations, _ = self.solve(W, self.factor, hyper)
        return iterations

    def solve(self, W, U_init, hyper):
        """The solve of :func:`fista_solve_U` at the block's weight."""
        U_prev = np.array(U_init, copy=True)
        lambda2, lambda3 = hyper.lambda2, hyper.lambda3
        L = lipschitz_bound(W, self.weight)
        G_prev = self.grad_U(W, U_prev)
        F_prev = _add_penalties(self._squared_sum(), U_prev, lambda2, lambda3)
        best_U, best_F = U_prev.copy(), F_prev
        Z, grad_Z = U_prev, G_prev
        t = 1.0
        iterations = 0
        for j in range(1, hyper.inner_max_iter + 1):
            step = Z - grad_Z / L
            U_new = _prox(step, L, lambda2, lambda3)
            if not np.isfinite(U_new).all():
                raise DivergenceError(j, f"non-finite iterate at inner iteration {j}")
            iterations = j
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            Z = U_new + beta * (U_new - U_prev)
            t = t_next
            if j < hyper.inner_max_iter:
                G_new = self.grad_U(W, U_new)
                grad_Z = G_new + beta * (G_new - G_prev)
                G_prev = G_new
            else:  # the budget ends here, so no step needs the gradient
                self.of(W, U_new)
            F_new = _add_penalties(self._squared_sum(), U_new, lambda2, lambda3)
            if F_new < best_F:
                best_U, best_F = U_new.copy(), F_new
            rel_change = abs(F_prev - F_new) / max(abs(F_new), 1e-12)
            U_prev, F_prev = U_new, F_new
            if rel_change < hyper.tolerance:
                break
        return best_U, iterations, best_F


def elastic_net_objective(A, I, W, U, weight, lambda2, lambda3) -> float:
    """Full subproblem value: masked misfit plus both penalties on U."""
    U = np.asarray(U, dtype=np.float64)
    return _add_penalties(descriptive_objective(A, I, W, U, weight), U, lambda2, lambda3)


# ---------------------------------------------------------------------------
# trainer


def train(D, A, I, hyper: HyperParams, vocab: VocabularyMaps):
    """Fit the single relational + single descriptive context model.

    Returns ``(EmbeddingModel, TrainingHistory)``. The descriptive loss is
    weighted by ``hyper.lambda1``.
    """
    D_arr = np.asarray(D, dtype=np.float64)
    A_arr, I_arr = np.asarray(A, dtype=np.float64), np.asarray(I, dtype=np.float64)
    if D_arr.shape != (len(vocab.contexts), len(vocab.labels)):
        raise ValueError(
            f"cooccurrence shape {D_arr.shape} does not match vocabulary "
            f"(contexts={len(vocab.contexts)}, labels={len(vocab.labels)})"
        )
    if A_arr.shape != (len(vocab.labels), len(vocab.attributes)):
        raise ValueError(
            f"attribute shape {A_arr.shape} does not match vocabulary "
            f"(labels={len(vocab.labels)}, attributes={len(vocab.attributes)})"
        )
    return _train_engine([(D_arr, 1.0)], [(AttributeContext(A_arr, I_arr), hyper.lambda1)], hyper)


# ---------------------------------------------------------------------------
# evaluation


def cosine_similarity(u, v) -> float:
    """Cosine of the angle between two vectors; 0 if either is (near) zero."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape:
        raise ValueError(f"vectors of length {u.size} and {v.size}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu < NORM_FLOOR or nv < NORM_FLOOR:
        return 0.0
    return float(u @ v) / (nu * nv)


# ---------------------------------------------------------------------------
# cli


# Contexts per write, so that only a slice of the file's text is in memory.
_WRITE_ROWS = 256


def write_cooccurrence_tsv(path, vocab: VocabularyMaps, D: np.ndarray) -> None:
    rows, cols = np.nonzero(D)  # row-major order, as the file lists entries
    # Counts repeat a lot, so each distinct value is formatted once.
    distinct, which = np.unique(D[rows, cols], return_inverse=True)
    texts = [format_float(value) + "\n" for value in distinct.tolist()]
    contexts = [name + "\t" for name in vocab.contexts]
    labels = [name + "\t" for name in vocab.labels]
    cuts = np.searchsorted(rows, np.arange(0, len(contexts) + _WRITE_ROWS, _WRITE_ROWS)).tolist()
    with _atomic_open(path) as fh:
        for lo, hi in zip(cuts, cuts[1:]):
            fh.write("".join([
                contexts[c] + labels[w] + texts[t]
                for c, w, t in zip(rows[lo:hi].tolist(), cols[lo:hi].tolist(), which[lo:hi].tolist())
            ]))
