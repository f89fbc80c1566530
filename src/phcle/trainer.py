"""Alternating minimization over the context, label, and attribute factors.

Each outer iteration runs a few gradient steps on every context factor,
then on the shared label factor, then re-solves each attribute factor to
(approximate) optimality with the accelerated proximal loop. Everything is
full-batch and seeded, so a rerun with identical inputs is bitwise
reproducible; only the recorded wall-clock durations differ between runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .datamodel import (
    AttributeContext,
    CooccurrenceMatrix,
    EmbeddingModel,
    HyperParams,
    VocabularyMaps,
    _draw_factors,
    format_float,
)
from .descriptive import descriptive_objective, fista_solve_U, grad_W_descriptive
from .errors import DivergenceError
from .ingest import negative_bound_values
from .relational import emf_objective, grad_C, grad_W_relational

# Abort when the objective grows past this multiple of its starting size.
DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class HistoryRecord:
    """Objective breakdown after one outer iteration (iteration 0 is the
    starting point). ``seconds`` is wall-clock and not reproducible."""

    iteration: int
    objective: float
    emf_term: float
    descriptive_term: float
    l1_term: float
    l2_term_w: float
    l2_term_u: float
    fista_iterations: int
    seconds: float


@dataclass(frozen=True)
class TrainingHistory:
    records: tuple[HistoryRecord, ...]

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    def to_tsv(self) -> str:
        header = (
            "iteration\tobjective\temf_term\tdescriptive_term\tl1_term"
            "\tl2_term_w\tl2_term_u\tfista_iterations\tseconds"
        )
        rows = [header]
        for r in self.records:
            rows.append(
                "\t".join(
                    [
                        str(r.iteration),
                        format_float(r.objective),
                        format_float(r.emf_term),
                        format_float(r.descriptive_term),
                        format_float(r.l1_term),
                        format_float(r.l2_term_w),
                        format_float(r.l2_term_u),
                        str(r.fista_iterations),
                        format_float(r.seconds),
                    ]
                )
            )
        return "\n".join(rows) + "\n"


def _values(x):
    if isinstance(x, CooccurrenceMatrix):
        return np.asarray(x.values, dtype=np.float64)
    return np.asarray(x, dtype=np.float64)


def full_objective(D, Q, A, I, model: EmbeddingModel, hyper: HyperParams) -> float:
    """Relational loss + descriptive loss + l1/l2 penalties of a model with
    one context of each kind, one scalar."""
    A, I = np.asarray(A, dtype=np.float64), np.asarray(I, dtype=np.float64)
    terms = _objective_terms(
        [_values(D)], [_values(Q)], (1.0,), [A], [I], (hyper.lambda1,), model.W, [model.C], [model.U], hyper
    )
    return sum(terms)


def _objective_terms(Ds, Qs, rel_weights, As, Is, desc_weights, W, Cs, Us, hyper):
    emf = sum(
        weight * emf_objective(D, Q, C, W)
        for D, Q, C, weight in zip(Ds, Qs, Cs, rel_weights)
    )
    desc = sum(
        descriptive_objective(A, I, W, U, weight)
        for A, I, U, weight in zip(As, Is, Us, desc_weights)
    )
    l1 = hyper.lambda2 * sum(float(np.sum(np.abs(U))) for U in Us)
    l2_w = 0.5 * hyper.lambda3 * float(np.sum(W * W))
    l2_u = 0.5 * hyper.lambda3 * sum(float(np.sum(U * U)) for U in Us)
    return emf, desc, l1, l2_w, l2_u


def _check_engine_shapes(Ds, As, Is, n_labels):
    for i, D in enumerate(Ds):
        if D.ndim != 2 or D.shape[1] != n_labels:
            raise ValueError(
                f"relational context {i} has shape {D.shape}, expected {n_labels} label columns"
            )
    for j, (A, I) in enumerate(zip(As, Is)):
        if A.shape != I.shape:
            raise ValueError(f"descriptive context {j}: assoc {A.shape} and mask {I.shape} differ")
        if A.ndim != 2 or A.shape[0] != n_labels:
            raise ValueError(
                f"descriptive context {j} has shape {A.shape}, expected {n_labels} label rows"
            )


def _train_engine(Ds, rel_weights, As, Is, desc_weights, hyper: HyperParams):
    n_labels = Ds[0].shape[1]
    _check_engine_shapes(Ds, As, Is, n_labels)
    if n_labels == 0 or any(D.shape[0] == 0 for D in Ds):
        raise ValueError("training needs at least one label and one context")

    Qs = [negative_bound_values(D, hyper.negative_samples) for D in Ds]

    W, Cs, Us = _draw_factors(
        hyper.init_scheme, hyper.seed, hyper.dim, n_labels, [D.shape[0] for D in Ds], [A.shape[1] for A in As]
    )

    records = []
    terms = _objective_terms(Ds, Qs, rel_weights, As, Is, desc_weights, W, Cs, Us, hyper)
    objective = sum(terms)
    records.append(HistoryRecord(0, objective, *terms, 0, 0.0))
    if not np.isfinite(objective):
        raise DivergenceError(0, "objective is non-finite at the starting point")
    # Relative to max(1, |start|) so tiny or negative starting values still
    # yield a meaningful blow-up threshold.
    ceiling = DIVERGENCE_FACTOR * max(1.0, abs(objective))

    eta = hyper.step_size
    for it in range(1, hyper.outer_iters + 1):
        started = time.perf_counter()
        for r in range(len(Ds)):
            for _ in range(hyper.inner_steps_c):
                Cs[r] = Cs[r] - eta * grad_C(Ds[r], Qs[r], Cs[r], W)
        for _ in range(hyper.inner_steps_w):
            grad = rel_weights[0] * grad_W_relational(Ds[0], Qs[0], Cs[0], W)
            for r in range(1, len(Ds)):
                grad = grad + rel_weights[r] * grad_W_relational(Ds[r], Qs[r], Cs[r], W)
            for j in range(len(As)):
                grad = grad + grad_W_descriptive(As[j], Is[j], W, Us[j], desc_weights[j])
            grad = grad + hyper.lambda3 * W
            W = W - eta * grad
        fista_total = 0
        for j in range(len(As)):
            sub_hyper = replace(hyper, lambda1=desc_weights[j])
            Us[j], used, _ = fista_solve_U(As[j], Is[j], W, Us[j], sub_hyper)
            fista_total += used

        for name, mats in (("C", Cs), ("W", [W]), ("U", Us)):
            if any(not np.isfinite(m).all() for m in mats):
                raise DivergenceError(
                    it,
                    f"factor {name} became non-finite at outer iteration {it}; "
                    "try a smaller step_size",
                )
        terms = _objective_terms(Ds, Qs, rel_weights, As, Is, desc_weights, W, Cs, Us, hyper)
        objective = sum(terms)
        records.append(HistoryRecord(it, objective, *terms, fista_total, time.perf_counter() - started))
        if not np.isfinite(objective) or objective > ceiling:
            raise DivergenceError(
                it,
                f"objective diverged at outer iteration {it} "
                f"({objective!r} vs initial {records[0].objective!r}); try a smaller step_size",
            )
    model = EmbeddingModel(W=W, Cs=tuple(Cs), Us=tuple(Us), dim=hyper.dim)
    return model, TrainingHistory(records=tuple(records))


def train(D, A, I, hyper: HyperParams, vocab: VocabularyMaps):
    """Fit the single relational + single descriptive context model.

    Returns ``(EmbeddingModel, TrainingHistory)``. The descriptive loss is
    weighted by ``hyper.lambda1``.
    """
    D_arr = _values(D)
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
    return _train_engine([D_arr], (1.0,), [A_arr], [I_arr], (hyper.lambda1,), hyper)


def _unpack_descriptive(item):
    if isinstance(item, AttributeContext):
        return np.asarray(item.assoc, dtype=np.float64), np.asarray(item.mask, dtype=np.float64)
    A, I = item
    return np.asarray(A, dtype=np.float64), np.asarray(I, dtype=np.float64)


def train_generalized(Ds, As_with_masks, hyper: HyperParams):
    """Fit one shared label factor against several relational and several
    descriptive contexts.

    ``hyper.alpha`` weighs the relational losses (nonnegative, summing
    to 1) and ``hyper.beta`` the descriptive ones (summing to 1, taking
    the place ``lambda1`` has in :func:`train`). With a single context of
    each kind and ``alpha=(1,)``, ``beta=(1,)`` the run is bitwise
    identical to ``train`` with ``lambda1=1``; ``hyper.lambda1`` itself is
    ignored here. Each context factor is advanced with its own unweighted
    gradient (the weight only rescales that block's objective), while the
    shared factor sums the weighted contributions.

    Returns ``(EmbeddingModel, TrainingHistory)``.
    """
    Ds = [_values(D) for D in Ds]
    pairs = [_unpack_descriptive(item) for item in As_with_masks]
    if not Ds:
        raise ValueError("need at least one relational context")
    if not pairs:
        raise ValueError("need at least one descriptive context")
    if len(hyper.alpha) != len(Ds):
        raise ValueError(f"alpha has {len(hyper.alpha)} weights for {len(Ds)} relational contexts")
    if len(hyper.beta) != len(pairs):
        raise ValueError(f"beta has {len(hyper.beta)} weights for {len(pairs)} descriptive contexts")
    As = [A for A, _ in pairs]
    Is = [I for _, I in pairs]
    return _train_engine(Ds, hyper.alpha, As, Is, hyper.beta, hyper)
