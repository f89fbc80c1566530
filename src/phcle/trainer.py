"""Alternating minimization over the context, label, and attribute factors.

Each outer iteration runs a few gradient steps on every context factor,
then on the shared label factor, then re-solves each attribute factor to
(approximate) optimality with the accelerated proximal loop. Everything is
full-batch and seeded, so a rerun with identical inputs is bitwise
reproducible; only the recorded wall-clock durations differ between runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from .datamodel import (
    AttributeContext,
    EmbeddingModel,
    HyperParams,
    VocabularyMaps,
    _draw_factors,
    format_float,
)
from .descriptive import DescriptiveBlock
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
        columns = fields(HistoryRecord)
        rows = ["\t".join(f.name for f in columns)]
        for r in self.records:
            # f.type is the annotation's text: "int" or "float"
            cells = ((str if f.type == "int" else format_float)(getattr(r, f.name)) for f in columns)
            rows.append("\t".join(cells))
        return "\n".join(rows) + "\n"


class _RelationalBlock:
    """One relational context for a whole run: its counts ``D``, their
    negative bound ``Q``, its weight and its context factor ``factor``."""

    def __init__(self, index, D, weight, n_labels, negative_samples):
        if D.ndim != 2 or D.shape[1] != n_labels:
            raise ValueError(f"relational context {index} has shape {D.shape}, expected {n_labels} label columns")
        if n_labels == 0 or D.shape[0] == 0:
            raise ValueError("training needs at least one label and one context")
        self.name, self.D, self.weight, self.factor = f"C[{index}]", D, weight, None
        self.Q = negative_bound_values(D, negative_samples)

    def term(self, W) -> float:
        return self.weight * emf_objective(self.D, self.Q, self.factor, W)

    def grad_W(self, W) -> np.ndarray:
        return self.weight * grad_W_relational(self.D, self.Q, self.factor, W)

    def update(self, W, hyper) -> None:
        """``hyper.inner_steps_c`` gradient steps on the context factor."""
        for _ in range(hyper.inner_steps_c):
            self.factor = self.factor - hyper.step_size * grad_C(self.D, self.Q, self.factor, W)


def _objective_terms(relational, descriptive, W, hyper):
    emf = sum(block.term(W) for block in relational)
    desc = sum(block.term(W) for block in descriptive)
    Us = [block.factor for block in descriptive]
    l1 = hyper.lambda2 * sum(float(np.sum(np.abs(U))) for U in Us)
    l2_w = 0.5 * hyper.lambda3 * float(np.sum(W * W))
    l2_u = 0.5 * hyper.lambda3 * sum(float(np.sum(U * U)) for U in Us)
    return emf, desc, l1, l2_w, l2_u


def _check_finite(it, name, factor):
    if not np.isfinite(factor).all():
        raise DivergenceError(it, f"factor {name} became non-finite at outer iteration {it}; try a smaller step_size")


def _train_engine(relations, descriptions, hyper: HyperParams):
    """Train on ``(D, weight)`` and ``(AttributeContext, weight)`` contexts, each prepared once as a block."""
    n_labels = relations[0][0].shape[1]
    relational = [
        _RelationalBlock(i, D, weight, n_labels, hyper.negative_samples)
        for i, (D, weight) in enumerate(relations)
    ]
    # The descriptive blocks work one after another, so they share a buffer.
    shared = np.empty(max(ctx.assoc.size for ctx, _ in descriptions))
    descriptive = [
        DescriptiveBlock(ctx, weight, n_labels, j, shared) for j, (ctx, weight) in enumerate(descriptions)
    ]
    blocks = relational + descriptive
    W, Cs, Us = _draw_factors(
        hyper.init_scheme, hyper.seed, hyper.dim, n_labels,
        [b.D.shape[0] for b in relational], [b.observed.shape[1] for b in descriptive],
    )
    for block, factor in zip(blocks, Cs + Us):
        block.factor = factor

    terms = _objective_terms(relational, descriptive, W, hyper)
    objective = sum(terms)
    records = [HistoryRecord(0, objective, *terms, 0, 0.0)]
    if not np.isfinite(objective):
        raise DivergenceError(0, "objective is non-finite at the starting point")
    # Relative to max(1, |start|) so tiny or negative starting values still
    # yield a meaningful blow-up threshold.
    ceiling = DIVERGENCE_FACTOR * max(1.0, abs(objective))

    for it in range(1, hyper.outer_iters + 1):
        started = time.perf_counter()
        # Each factor is checked before a later phase reads it, so a
        # blow-up is reported at the block where it started.
        for block in relational:
            block.update(W, hyper)
            _check_finite(it, block.name, block.factor)
        for _ in range(hyper.inner_steps_w):
            grad = blocks[0].grad_W(W)
            for block in blocks[1:]:
                grad = grad + block.grad_W(W)
            grad = grad + hyper.lambda3 * W
            W = W - hyper.step_size * grad
        _check_finite(it, "W", W)
        fista_total = 0
        for block in descriptive:
            try:
                fista_total += block.update(W, hyper)
            except DivergenceError as err:  # a non-finite FISTA iterate
                raise DivergenceError(
                    it, f"factor {block.name} became non-finite at inner iteration {err.iteration} "
                    f"of outer iteration {it}; try a smaller step_size",
                ) from err

        terms = _objective_terms(relational, descriptive, W, hyper)
        objective = sum(terms)
        records.append(HistoryRecord(it, objective, *terms, fista_total, time.perf_counter() - started))
        if not np.isfinite(objective) or objective > ceiling:
            raise DivergenceError(
                it,
                f"objective diverged at outer iteration {it} "
                f"({objective!r} vs initial {records[0].objective!r}); try a smaller step_size",
            )
    Cs = tuple(block.factor for block in relational)
    Us = tuple(block.factor for block in descriptive)
    return EmbeddingModel(W=W, Cs=Cs, Us=Us, dim=hyper.dim), TrainingHistory(records=tuple(records))


def _fit(Ds, tables, hyper: HyperParams):
    """Train counts ``Ds`` and ``(A, I)`` pairs or :class:`AttributeContext`
    items ``tables`` under the one weight rule: relational context i at
    ``alpha[i]``, descriptive context j at ``lambda1 * beta[j]``."""
    if len(hyper.alpha) != len(Ds):
        raise ValueError(f"alpha has {len(hyper.alpha)} weights for {len(Ds)} relational contexts")
    if len(hyper.beta) != len(tables):
        raise ValueError(f"beta has {len(hyper.beta)} weights for {len(tables)} descriptive contexts")
    relations = [(np.asarray(D, dtype=np.float64), a) for D, a in zip(Ds, hyper.alpha)]
    contexts = [item if isinstance(item, AttributeContext) else AttributeContext(*item) for item in tables]
    descriptions = [(ctx, hyper.lambda1 * b) for ctx, b in zip(contexts, hyper.beta)]
    return _train_engine(relations, descriptions, hyper)


def train(D, A, I, hyper: HyperParams, vocab: VocabularyMaps):
    """Fit one relational and one descriptive context, checked against
    ``vocab``: :func:`train_generalized` with the descriptive loss at ``lambda1``.

    Returns ``(EmbeddingModel, TrainingHistory)``.
    """
    if np.shape(D) != (len(vocab.contexts), len(vocab.labels)):
        raise ValueError(
            f"cooccurrence shape {np.shape(D)} does not match vocabulary "
            f"(contexts={len(vocab.contexts)}, labels={len(vocab.labels)})"
        )
    if np.shape(A) != (len(vocab.labels), len(vocab.attributes)):
        raise ValueError(
            f"attribute shape {np.shape(A)} does not match vocabulary "
            f"(labels={len(vocab.labels)}, attributes={len(vocab.attributes)})"
        )
    return _fit([D], [(A, I)], hyper)


def train_generalized(Ds, As_with_masks, hyper: HyperParams):
    """Fit one shared label factor against several relational and several
    descriptive contexts.

    ``hyper.alpha`` holds one weight per relational context and
    ``hyper.beta`` one per descriptive context (each nonnegative, summing
    to 1). Relational context i is weighted by ``alpha[i]`` and
    descriptive context j by ``lambda1 * beta[j]``, so with one context of
    each kind the run is bitwise identical to :func:`train` at the same
    ``lambda1``. Each context factor is advanced with its own unweighted
    gradient (the weight only rescales that block's objective), while the
    shared factor sums the weighted contributions.

    Returns ``(EmbeddingModel, TrainingHistory)``.
    """
    return _fit(list(Ds), list(As_with_masks), hyper)
