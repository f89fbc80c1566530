"""Read-only analyses of a trained model: neighbor retrieval, correlation
matrices, average-linkage ordering, and attribute-based description."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import format_float

# Vectors shorter than this are treated as zero and get similarity 0.
NORM_FLOOR = 1e-12


def _edit_distance(a: str, b: str) -> int:
    # Classic two-row Levenshtein.
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def _unknown_label_error(name: str, candidates) -> ValueError:
    ranked = sorted(candidates, key=lambda c: (_edit_distance(name, c), c))[:5]
    hint = ", ".join(ranked) if ranked else "(vocabulary is empty)"
    return ValueError(f"label {name!r} unknown; nearest names: {hint}")


def _label_column(vocab, name):
    try:
        return vocab.label_index(name)
    except ValueError:
        raise _unknown_label_error(name, vocab.labels) from None


def _column_similarities(W: np.ndarray, query: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(W, axis=0)
    qnorm = float(np.linalg.norm(query))
    sims = np.zeros(W.shape[1])
    if qnorm < NORM_FLOOR:
        return sims
    ok = norms >= NORM_FLOOR
    sims[ok] = (query @ W[:, ok]) / (qnorm * norms[ok])
    return sims


def retrieve_labels(model, vocab, query: str, topk: int = 5) -> list[tuple[str, float]]:
    """The ``topk`` labels most similar to ``query`` (query excluded),
    sorted by descending cosine with ties broken by vocabulary order."""
    if topk < 0:
        raise ValueError("topk must be >= 0")
    qi = _label_column(vocab, query)
    sims = _column_similarities(model.W, model.W[:, qi])
    order = sorted(
        (j for j in range(len(vocab.labels)) if j != qi),
        key=lambda j: (-sims[j], j),
    )
    return [(vocab.labels[j], float(sims[j])) for j in order[:topk]]


def correlation_matrix(model, vocab, subset) -> np.ndarray:
    """Pairwise cosine similarities between the given labels' vectors.

    Exactly symmetric, with a unit diagonal wherever the vector norm is
    nonzero; a vector shorter than ``NORM_FLOOR`` counts as zero and gets
    a zero row.
    """
    subset = list(subset)
    idx = [_label_column(vocab, name) for name in subset]
    cols = model.W[:, idx] if idx else np.zeros((model.dim, 0))
    norms = np.linalg.norm(cols, axis=0)
    ok = norms >= NORM_FLOOR
    N = np.zeros_like(cols)
    N[:, ok] = cols[:, ok] / norms[ok]
    M = N.T @ N
    M = 0.5 * (M + M.T)
    for i in range(len(idx)):
        M[i, i] = 1.0 if ok[i] else 0.0
    return M


def cluster_order(corr: np.ndarray, clusters: int) -> tuple[list[int], list[int]]:
    """Average-linkage agglomeration on distance ``1 - corr``.

    Returns ``(order, assignment)``: the dendrogram leaf order and the
    cluster id of every point when exactly ``clusters`` groups remain.
    Merges pick the pair with the smallest average pairwise distance,
    breaking ties by the smallest (min member index) pair; the merged
    group lists the lower-indexed side first, and assignment ids number
    the groups by their smallest member. Fully deterministic.
    """
    corr = np.asarray(corr, dtype=np.float64)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ValueError(f"correlation matrix must be square, got {corr.shape}")
    n = corr.shape[0]
    if not 1 <= clusters <= n:
        raise ValueError(f"cluster count must be in 1..{n}, got {clusters}")

    # Each group lives in the slot of its smallest member, so the
    # row-major first minimum of the upper triangle of `avg` is the pair
    # the tie rule picks. S[p, q] sums dist over p's rows and q's columns;
    # a merge adds row and column b into a (O(n) per merge, O(n^2) for the
    # argmin). A new group is always the later-formed side of its pairs,
    # so its averages read column a, as the block mean of (older, newer).
    S = 1.0 - corr
    avg = np.where(np.tri(n, dtype=bool), np.inf, S)
    size = np.ones(n)
    active = np.ones(n, dtype=bool)
    members: list[list[int]] = [[i] for i in range(n)]
    assignment = list(range(n))
    for remaining in range(n - 1, 0, -1):
        a, b = divmod(int(np.argmin(avg)), n)
        if avg[a, b] == np.inf:  # every live average is +inf: smallest pair
            a, b = np.flatnonzero(active)[:2].tolist()
        members[a] += members[b]
        S[a] += S[b]
        S[:, a] += S[:, b]
        size[a] += size[b]
        active[b] = False
        avg[b] = avg[:, b] = np.inf
        others = np.flatnonzero(active)
        others = others[others != a]
        values = S[others, a] / (size[others] * size[a])
        before = others < a
        avg[others[before], a] = values[before]
        avg[a, others[~before]] = values[~before]
        if remaining == clusters:
            for cluster_id, slot in enumerate(np.flatnonzero(active).tolist()):
                for i in members[slot]:
                    assignment[i] = cluster_id
    return members[0], assignment


@dataclass(frozen=True)
class EmbeddingDescription:
    """Related labels with similarity percentages, plus the top attributes."""

    related: tuple[tuple[str, float], ...]
    attributes: tuple[tuple[str, float], ...]


def describe_embedding(model, vocab, w_star, coverage: float = 0.8, top_attrs: int = 6) -> EmbeddingDescription:
    """Describe an arbitrary vector in the label space.

    Related labels: cosine similarities to every label vector, negatives
    clamped to 0; the shortest descending-similarity prefix whose mass
    reaches ``coverage`` of the total is reported with percentages that
    sum to 100. Attributes: the ``top_attrs`` highest scores ``w* . U``.
    """
    w = np.asarray(w_star, dtype=np.float64).ravel()
    if w.size != model.dim:
        raise ValueError(f"vector has length {w.size}, model dimension is {model.dim}")
    if not np.isfinite(w).all():
        raise ValueError("vector contains non-finite entries")
    if not 0.0 <= coverage <= 1.0:
        raise ValueError("coverage must lie in [0, 1]")
    if top_attrs < 0:
        raise ValueError("top_attrs must be >= 0")

    sims = np.maximum(_column_similarities(model.W, w), 0.0)
    order = sorted(range(len(vocab.labels)), key=lambda j: (-sims[j], j))
    eligible = [j for j in order if sims[j] > 0.0]
    related: list[tuple[str, float]] = []
    if eligible:
        cum = np.cumsum(sims[eligible])
        total = float(cum[-1])
        target = coverage * total
        reached = np.nonzero(cum >= target)[0]
        cut = int(reached[0]) if reached.size else len(eligible) - 1
        prefix_sum = float(cum[cut])
        related = [
            (vocab.labels[j], 100.0 * float(sims[j]) / prefix_sum) for j in eligible[: cut + 1]
        ]

    scores = w @ model.U
    attr_order = sorted(range(len(vocab.attributes)), key=lambda j: (-scores[j], j))
    attributes = [(vocab.attributes[j], float(scores[j])) for j in attr_order[:top_attrs]]
    return EmbeddingDescription(related=tuple(related), attributes=tuple(attributes))


def correlation_to_tsv(labels, corr: np.ndarray) -> str:
    """Correlation matrix as TSV with a header row and column of names."""
    labels = list(labels)
    corr = np.asarray(corr, dtype=np.float64)
    if corr.shape != (len(labels), len(labels)):
        raise ValueError(f"matrix shape {corr.shape} does not match {len(labels)} labels")
    lines = ["\t".join(["label", *labels])]
    for i, name in enumerate(labels):
        lines.append("\t".join([name, *(format_float(v) for v in corr[i])]))
    return "\n".join(lines) + "\n"
