"""Output checks. Each returns an error message, or None when it passes."""

from __future__ import annotations

import numpy as np

# The benchmark's objective sums in another order than the trainer, so
# the two agree to rounding, not bit for bit.
OBJECTIVE_RTOL = 1e-9
MATRIX_ATOL = 1e-12


def read_history(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    keys = header.split("\t")
    return [dict(zip(keys, map(float, row.split("\t")))) for row in rows]


def reference_objective(workload, model, vocab) -> float:
    """Full objective of a loaded model, recomputed with dense numpy from
    the generated inputs."""
    if tuple(vocab.labels) != workload.labels:
        raise ValueError("model label vocabulary differs from the generated labels")
    h = workload.hyper
    D = workload.D
    Q = D + h["k"] * np.outer(D.sum(axis=1), D.sum(axis=0)) / D.sum()
    C = model.Cs[0] if hasattr(model, "Cs") else model.C
    Us = list(model.Us) if hasattr(model, "Us") else [model.U]
    W = model.W
    X = C.T @ W
    emf = float(h["alpha"]) * float(np.sum(Q * np.logaddexp(0.0, X) - D * X))
    desc = 0.0
    for (A, mask), U, weight in zip(workload.tables, Us, workload.desc_weights):
        R = mask * (A - W.T @ U)
        desc += 0.5 * weight * float(np.sum(R * R))
    l1 = h["lambda2"] * sum(float(np.abs(U).sum()) for U in Us)
    l2 = 0.5 * h["lambda3"] * (float(np.sum(W * W)) + sum(float(np.sum(U * U)) for U in Us))
    return emf + desc + l1 + l2


def check_objective(expected: float, reported: float):
    if abs(expected - reported) > OBJECTIVE_RTOL * abs(expected):
        return f"recomputed objective {expected!r} differs from history {reported!r}"
    return None


def check_descent(history):
    first, last = history[0]["objective"], history[-1]["objective"]
    if last > first:
        return f"final objective {last!r} exceeds the starting {first!r}"
    return None


def check_build(stdout: str, D):
    expected = f"labels={D.shape[1]} contexts={D.shape[0]} nnz={int(np.count_nonzero(D))}"
    if stdout.strip() != expected:
        return f"build-cooc printed {stdout.strip()!r}, expected {expected!r}"
    return None


def check_retrieve(stdout: str, query: str, topk: int, labels):
    rows = [line.split("\t") for line in stdout.splitlines()]
    if len(rows) != topk or any(len(r) != 2 for r in rows):
        return f"retrieve printed {len(rows)} rows, expected {topk}"
    names = [r[0] for r in rows]
    if query in names:
        return f"retrieve returned the query {query!r}"
    index = {name: i for i, name in enumerate(labels)}
    if any(n not in index for n in names) or len(set(names)) != len(names):
        return "retrieve returned unknown or repeated labels"
    keys = [(-float(r[1]), index[r[0]]) for r in rows]
    if keys != sorted(keys):
        return "retrieve output is not sorted by similarity, then vocabulary order"
    return None


def check_correlate(stdout: str, subset, clusters: int):
    lines = stdout.splitlines()
    n = len(subset)
    if len(lines) != 2 * n + 2 or lines[n + 1] != "":
        return f"correlate printed {len(lines)} lines, expected {2 * n + 2}"
    if lines[0].split("\t") != ["label", *subset]:
        return "correlate header does not list the requested labels"
    rows = [line.split("\t") for line in lines[1:n + 1]]
    if [r[0] for r in rows] != list(subset):
        return "correlate rows are not in the requested order"
    M = np.array([[float(v) for v in r[1:]] for r in rows])
    if M.shape != (n, n) or np.abs(M - M.T).max() > MATRIX_ATOL:
        return "correlation matrix is not symmetric"
    if np.abs(np.diag(M) - 1.0).max() > MATRIX_ATOL:
        return "correlation matrix diagonal is not 1"
    assignment = [line.split("\t") for line in lines[n + 2:]]
    if [a[0] for a in assignment] != list(subset):
        return "cluster assignment does not list the requested labels"
    if sorted({int(a[1]) for a in assignment}) != list(range(clusters)):
        return f"cluster ids are not exactly 0..{clusters - 1}"
    return None


def check_describe(stdout: str):
    rows = [line.split("\t") for line in stdout.splitlines()]
    related = [float(r[2]) for r in rows if r[0] == "related"]
    if not related or abs(sum(related) - 100.0) > 1e-6:
        return f"describe percentages sum to {sum(related)!r}, not 100"
    if sum(1 for r in rows if r[0] == "attribute") == 0:
        return "describe listed no attributes"
    return None


def check_export(path, n_labels: int, dim: int):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != f"{n_labels} {dim}":
        return f"export header {lines[0] if lines else ''!r}, expected '{n_labels} {dim}'"
    if len(lines) != n_labels + 1:
        return f"export has {len(lines) - 1} vectors, expected {n_labels}"
    return None
