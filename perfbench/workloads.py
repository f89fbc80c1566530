"""Seeded input generators for the benchmark workloads.

Each generator writes every file the program reads into a fresh directory
and returns a ``Workload`` that says which CLI calls one cycle makes and
holds the arrays the output checks recompute the objective from. Names
are zero-padded so the sorted vocabulary order the program uses equals
the generation order, and every label and context carries at least one
co-occurrence, because the program takes its vocabularies from that file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# Sizes per workload. The step in each config keeps the full-batch
# objective falling on every outer iteration of the planted counts.
DENSE = dict(contexts=2000, labels=2000, density=0.23, dim=100, attrs=50, observed=0.6, outer_iters=4)
WIDE = dict(contexts=100, labels=4000, per_label=3, tables=3, attrs=150, observed=0.6, missing_rows=0.2,
            dim=100, outer_iters=3, beta=(0.5, 0.25, 0.25))
HIER = dict(nodes=1500, branching=6, radius=3, dim=32, attrs=20, observed=0.6, outer_iters=3,
            retrieves=3, correlate_labels=100, clusters=5)
# Dense and wide cycles still query and correlate so that every workload
# reports every end-to-end metric; these calls are few and short there to
# keep the cycle on building and training.
SIDE_CORRELATE_LABELS = 60
# Two side correlate calls a cycle: with one, its median rested on three
# or four samples a run and spread too much.
SIDE_CORRELATES = 2
SIDE_RETRIEVES = 1
TOPK = 10


@dataclass
class Workload:
    directory: str
    build_args: list            # build-cooc arguments (output path included)
    train_args: list            # train arguments without --out
    queries: list               # (kind, argv) for retrieve/describe/export
    correlate_args: list        # correlate argv without --model
    subset: list                # labels the correlate call lists
    clusters: int
    correlates: int             # correlate calls per cycle
    # What the checks need to recompute the objective from the inputs.
    D: np.ndarray
    tables: list                # [(A, mask), ...] in --attrs order
    desc_weights: tuple
    hyper: dict
    labels: tuple
    dim: int


def _name(prefix: str, i: int) -> str:
    return f"{prefix}{i:05d}"


def _fmt(x: float) -> str:
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def _write_relations(path, D, label_names, context_names):
    rows, cols = np.nonzero(D)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(
            f"{label_names[w]}\t{context_names[c]}\t{_fmt(D[c, w])}\n" for c, w in zip(rows, cols)
        ))


def _write_attributes(path, A, mask, label_names, attr_names, present_rows):
    lines = ["\t".join(["label", *attr_names])]
    for row in present_rows:
        cells = [_fmt(v) if m else "NA" for v, m in zip(A[row], mask[row])]
        lines.append("\t".join([label_names[row], *cells]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_config(path, **values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in values.items()))


def _planted_attributes(rng, W_true, n_attrs, observed):
    rank = W_true.shape[0]
    V = rng.normal(0.0, 1.0, size=(rank, n_attrs))
    A = np.round(W_true.T @ V + rng.normal(0.0, 0.1, size=(W_true.shape[1], n_attrs)), 3)
    mask = (rng.random(A.shape) < observed).astype(np.float64)
    return A, mask


def _cover_rows_and_cols(rng, D):
    """Give every empty row and column a count of 1."""
    for c in np.flatnonzero(D.sum(axis=1) == 0):
        D[c, rng.integers(D.shape[1])] = 1.0
    for w in np.flatnonzero(D.sum(axis=0) == 0):
        D[rng.integers(D.shape[0]), w] = 1.0


def _base_hyper(seed, dim, outer_iters, step, epsilon="0.0001", inner_fista=50, beta="1"):
    return dict(
        lambda1=1.0, lambda2=0.01, lambda3=0.01, k=10, dim=dim, outer_iters=outer_iters,
        inner_fista=inner_fista, step=step, epsilon=epsilon, seed=seed, init="uniform_random(0.1)",
        inner_steps_c=5, inner_steps_w=5, alpha="1", beta=beta,
    )


def _query_calls(rng, directory, labels, dim, retrieves):
    queries = []
    for label in rng.choice(len(labels), size=retrieves, replace=False):
        queries.append(("retrieve", ["retrieve", "--query", labels[label], "--topk", str(TOPK), "--tsv"]))
    vector_path = os.path.join(directory, "vector.txt")
    with open(vector_path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(_fmt(v) for v in rng.normal(0.0, 1.0, size=dim)) + "\n")
    queries.append(("describe", ["describe", "--vector", vector_path, "--tsv"]))
    queries.append(("export", ["export", "--out", os.path.join(directory, "export.txt")]))
    return queries


def _correlate_call(rng, directory, labels, count, clusters, calls):
    path = os.path.join(directory, "subset.txt")
    subset = [labels[i] for i in sorted(rng.choice(len(labels), size=count, replace=False))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(name + "\n" for name in subset))
    return dict(correlate_args=["correlate", "--labels", path, "--clusters", str(clusters), "--tsv"],
                subset=subset, clusters=clusters, correlates=calls)


def dense_relational(seed: int, directory: str) -> Workload:
    p = DENSE
    rng = np.random.default_rng([seed, 1])
    rank = 8
    Ct = rng.normal(0.0, 0.6, size=(rank, p["contexts"]))
    Wt = rng.normal(0.0, 0.6, size=(rank, p["labels"]))
    X = Ct.T @ Wt
    # Shift the planted logits so about `density` of the cells are nonzero.
    shift = np.quantile(X, 1.0 - p["density"])
    present = rng.random(X.shape) < 1.0 / (1.0 + np.exp(-4.0 * (X - shift)))
    D = np.where(present, 1.0 + rng.poisson(np.exp(np.clip(X, -3, 1.5))), 0.0)
    _cover_rows_and_cols(rng, D)
    labels = tuple(_name("L", i) for i in range(p["labels"]))
    contexts = tuple(_name("C", i) for i in range(p["contexts"]))
    attr_names = [_name("a", j) for j in range(p["attrs"])]
    A, mask = _planted_attributes(rng, Wt, p["attrs"], p["observed"])

    relations = os.path.join(directory, "relations.tsv")
    cooc = os.path.join(directory, "cooc.tsv")
    attrs = os.path.join(directory, "attrs.tsv")
    config = os.path.join(directory, "config.txt")
    _write_relations(relations, D, labels, contexts)
    _write_attributes(attrs, A, mask, labels, attr_names, range(p["labels"]))
    hyper = _base_hyper(seed, p["dim"], p["outer_iters"], step="1e-05")
    _write_config(config, **hyper)
    return Workload(
        directory=directory,
        build_args=["build-cooc", "--relations", relations, "--out", cooc],
        train_args=["train", "--cooc", cooc, "--attrs", attrs, "--config", config],
        queries=_query_calls(rng, directory, labels, p["dim"], SIDE_RETRIEVES),
        **_correlate_call(rng, directory, labels, SIDE_CORRELATE_LABELS, 5, SIDE_CORRELATES),
        D=D, tables=[(A, mask)], desc_weights=(1.0,), hyper=hyper,
        labels=labels, dim=p["dim"],
    )


def wide_attrs(seed: int, directory: str) -> Workload:
    p = WIDE
    rng = np.random.default_rng([seed, 2])
    rank = 8
    D = np.zeros((p["contexts"], p["labels"]))
    for w in range(p["labels"]):
        picked = rng.choice(p["contexts"], size=p["per_label"], replace=False)
        D[picked, w] = 1.0 + rng.poisson(2.0, size=p["per_label"])
    _cover_rows_and_cols(rng, D)
    labels = tuple(_name("L", i) for i in range(p["labels"]))
    contexts = tuple(_name("C", i) for i in range(p["contexts"]))
    Wt = rng.normal(0.0, 0.6, size=(rank, p["labels"]))

    relations = os.path.join(directory, "relations.tsv")
    cooc = os.path.join(directory, "cooc.tsv")
    config = os.path.join(directory, "config.txt")
    _write_relations(relations, D, labels, contexts)
    tables, attr_paths = [], []
    for t in range(p["tables"]):
        names = [_name(f"t{t}a", j) for j in range(p["attrs"])]
        A, mask = _planted_attributes(rng, Wt, p["attrs"], p["observed"])
        kept = int(p["labels"] * (1 - p["missing_rows"]))
        present = np.sort(rng.choice(p["labels"], size=kept, replace=False))
        absent = np.setdiff1d(np.arange(p["labels"]), present)
        mask[absent] = 0.0
        path = os.path.join(directory, f"attrs{t}.tsv")
        _write_attributes(path, A, mask, labels, names, present)
        tables.append((A, mask))
        attr_paths += ["--attrs", path]
    beta = ",".join(_fmt(b) for b in p["beta"])
    # A tolerance no solve reaches makes every U solve use its whole
    # budget, so the work per outer iteration is the same on every seed
    # (at 1e-7 solves stopped after 16 to 28 steps, seed dependent).
    hyper = _base_hyper(seed, p["dim"], p["outer_iters"], step="0.0001", epsilon="1e-12",
                        inner_fista=20, beta=beta)
    _write_config(config, **hyper)
    return Workload(
        directory=directory,
        build_args=["build-cooc", "--relations", relations, "--out", cooc],
        train_args=["train", "--cooc", cooc, *attr_paths, "--config", config],
        queries=_query_calls(rng, directory, labels, p["dim"], SIDE_RETRIEVES),
        **_correlate_call(rng, directory, labels, SIDE_CORRELATE_LABELS, 5, SIDE_CORRELATES),
        D=D, tables=tables, desc_weights=p["beta"], hyper=hyper,
        labels=labels, dim=p["dim"],
    )


def hierarchy_cooccurrence(parents, radius, decay=0.5):
    """Reference for ``build-cooc --hierarchy``: weight decay**(hops-1) for
    every ordered pair within ``radius`` hops, by dense BFS over the tree."""
    n = len(parents)
    adjacency = [[] for _ in range(n)]
    for child, parent in enumerate(parents):
        if parent >= 0:
            adjacency[parent].append(child)
            adjacency[child].append(parent)
    D = np.zeros((n, n))
    for src in range(n):
        dist = {src: 0}
        frontier = [src]
        for hop in range(1, radius + 1):
            nxt = []
            for node in frontier:
                for other in adjacency[node]:
                    if other not in dist:
                        dist[other] = hop
                        nxt.append(other)
            frontier = nxt
        for tgt, hops in dist.items():
            if tgt != src:
                D[src, tgt] = decay ** (hops - 1)
    return D


def hierarchy_pipeline(seed: int, directory: str) -> Workload:
    p = HIER
    rng = np.random.default_rng([seed, 3])
    # Each node hangs under a random earlier node that still has room, so
    # no node becomes a hub and radius 3 reaches about 1% of the nodes.
    parents = [-1]
    children = [0]
    for i in range(1, p["nodes"]):
        while True:
            parent = int(rng.integers(0, i))
            if children[parent] < p["branching"]:
                break
        parents.append(parent)
        children[parent] += 1
        children.append(0)
    labels = tuple(_name("N", i) for i in range(p["nodes"]))
    hierarchy = os.path.join(directory, "hierarchy.tsv")
    with open(hierarchy, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{labels[parent]}\t{labels[child]}\n"
                         for child, parent in enumerate(parents) if parent >= 0))
    D = hierarchy_cooccurrence(parents, p["radius"])

    depth = np.zeros(p["nodes"])
    for i in range(1, p["nodes"]):
        depth[i] = depth[parents[i]] + 1
    Wt = np.vstack([depth / depth.max(), rng.normal(0.0, 0.6, size=(7, p["nodes"]))])
    attr_names = [_name("a", j) for j in range(p["attrs"])]
    A, mask = _planted_attributes(rng, Wt, p["attrs"], p["observed"])
    cooc = os.path.join(directory, "cooc.tsv")
    attrs = os.path.join(directory, "attrs.tsv")
    config = os.path.join(directory, "config.txt")
    _write_attributes(attrs, A, mask, labels, attr_names, range(p["nodes"]))
    hyper = _base_hyper(seed, p["dim"], p["outer_iters"], step="0.002")
    _write_config(config, **hyper)
    return Workload(
        directory=directory,
        build_args=["build-cooc", "--hierarchy", hierarchy, "--radius", str(p["radius"]), "--out", cooc],
        train_args=["train", "--cooc", cooc, "--attrs", attrs, "--config", config],
        queries=_query_calls(rng, directory, labels, p["dim"], p["retrieves"]),
        **_correlate_call(rng, directory, labels, p["correlate_labels"], p["clusters"], 1),
        D=D, tables=[(A, mask)], desc_weights=(1.0,), hyper=hyper,
        labels=labels, dim=p["dim"],
    )


GENERATORS = {
    "dense-relational": dense_relational,
    "wide-attrs": wide_attrs,
    "hierarchy-pipeline": hierarchy_pipeline,
}
