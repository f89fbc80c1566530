"""Command-line front-end.

Commands: build-cooc, train, retrieve, correlate, describe, export.
Exit codes: 0 success, 1 I/O failure, 2 malformed input or arguments,
3 training divergence.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import shlex
import subprocess
import sys
from dataclasses import replace

import numpy as np

from .datamodel import (
    HyperParams,
    VocabularyMaps,
    _atomic_open,
    format_float,
    load_model,
    save_embeddings,
    save_model,
)
from .errors import DivergenceError, ParseError, UnsupportedVersionError
from .evaluation import (
    cluster_order,
    correlation_matrix,
    correlation_to_tsv,
    describe_embedding,
    retrieve_labels,
)
from .ingest import (
    _accumulate,
    hierarchy_to_relations,
    load_attribute_table,
    load_hierarchy_file,
    load_relation_counts,
    read_attribute_names,
)
from .trainer import train, train_generalized

# Documented defaults for every config key (key=value lines, '#' comments).
CONFIG_DEFAULTS: dict[str, str] = {
    "lambda1": "1.0",
    "lambda2": "0.01",
    "lambda3": "0.01",
    "k": "10",
    "dim": "100",
    "outer_iters": "50",
    "inner_fista": "50",
    "step": "1e-05",
    "epsilon": "0.0001",
    "seed": "0",
    "init": "uniform_random(0.1)",
    "inner_steps_c": "5",
    "inner_steps_w": "5",
    "alpha": "1",
    "beta": "1",
}

GRID_VALUES = (1e-2, 1e-1, 1.0, 1e1, 1e2)


def _parse_weights(text: str) -> tuple[float, ...]:
    return tuple(float(part.strip()) for part in text.split(","))


def load_config(path) -> HyperParams:
    """Parse a key=value config file into hyperparameters.

    Unknown keys are rejected; missing keys fall back to the documented
    default and say so on stderr.
    """
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected key=value, got {line!r}", path=path, line=lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_DEFAULTS:
                raise ParseError(f"unknown config key {key!r}", path=path, line=lineno)
            if key in raw:
                raise ParseError(f"duplicate config key {key!r}", path=path, line=lineno)
            if not value:
                raise ParseError(f"empty value for {key!r}", path=path, line=lineno)
            raw[key] = value
    for key, default in CONFIG_DEFAULTS.items():
        if key not in raw:
            print(f"config: {key} not set, using default {default}", file=sys.stderr)
            raw[key] = default
    try:
        return HyperParams(
            lambda1=float(raw["lambda1"]),
            lambda2=float(raw["lambda2"]),
            lambda3=float(raw["lambda3"]),
            negative_samples=int(raw["k"]),
            dim=int(raw["dim"]),
            outer_iters=int(raw["outer_iters"]),
            inner_max_iter=int(raw["inner_fista"]),
            step_size=float(raw["step"]),
            tolerance=float(raw["epsilon"]),
            seed=int(raw["seed"]),
            init_scheme=raw["init"],
            inner_steps_c=int(raw["inner_steps_c"]),
            inner_steps_w=int(raw["inner_steps_w"]),
            alpha=_parse_weights(raw["alpha"]),
            beta=_parse_weights(raw["beta"]),
        )
    except ValueError as exc:
        raise ParseError(f"bad config value: {exc}", path=path) from None


# ---------------------------------------------------------------------------
# Sparse co-occurrence files: one "context<TAB>label<TAB>value" line per entry.


def write_cooccurrence_tsv(path, vocab: VocabularyMaps, D: np.ndarray) -> None:
    rows, cols = np.nonzero(D)  # row-major order, as the file lists entries
    # Counts repeat a lot, so each distinct value is formatted once.
    distinct, which = np.unique(D[rows, cols], return_inverse=True)
    texts = [format_float(value) for value in distinct.tolist()]
    contexts = [name + "\t" for name in vocab.contexts]
    labels = [name + "\t" for name in vocab.labels]
    lines = [
        contexts[c] + labels[w] + texts[t]
        for c, w, t in zip(rows.tolist(), cols.tolist(), which.tolist())
    ]
    with _atomic_open(path) as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def _cooccurrence_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"expected 3 tab-separated fields, got {len(parts)}", path=path, line=lineno)
            try:
                value = float(parts[2])
            except ValueError:
                raise ParseError(f"non-numeric count {parts[2]!r}", path=path, line=lineno) from None
            if not math.isfinite(value) or value < 0:
                raise ParseError(f"count must be finite and >= 0, got {parts[2]}", path=path, line=lineno)
            yield parts[0], parts[1], value


def read_cooccurrence_tsv(path) -> tuple[VocabularyMaps, np.ndarray]:
    """Sum a co-occurrence file into its vocabulary and counts. A bad line
    raises a :class:`ParseError` naming it; a bad name, or duplicate lines
    whose sum overflows, raise one naming the file."""
    return _accumulate(_cooccurrence_lines(path), path)


# ---------------------------------------------------------------------------
# Commands


def cmd_build_cooc(args) -> int:
    if args.relations is not None and (args.radius is not None or args.decay is not None):
        raise ValueError("--radius/--decay only apply to --hierarchy input")
    if args.hierarchy is not None:
        edges = load_hierarchy_file(args.hierarchy)
        records = hierarchy_to_relations(
            edges,
            radius=args.radius if args.radius is not None else 2,
            decay=args.decay if args.decay is not None else 0.5,
        )
        # Each ordered pair comes once and every node has a partner, so
        # this sums and names exactly as build_cooccurrence would.
        vocab, D = _accumulate(((r.context, r.label, r.weight) for r in records), args.hierarchy)
    else:
        vocab, D = load_relation_counts(args.relations)
    write_cooccurrence_tsv(args.out, vocab, D)
    nnz = int(np.count_nonzero(D))
    print(f"labels={len(vocab.labels)} contexts={len(vocab.contexts)} nnz={nnz}")
    return 0


def _run_scorer(command: str, model_path) -> float:
    proc = subprocess.run(
        f"{command} {shlex.quote(str(model_path))}",
        shell=True,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise ValueError(
            f"scoring command exited with {proc.returncode}: {proc.stderr.strip() or proc.stdout.strip()}"
        )
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("scoring command printed no score")
    try:
        return float(lines[-1])
    except ValueError:
        raise ValueError(f"scoring command's last line is not a number: {lines[-1]!r}") from None


def cmd_train(args) -> int:
    cooc_vocab, D = read_cooccurrence_tsv(args.cooc)
    hyper = load_config(args.config)
    attr_names = [read_attribute_names(path) for path in args.attrs]
    vocab = VocabularyMaps(cooc_vocab.labels, cooc_vocab.context_lists, attr_names)
    contexts_list = [
        load_attribute_table(path, replace(vocab, attribute_lists=(names,)))
        for path, names in zip(args.attrs, attr_names)
    ]
    if args.grid_search is not None and len(contexts_list) > 1:
        raise ValueError("grid search supports a single descriptive context")

    def fit(h: HyperParams):
        if len(contexts_list) > 1:
            return train_generalized([D], contexts_list, h)
        return train(D, contexts_list[0].assoc, contexts_list[0].mask, h, vocab)

    if args.grid_search is None:
        model, history = fit(hyper)
        chosen = hyper
    else:
        candidate_path = str(args.out) + ".grid.tmp"
        best = None
        try:
            for l1, l2, l3 in itertools.product(GRID_VALUES, repeat=3):
                cand = replace(hyper, lambda1=l1, lambda2=l2, lambda3=l3)
                model, history = fit(cand)
                save_model(candidate_path, model, vocab, cand)
                score = _run_scorer(args.grid_search, candidate_path)
                print(f"grid: lambda1={l1:g} lambda2={l2:g} lambda3={l3:g} score={format_float(score)}")
                if best is None or score > best[0]:
                    best = (score, cand, model, history)
        finally:
            if os.path.exists(candidate_path):
                os.remove(candidate_path)
        score, chosen, model, history = best
        print(
            f"grid best: lambda1={chosen.lambda1:g} lambda2={chosen.lambda2:g} "
            f"lambda3={chosen.lambda3:g} score={format_float(score)}"
        )

    save_model(args.out, model, vocab, chosen)
    history_path = str(args.out) + ".history.tsv"
    with _atomic_open(history_path) as fh:
        fh.write(history.to_tsv())
    first, last = history.records[0].objective, history.records[-1].objective
    print(
        f"trained {len(history.records) - 1} iterations: "
        f"objective {format_float(first)} -> {format_float(last)}"
    )
    print(f"model written to {args.out}, history to {history_path}")
    return 0


def cmd_retrieve(args) -> int:
    model, vocab, _ = load_model(args.model)
    hits = retrieve_labels(model, vocab, args.query, topk=args.topk)
    if args.tsv:
        for name, sim in hits:
            print(f"{name}\t{format_float(sim)}")
        return 0
    print(f"query: {args.query}")
    width = max([len("label"), *(len(name) for name, _ in hits)]) if hits else len("label")
    print(f"rank  {'label'.ljust(width)}  similarity")
    for rank, (name, sim) in enumerate(hits, start=1):
        print(f"{rank:>4}  {name.ljust(width)}  {sim:>10.6f}")
    return 0


def _read_label_list(path) -> list[str]:
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            name = line.strip()
            if name:
                labels.append(name)
    return labels


def cmd_correlate(args) -> int:
    model, vocab, _ = load_model(args.model)
    subset = _read_label_list(args.labels)
    if not subset:
        raise ValueError(f"label list {args.labels} is empty")
    corr = correlation_matrix(model, vocab, subset)
    order = assignment = None
    if args.clusters is not None:
        order, assignment = cluster_order(corr, args.clusters)

    if args.tsv:
        sys.stdout.write(correlation_to_tsv(subset, corr))
        if assignment is not None:
            print()
            for name, cluster in zip(subset, assignment):
                print(f"{name}\t{cluster}")
        return 0

    width = max(len("label"), *(len(s) for s in subset))
    cell = max(8, *(len(s) for s in subset))
    print(" ".join(["label".ljust(width), *(s.rjust(cell) for s in subset)]))
    for i, name in enumerate(subset):
        print(" ".join([name.ljust(width), *(f"{v:.4f}".rjust(cell) for v in corr[i])]))
    if assignment is not None:
        print()
        print("order:", " ".join(subset[i] for i in order))
        print("clusters:")
        for name, cluster in zip(subset, assignment):
            print(f"  {name.ljust(width)}  {cluster}")
    return 0


def _read_vector(path, expected_dim: int) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ParseError(f"non-numeric vector entry: {exc}", path=path) from None
    if len(values) != expected_dim:
        raise ValueError(f"vector in {path} has {len(values)} entries, model dimension is {expected_dim}")
    return np.array(values)


def cmd_describe(args) -> int:
    model, vocab, _ = load_model(args.model)
    w_star = _read_vector(args.vector, model.dim)
    desc = describe_embedding(model, vocab, w_star, coverage=args.coverage, top_attrs=args.top_attrs)
    if args.tsv:
        for name, percent in desc.related:
            print(f"related\t{name}\t{format_float(percent)}")
        for name, score in desc.attributes:
            print(f"attribute\t{name}\t{format_float(score)}")
        return 0
    print(f"related labels (coverage {args.coverage:g}):")
    if not desc.related:
        print("  (none)")
    for name, percent in desc.related:
        print(f"  {name}  {percent:.2f}%")
    print(f"top {args.top_attrs} attributes:")
    if not desc.attributes:
        print("  (none)")
    for name, score in desc.attributes:
        print(f"  {name}  {score:.6f}")
    return 0


def cmd_export(args) -> int:
    model, vocab, _ = load_model(args.model)
    save_embeddings(model, vocab.labels, args.out)
    print(f"wrote {len(vocab.labels)} vectors of dimension {model.dim} to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phcle",
        description="Train and inspect label embeddings built from co-occurrence and attribute contexts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-cooc", help="turn relations or a hierarchy into a co-occurrence table")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--hierarchy", help="tab-separated parent/child edges")
    src.add_argument("--relations", help="tab-separated label/context[/weight] rows")
    p.add_argument("--radius", type=int, default=None, help="hierarchy hop radius (default 2)")
    p.add_argument("--decay", type=float, default=None, help="per-hop weight decay (default 0.5)")
    p.add_argument("--out", required=True, help="output co-occurrence TSV")
    p.set_defaults(func=cmd_build_cooc)

    p = sub.add_parser("train", help="fit a model from a co-occurrence table and attribute tables")
    p.add_argument("--cooc", required=True, help="co-occurrence TSV from build-cooc")
    p.add_argument("--attrs", action="append", required=True, help="attribute table (repeatable)")
    p.add_argument("--config", required=True, help="key=value hyperparameter file")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument(
        "--grid-search",
        default=None,
        metavar="CMD",
        help="score each lambda combination by running CMD <model-file>; "
        "CMD must print a number (higher is better) as its last stdout line",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("retrieve", help="nearest labels to a query label")
    p.add_argument("--model", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--topk", type=int, default=5)
    p.add_argument("--tsv", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("correlate", help="correlation matrix (and clusters) over a label list")
    p.add_argument("--model", required=True)
    p.add_argument("--labels", required=True, help="file with one label per line")
    p.add_argument("--clusters", type=int, default=None)
    p.add_argument("--tsv", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("describe", help="describe an arbitrary vector in the label space")
    p.add_argument("--model", required=True)
    p.add_argument("--vector", required=True, help="file with one whitespace-separated vector")
    p.add_argument("--coverage", type=float, default=0.8)
    p.add_argument("--top-attrs", type=int, default=6, dest="top_attrs")
    p.add_argument("--tsv", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("export", help="write label vectors as a text embedding file")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, UnsupportedVersionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
