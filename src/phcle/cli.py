"""Command-line front-end.

Commands: build-cooc, train, retrieve, correlate, describe, export.
Exit codes: 0 success, 1 I/O failure, 2 malformed input or arguments,
3 training divergence.

Each command imports the modules it runs when it runs, so a query loads
neither the training stack nor the input file readers.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
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
from .errors import DivergenceError, ParseError, read_text

# Each config key (key=value lines, '#' comments) and the HyperParams field
# it sets, in the order the defaults are noted and the values are checked.
CONFIG_KEYS: dict[str, str] = {
    "lambda1": "lambda1",
    "lambda2": "lambda2",
    "lambda3": "lambda3",
    "k": "negative_samples",
    "dim": "dim",
    "outer_iters": "outer_iters",
    "inner_fista": "inner_max_iter",
    "step": "step_size",
    "epsilon": "tolerance",
    "seed": "seed",
    "init": "init_scheme",
    "inner_steps_c": "inner_steps_c",
    "inner_steps_w": "inner_steps_w",
    "alpha": "alpha",
    "beta": "beta",
}

GRID_VALUES = (1e-2, 1e-1, 1.0, 1e1, 1e2)


def _config_text(value) -> str:
    """A default as a config file would give it."""
    if isinstance(value, tuple):
        return ",".join(map(format_float, value))
    return str(value)


def _parse_config_value(text: str, default):
    """Read a config value as the type of the field's default; a tuple of
    weights is given comma separated."""
    if isinstance(default, tuple):
        return tuple(float(part.strip()) for part in text.split(","))
    return type(default)(text)


def load_config(path) -> HyperParams:
    """Parse a key=value config file into hyperparameters.

    Unknown keys are rejected; missing keys take ``HyperParams()``'s value
    and say so on stderr.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", path=path, line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ParseError(f"unknown config key {key!r}", path=path, line=lineno)
        if key in raw:
            raise ParseError(f"duplicate config key {key!r}", path=path, line=lineno)
        if not value:
            raise ParseError(f"empty value for {key!r}", path=path, line=lineno)
        raw[key] = value
    defaults = HyperParams()
    for key, field in CONFIG_KEYS.items():
        if key not in raw:
            print(f"config: {key} not set, using default {_config_text(getattr(defaults, field))}", file=sys.stderr)
    try:
        values = {
            field: _parse_config_value(raw[key], getattr(defaults, field))
            for key, field in CONFIG_KEYS.items()
            if key in raw
        }
        return HyperParams(**values)
    except ValueError as exc:
        raise ParseError(f"bad config value: {exc}", path=path) from None


# ---------------------------------------------------------------------------
# Sparse co-occurrence files: one "context<TAB>label<TAB>value" line per entry.


# Lines per write: the gather's temporaries take about 17 bytes per byte of
# text, so a block stays a few MB whatever the size of the file.
_WRITE_LINES = 1 << 12


def write_cooccurrence_tsv(path, vocab: VocabularyMaps, D: np.ndarray) -> None:
    rows, cols = np.nonzero(D)  # row-major order, as the file lists entries
    # Counts repeat a lot, so each distinct value is formatted once.
    distinct, which = np.unique(D[rows, cols], return_inverse=True)
    # Every piece a line is made of, encoded once into one byte pool:
    # "context\t" prefixes, then "label\t" prefixes, then "value\n" texts.
    pieces = [
        text.encode("utf-8")
        for text in itertools.chain(
            (name + "\t" for name in vocab.contexts),
            (name + "\t" for name in vocab.labels),
            (format_float(value) + "\n" for value in distinct.tolist()),
        )
    ]
    pool = np.frombuffer(b"".join(pieces), dtype=np.uint8)
    length = np.fromiter(map(len, pieces), dtype=np.intp, count=len(pieces))
    start = np.cumsum(length) - length
    # Each line's context, label and value as ids into the pieces.
    cols += len(vocab.contexts)
    which += len(vocab.contexts) + len(vocab.labels)
    with _atomic_open(path, "wb") as fh:
        for lo in range(0, rows.size, _WRITE_LINES):
            hi = lo + _WRITE_LINES
            ids = np.stack([rows[lo:hi], cols[lo:hi], which[lo:hi]], axis=1).ravel()
            lens = length[ids]
            ends = np.cumsum(lens)
            # Block byte k, in a piece that begins at block byte b, is pool
            # byte start[piece] + k - b.
            index = np.repeat(start[ids] - (ends - lens), lens)
            index += np.arange(index.size)
            fh.write(pool[index])


def _cooccurrence_lines(fh, path):
    from .ingest import _tab_lines

    for lineno, parts in _tab_lines(fh, path):
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
    from .ingest import _read_counts

    return _read_counts(path, _cooccurrence_lines, label_column=1, positive=False)


# ---------------------------------------------------------------------------
# Commands


def cmd_build_cooc(args) -> int:
    from .ingest import _accumulate, _batched, hierarchy_to_relations, load_hierarchy_file, load_relation_counts

    if args.relations is not None and (args.radius is not None or args.decay is not None):
        raise ValueError("--radius/--decay only apply to --hierarchy input")
    if args.hierarchy is not None:
        edges = load_hierarchy_file(args.hierarchy)
        given = {name: value for name in ("radius", "decay") if (value := getattr(args, name)) is not None}
        relations = hierarchy_to_relations(edges, **given)
        vocab, D = _accumulate(_batched(relations), args.hierarchy, len(relations))
    else:
        vocab, D = load_relation_counts(args.relations)
    write_cooccurrence_tsv(args.out, vocab, D)
    nnz = int(np.count_nonzero(D))
    print(f"labels={len(vocab.labels)} contexts={len(vocab.contexts)} nnz={nnz}")
    return 0


def _run_scorer(command: str, model_path) -> float:
    import shlex
    import subprocess

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
        score = float(lines[-1])
    except ValueError:
        raise ValueError(f"scoring command's last line is not a number: {lines[-1]!r}") from None
    if not math.isfinite(score):  # a NaN would compare as neither better nor worse
        raise ValueError(f"scoring command's last line is not a finite number: {lines[-1]!r}")
    return score


def cmd_train(args) -> int:
    from .ingest import load_attribute_table
    from .trainer import train_generalized

    if len(args.cooc) != 1:
        raise ValueError(f"train takes one co-occurrence file: --cooc given {len(args.cooc)} times")
    cooc_vocab, D = read_cooccurrence_tsv(args.cooc[0])
    hyper = load_config(args.config)
    tables = [load_attribute_table(path, cooc_vocab) for path in args.attrs]
    vocab = VocabularyMaps(cooc_vocab.labels, cooc_vocab.context_lists, [t.names for t in tables])

    def fit(h: HyperParams):
        return train_generalized([D], tables, h)

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
    from .evaluation import retrieve_labels

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
    return [name for line in read_text(path).split("\n") if (name := line.strip())]


def cmd_correlate(args) -> int:
    from .evaluation import cluster_order, correlation_matrix, correlation_to_tsv

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
    tokens = read_text(path).split()
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ParseError(f"non-numeric vector entry: {exc}", path=path) from None
    if len(values) != expected_dim:
        raise ValueError(f"vector in {path} has {len(values)} entries, model dimension is {expected_dim}")
    return np.array(values)


def cmd_describe(args) -> int:
    from .evaluation import describe_embedding

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
    # Appended, so that a second --cooc is refused rather than kept in place of the first.
    p.add_argument("--cooc", action="append", required=True, help="co-occurrence TSV from build-cooc (one)")
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
