"""Which phcle functions the traced run wraps, what each wrapper counts,
and how spans become per-layer metrics.

A span is ``[name, start, end, parent, counters, failed]``; ``parent`` is
the index of the enclosing span in the same process, or -1. Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import os

LAYERS = ("cli", "ingest", "relational", "descriptive", "trainer", "datamodel", "evaluation")

# Called once per written cell, so a span around it would cost more than
# the work it measures.
NOT_WRAPPED = {"datamodel.format_float"}


def _relational(dense_operands):
    """Counters computed from shapes, not measured: one dim x contexts x
    labels product (2*d*m*n flops) per call, and the float64 bytes of the
    dense contexts x labels operands the call reads plus both factors."""

    def count(a, result):
        (d, m), n = a["C"].shape, a["W"].shape[1]
        return {"flop": 2.0 * d * m * n, "bytes": 8.0 * (dense_operands * m * n + d * (m + n))}

    return count


def _fista(a, result):
    used = int(result[1])
    return {"iters": used, "converged": int(used < a["hyper"].inner_max_iter)}


def _train(a, result):
    objectives = [r.objective for r in result[1].records]
    falls = sum(1 for prev, cur in zip(objectives, objectives[1:]) if cur < prev)
    return {"outer_iters": len(objectives) - 1, "descents": falls}


# Counters taken after a wrapped call returns, from its bound arguments
# and its result. Keys are span names (module without the package prefix).
COUNTERS = {
    "cli.read_cooccurrence_tsv": lambda a, r: {
        "bytes": os.path.getsize(a["path"]), "entries": int((r[1] != 0).sum())},
    "cli.write_cooccurrence_tsv": lambda a, r: {
        "bytes": os.path.getsize(a["path"]), "lines": int((a["D"] != 0).sum())},
    "cli.load_config": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "ingest.load_attribute_table": lambda a, r: {"cells": int(r.mask.sum())},
    "ingest.load_relation_file": lambda a, r: {"records": len(r)},
    "ingest.load_hierarchy_file": lambda a, r: {"lines": len(r)},
    "ingest.hierarchy_to_relations": lambda a, r: {"records": len(r)},
    "ingest.build_cooccurrence": lambda a, r: {"records": len(a["records"])},
    "relational.emf_objective": _relational(2),
    "relational.expected_cooccurrence": _relational(1),
    "relational.grad_C": _relational(1),
    "relational.grad_W_relational": _relational(1),
    "descriptive.fista_solve_U": _fista,
    "trainer.train": _train,
    "trainer.train_generalized": _train,
    "datamodel.save_model": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "datamodel.load_model": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "datamodel.save_embeddings": lambda a, r: {"bytes": os.path.getsize(a["path"])},
}

# Functions whose metrics the benchmark reports by name. A name missing
# from its module is reported as absent and its metrics read 0.
CALLS_AND_SECONDS = (
    "relational.emf_objective", "relational.grad_C", "relational.grad_W_relational",
    "relational.expected_cooccurrence",
    "descriptive.fista_solve_U", "descriptive.lipschitz_bound", "descriptive.masked_residual",
    "descriptive.grad_W_descriptive",
    "ingest.load_attribute_table", "ingest.build_cooccurrence", "ingest.negative_bound_values",
    "datamodel.save_model", "datamodel.load_model", "datamodel.save_embeddings",
    "evaluation.retrieve_labels", "evaluation.correlation_matrix", "evaluation.cluster_order",
    "evaluation.describe_embedding",
)
SECONDS_AND_BYTES = ("cli.read_cooccurrence_tsv", "cli.write_cooccurrence_tsv", "cli.load_config")
# Input parsers that only some workloads call: a time of exactly 0 on the
# others would read as a broken timer, so these report counts only and
# their time shows in ``ingest.self_s`` and ``build_cooc_s``.
CALLS_ONLY = ("ingest.load_hierarchy_file", "ingest.hierarchy_to_relations", "ingest.load_relation_file")
TRAIN_ENTRIES = ("trainer.train", "trainer.train_generalized")
NAMED = CALLS_AND_SECONDS + SECONDS_AND_BYTES + CALLS_ONLY + TRAIN_ENTRIES

# Item counts reported as ``<span name>.<counter>``.
COUNTS = (
    ("cli.read_cooccurrence_tsv", "entries"), ("cli.write_cooccurrence_tsv", "lines"),
    ("ingest.load_attribute_table", "cells"), ("ingest.load_hierarchy_file", "lines"),
    ("ingest.hierarchy_to_relations", "records"), ("ingest.load_relation_file", "records"),
    ("ingest.build_cooccurrence", "records"),
)


_UNITS = {
    "s": "s", "self_s": "s", "overhead_s": "s", "bytes": "bytes", "gflop_computed": "GFLOP",
    "bytes_computed": "GB", "fista_converged_ratio": "ratio", "descent_ratio": "ratio",
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from the last part of its name; the
    metrics not listed are counts."""
    return _UNITS.get(metric.rsplit(".", 1)[1], "count")


def aggregate(processes) -> dict:
    """Fold the spans of several traced processes into per-layer metrics
    (all but ``trace.overhead_s``, which needs the untraced runs)."""
    calls, seconds, counters = {}, {}, {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    failed = dict.fromkeys(LAYERS, 0)
    for spans in processes:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, extra, span_failed) in enumerate(spans):
            layer = name.split(".", 1)[0]
            calls[name] = calls.get(name, 0) + 1
            seconds[name] = seconds.get(name, 0.0) + (end - start)
            self_s[layer] += (end - start) - child_time[i]
            failed[layer] += int(span_failed)
            for key, value in (extra or {}).items():
                counters.setdefault(name, {}).setdefault(key, 0)
                counters[name][key] += value

    def counter(name, key):
        return counters.get(name, {}).get(key, 0)

    m = {}
    for name in CALLS_AND_SECONDS:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = seconds.get(name, 0.0)
        if name.startswith("datamodel."):
            m[f"{name}.bytes"] = counter(name, "bytes")
    for name in SECONDS_AND_BYTES:
        m[f"{name}.s"] = seconds.get(name, 0.0)
        m[f"{name}.bytes"] = counter(name, "bytes")
    for name in CALLS_ONLY:
        m[f"{name}.calls"] = calls.get(name, 0)
    for name, key in COUNTS:
        m[f"{name}.{key}"] = counter(name, key)

    relational = [n for n in CALLS_AND_SECONDS if n.startswith("relational.")]
    m["relational.gflop_computed"] = sum(counter(n, "flop") for n in relational) / 1e9
    m["relational.bytes_computed"] = sum(counter(n, "bytes") for n in relational) / 1e9
    solves = calls.get("descriptive.fista_solve_U", 0)
    m["descriptive.fista_iters"] = counter("descriptive.fista_solve_U", "iters")
    m["descriptive.fista_converged_ratio"] = (
        counter("descriptive.fista_solve_U", "converged") / solves if solves else 0.0
    )
    m["trainer.train.s"] = sum(seconds.get(n, 0.0) for n in TRAIN_ENTRIES)
    outer = sum(counter(n, "outer_iters") for n in TRAIN_ENTRIES)
    m["trainer.outer_iters"] = outer
    m["trainer.descent_ratio"] = sum(counter(n, "descents") for n in TRAIN_ENTRIES) / outer if outer else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.failed"] = failed[layer]
    rank = {layer: i for i, layer in enumerate(LAYERS)}
    return dict(sorted(m.items(), key=lambda kv: rank[kv[0].split(".", 1)[0]]))
