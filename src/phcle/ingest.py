"""Turn raw relation/attribute data into the matrices the trainer consumes."""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from .datamodel import AttributeContext, CooccurrenceMatrix, VocabularyMaps
from .errors import ParseError


@dataclass(frozen=True)
class RelationRecord:
    """One observed (label, context) pair with a positive weight."""

    label: str
    context: str
    weight: float = 1.0

    def __post_init__(self):
        _check_relation(self.label, self.context, self.weight)


def _check_relation(label: str, context: str, weight: float) -> None:
    if not label or not context:
        raise ValueError("relation record needs non-empty label and context names")
    if not math.isfinite(weight) or weight <= 0:
        raise ValueError(
            f"relation weight must be a positive finite number, got {weight!r} "
            f"for {label!r} -> {context!r}"
        )


def build_cooccurrence(records, vocab: VocabularyMaps) -> CooccurrenceMatrix:
    """Accumulate record weights into a contexts x labels count matrix.

    Repeated (label, context) pairs add up. Any name missing from the
    vocabulary is an error identifying the offending record.
    """
    D = np.zeros((len(vocab.contexts), len(vocab.labels)))
    for rec in records:
        try:
            w = vocab.label_index(rec.label)
            c = vocab.context_index(rec.context)
        except ValueError as exc:
            raise ValueError(f"{exc} (record {rec.label!r} -> {rec.context!r})") from None
        D[c, w] += rec.weight
    return CooccurrenceMatrix(values=D)


def _accumulate(entries) -> tuple[VocabularyMaps, np.ndarray]:
    """Sum ``(context, label, value)`` entries into a contexts x labels
    matrix over the sorted names, in one pass: names get ids in order of
    first appearance, the ids then map to positions in the sorted
    vocabulary, and the values are added in the order given, so each cell
    sums exactly as a line-by-line loop would."""
    context_ids = defaultdict(itertools.count().__next__)
    label_ids = defaultdict(itertools.count().__next__)
    rows, cols, values = [], [], []
    for context, label, value in entries:
        rows.append(context_ids[context])
        cols.append(label_ids[label])
        values.append(value)

    def sorted_names(ids):
        names = tuple(sorted(ids))
        position = np.empty(len(names), dtype=np.intp)
        position[[ids[name] for name in names]] = np.arange(len(names))
        return names, position

    contexts, context_position = sorted_names(context_ids)
    labels, label_position = sorted_names(label_ids)
    D = np.zeros((len(contexts), len(labels)))
    np.add.at(
        D,
        (context_position[np.array(rows, dtype=np.intp)], label_position[np.array(cols, dtype=np.intp)]),
        np.array(values, dtype=np.float64),
    )
    return VocabularyMaps(labels=labels, context_lists=(contexts,)), D


def hierarchy_to_relations(edges, radius: int = 2, decay: float = 0.5) -> list[RelationRecord]:
    """Expand a label hierarchy into weighted relation records.

    Every ordered pair of distinct labels within ``radius`` undirected hops
    becomes a record with weight ``decay ** (distance - 1)``, so direct
    neighbors get weight 1 and each extra hop multiplies by ``decay``.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if not np.isfinite(decay) or not 0 < decay <= 1:
        raise ValueError("decay must lie in (0, 1]")
    nodes: list[str] = []
    index: dict[str, int] = {}
    adjacency: list[set[int]] = []

    def intern(name: str) -> int:
        if not name:
            raise ValueError("hierarchy contains an empty label name")
        if name not in index:
            index[name] = len(nodes)
            nodes.append(name)
            adjacency.append(set())
        return index[name]

    for parent, child in edges:
        if parent == child:
            raise ValueError(f"hierarchy contains a self-loop at {parent!r}")
        p, c = intern(parent), intern(child)
        adjacency[p].add(c)
        adjacency[c].add(p)

    records: list[RelationRecord] = []
    for src in range(len(nodes)):
        dist = {src: 0}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            if dist[node] == radius:
                continue
            for nxt in adjacency[node]:
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    frontier.append(nxt)
        for tgt in sorted(t for t in dist if t != src):
            records.append(
                RelationRecord(nodes[src], nodes[tgt], decay ** (dist[tgt] - 1))
            )
    return records


def _relation_lines(path):
    """Yield ``(context, label, weight)`` for each non-blank line of a
    relation file; a bad line raises a :class:`ParseError` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) not in (2, 3):
                raise ParseError(f"expected 2 or 3 tab-separated fields, got {len(parts)}", path=path, line=lineno)
            weight = 1.0
            if len(parts) == 3:
                try:
                    weight = float(parts[2])
                except ValueError:
                    raise ParseError(f"non-numeric weight {parts[2]!r}", path=path, line=lineno) from None
            try:
                _check_relation(parts[0], parts[1], weight)
            except ValueError as exc:
                raise ParseError(str(exc), path=path, line=lineno) from None
            yield parts[1], parts[0], weight


def load_relation_file(path) -> list[RelationRecord]:
    """Read tab-separated relation lines: label, context, optional weight."""
    return [RelationRecord(label, context, weight) for context, label, weight in _relation_lines(path)]


def load_relation_counts(path) -> tuple[VocabularyMaps, CooccurrenceMatrix]:
    """Read a relation file straight into counts: the vocabulary is the
    sorted label and context names, and repeated pairs add up in file
    order, as :func:`build_cooccurrence` on :func:`load_relation_file`
    would give."""
    vocab, D = _accumulate(_relation_lines(path))
    return vocab, CooccurrenceMatrix(values=D)


def load_hierarchy_file(path) -> list[tuple[str, str]]:
    """Read tab-separated parent/child edges."""
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ParseError("expected 'parent<TAB>child'", path=path, line=lineno)
            edges.append((parts[0], parts[1]))
    return edges


def read_attribute_names(path) -> tuple[str, ...]:
    """Return the attribute column names from a table header."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    cells = header.split("\t")
    if not cells or cells[0] != "label":
        raise ParseError("header must start with a 'label' column", path=path, line=1)
    names = tuple(cells[1:])
    if any(not n for n in names):
        raise ParseError("empty attribute name in header", path=path, line=1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate attribute names in header", path=path, line=1)
    return names


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load_attribute_table(path, vocab: VocabularyMaps) -> AttributeContext:
    """Read a tab-separated attribute table into an association + mask pair.

    The header is ``label`` followed by the attribute names, which must
    match the vocabulary. A cell of ``NA`` marks an unobserved entry;
    labels in the vocabulary without a row come back fully masked.
    """
    names = read_attribute_names(path)
    if names != vocab.attributes:
        raise ValueError(
            f"attribute columns in {path} do not match the vocabulary "
            f"({len(names)} columns vs {len(vocab.attributes)} attributes)"
        )
    m = len(names)
    A = np.zeros((len(vocab.labels), m))
    mask = np.zeros((len(vocab.labels), m))
    row_lines: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != m + 1:
                raise ParseError(f"expected {m + 1} fields, got {len(cells)}", path=path, line=lineno)
            try:
                row = vocab.label_index(cells[0])
            except ValueError as exc:
                raise ParseError(str(exc), path=path, line=lineno) from None
            if row in row_lines:
                raise ParseError(f"duplicate row for label {cells[0]!r}", path=path, line=lineno)
            row_lines[row] = lineno
            fields = cells[1:]
            try:
                A[row] = [0.0 if cell == "NA" else float(cell) for cell in fields]
            except ValueError:
                bad = next(cell for cell in fields if cell != "NA" and not _is_float(cell))
                raise ParseError(f"non-numeric cell {bad!r}", path=path, line=lineno) from None
            mask[row] = [cell != "NA" for cell in fields]
    # Unobserved cells hold 0.0 in A, so one scan finds any non-finite
    # observed value; only then is its line looked up.
    if not np.isfinite(A).all():
        lineno = min(row_lines[row] for row in np.flatnonzero(~np.isfinite(A).all(axis=1)).tolist())
        with open(path, "r", encoding="utf-8") as fh:
            line = next(itertools.islice(fh, lineno - 1, None))
        cells = line.rstrip("\n").split("\t")[1:]
        cell = next(cell for cell in cells if cell != "NA" and not math.isfinite(float(cell)))
        raise ParseError(f"non-finite cell {cell!r}", path=path, line=lineno)
    return AttributeContext(assoc=A, mask=mask)


def negative_bound_values(D: np.ndarray, negative_samples: int) -> np.ndarray:
    """Per-entry sampling budget: observed count plus ``k`` expected draws
    under the unigram product distribution of the count margins."""
    if negative_samples < 0:
        raise ValueError("negative sample count must be >= 0")
    D = np.asarray(D, dtype=np.float64)
    total = D.sum()
    if total <= 0:
        return D.copy()
    context_mass = D.sum(axis=1)
    label_mass = D.sum(axis=0)
    return negative_samples * np.outer(context_mass, label_mass) / total + D


def compute_negative_bound(D: CooccurrenceMatrix, negative_samples: int) -> CooccurrenceMatrix:
    """Wrap :func:`negative_bound_values` for the typed matrices. The
    result dominates the counts entrywise; it has their orientation and
    their finite, >= 0 checks, so it is a :class:`CooccurrenceMatrix` too."""
    return CooccurrenceMatrix(values=negative_bound_values(D.values, negative_samples))
