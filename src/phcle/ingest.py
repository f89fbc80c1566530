"""Turn raw relation/attribute data into the matrices the trainer consumes."""

from __future__ import annotations

import itertools
import math
import os
import stat
from collections import defaultdict, deque

import numpy as np

from .datamodel import AttributeContext, VocabularyMaps
from .errors import ParseError, naming_undecodable


def _check_relation(label: str, context: str, weight: float) -> None:
    if not label or not context:
        raise ValueError("relation record needs non-empty label and context names")
    if not math.isfinite(weight) or weight <= 0:
        raise ValueError(
            f"relation weight must be a positive finite number, got {weight!r} "
            f"for {label!r} -> {context!r}"
        )


def _accumulate(blocks, path, capacity) -> tuple[VocabularyMaps, np.ndarray]:
    """Sum ``(contexts, labels, values)`` column blocks from the file
    ``path`` into a contexts x labels matrix over the sorted names, in one
    pass: names get ids in order of first appearance, the ids then map to
    positions in the sorted vocabulary, and the values are added in the
    order given, so each cell sums exactly as a line-by-line loop would.
    The arrays start with room for ``capacity`` entries and grow if the
    blocks hold more.

    A :class:`ParseError` from ``blocks`` keeps its line; any other
    ``ValueError`` (an undecodable byte, a bad name) and a sum that
    overflows become one naming ``path``.
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
            if end > len(values):
                for column in (rows, cols, values):
                    column.resize(max(end, 2 * len(values)), refcheck=False)
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


def _batched(entries, size=4096):
    """Group ``(context, label, value)`` entries into column blocks."""
    entries = iter(entries)
    while batch := list(itertools.islice(entries, size)):
        yield tuple(zip(*batch))


# Bytes the count-file tokenizer reads at a time, before completing the
# last line of the block. Each block's token strings are freed before the
# next, so small blocks keep reusing the same memory: with 256 KB blocks a
# 19k-line file left `train` peaking 2.6 MB higher, at no gain in speed.
_BLOCK_BYTES = 1 << 15
_TAB, _NEWLINE, _CR = 9, 10, 13


class _Irregular(Exception):
    """A count file the tokenizer leaves to the line-by-line reader."""


def _lines_of(fields, width) -> bool:
    """Whether the separator bytes ``fields`` end lines of ``width`` fields."""
    return len(fields) % width == 0 and bool(
        (fields.reshape(-1, width) == (_TAB,) * (width - 1) + (_NEWLINE,)).all()
    )


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
    width = None
    while block := fh.read(_BLOCK_BYTES):
        if not block.endswith(b"\n"):
            block += fh.readline()
            if not block.endswith(b"\n"):
                block += b"\n"
        buf = np.frombuffer(block, dtype=np.uint8)
        sep = (buf == _TAB) | (buf == _NEWLINE)
        fields = buf[sep]
        if width is None:
            width = 2 if weight_optional and _lines_of(fields, 2) else 3
        if (
            (buf == _CR).any()
            or not _lines_of(fields, width)
            or sep[0]
            or (sep[1:] & sep[:-1]).any()
        ):
            raise _Irregular
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


def _read_counts(path, line_entries, label_column, positive, weight_optional=False):
    """Sum a count file with :func:`_count_blocks`; on any irregularity
    sum ``line_entries(path)`` instead, so every error keeps the text and
    line the line reader gives it. (An overflowing sum needs no re-read:
    both paths add the same values in the same order.)"""
    info = os.stat(path)
    # An entry line has at least three characters and a newline (the last
    # line may lack it), so a regular file never makes the arrays grow.
    capacity = info.st_size // 4 + 1
    if stat.S_ISREG(info.st_mode):  # a pipe cannot be read a second time
        with open(path, "rb") as fh:
            try:
                return _accumulate(_count_blocks(fh, label_column, positive, weight_optional), path, capacity)
            except _Irregular:
                pass
    return _accumulate(_batched(line_entries(path)), path, capacity)


def hierarchy_to_relations(edges, radius: int = 2, decay: float = 0.5) -> list[tuple[str, str, float]]:
    """Expand a label hierarchy into weighted ``(context, label, weight)``
    tuples.

    Every ordered pair of distinct labels within ``radius`` undirected hops
    comes once, with weight ``decay ** (distance - 1)``, so direct
    neighbors get weight 1 and each extra hop multiplies by ``decay``. A
    weight that underflows to 0 raises ``ValueError``.
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

    relations: list[tuple[str, str, float]] = []
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
            weight = decay ** (dist[tgt] - 1)
            _check_relation(nodes[src], nodes[tgt], weight)
            relations.append((nodes[tgt], nodes[src], weight))
    return relations


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


def load_relation_counts(path) -> tuple[VocabularyMaps, np.ndarray]:
    """Read a relation file straight into counts: the vocabulary is the
    sorted label and context names, and repeated pairs add up in file
    order. Lines without a weight count 1.0."""
    return _read_counts(path, _relation_lines, label_column=0, positive=True, weight_optional=True)


def load_hierarchy_file(path) -> list[tuple[str, str]]:
    """Read tab-separated parent/child edges."""
    edges = []
    with open(path, "r", encoding="utf-8") as fh, naming_undecodable(path):
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
    with open(path, "r", encoding="utf-8") as fh, naming_undecodable(path):
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
    with open(path, "r", encoding="utf-8") as fh, naming_undecodable(path):
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
