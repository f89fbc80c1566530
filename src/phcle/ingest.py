"""Turn raw relation/attribute data into the matrices the trainer consumes."""

from __future__ import annotations

import io
import itertools
import math
from collections import defaultdict, deque

import numpy as np

from .datamodel import AttributeContext, VocabularyMaps
from .errors import ParseError, _opened, naming_undecodable


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
    positions in the sorted vocabulary, and one ``np.bincount`` over the
    flat cell positions adds the values in the order given, so each cell
    sums exactly as a line-by-line loop would.
    ``capacity`` is an upper bound on the entries, not a starting size:
    the arrays never grow, and blocks that hold more raise.

    A :class:`ParseError` from ``blocks`` keeps its line; any other
    ``ValueError`` (a bad name, more than ``capacity`` entries) and a sum
    that overflows become one naming ``path``.
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
    cells = context_position[rows[:n]]
    cells *= len(labels)
    cells += label_position[cols[:n]]
    # bincount adds each weight to its cell in input order, from 0.0, and
    # gives integer zeros when there are no entries (an empty file).
    D = np.bincount(cells, weights=values[:n], minlength=len(contexts) * len(labels))
    D = D.astype(np.float64, copy=False).reshape(len(contexts), len(labels))
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
# Bytes the attribute-table reader reads at a time, one `np.loadtxt` call
# each. From 64 KB to 1 MB the size moved the parse of the wide benchmark's
# tables by less than run-to-run noise; a block's text, tokens and values
# take about ten times its size, which at 256 KB stays below what
# AttributeContext's copy of a 4000x150 table takes.
_TABLE_BLOCK_BYTES = 1 << 18
_TAB, _NEWLINE, _CR = 9, 10, 13


class _Irregular(Exception):
    """A file the block readers leave to the line-by-line reader."""


def _lines_of(fields, width) -> bool:
    """Whether the separator bytes ``fields`` end lines of ``width`` fields."""
    return len(fields) % width == 0 and bool(
        (fields.reshape(-1, width) == (_TAB,) * (width - 1) + (_NEWLINE,)).all()
    )


def _line_blocks(fh, size):
    """Yield the binary file ``fh`` in blocks of ``size`` bytes completed
    to the end of their last line, a missing final newline added."""
    while block := fh.read(size):
        if not block.endswith(b"\n"):
            block += fh.readline()
            if not block.endswith(b"\n"):
                block += b"\n"
        yield block


def _separators(buf, widths):
    """Return the positions of the tab and newline bytes in the block
    ``buf`` (a uint8 array ending in a newline) and the first of
    ``widths`` whose lines it holds: lines of that many non-empty
    tab-separated fields. Raises :class:`_Irregular` if no width fits, or
    on a carriage return."""
    at = np.flatnonzero((buf == _TAB) | (buf == _NEWLINE))
    if not ((buf == _CR).any() or at[0] == 0 or (np.diff(at) == 1).any()):
        fields = buf[at]
        for width in widths:
            if _lines_of(fields, width):
                return at, width
    raise _Irregular


class _Floats(dict):
    """Value text -> ``float(text)``, each distinct text parsed once."""

    def __missing__(self, text):
        value = self[text] = float(text)
        return value


def _count_blocks(fh, label_column, positive, weight_optional=False):
    """Yield ``(contexts, labels, values)`` column blocks from the binary
    file ``fh`` of ``name<TAB>name<TAB>value`` lines, the label name in
    field ``label_column``, checking each block as a whole. With
    ``weight_optional`` a file of ``name<TAB>name`` lines is read too, each
    line with the value 1.0; the first block fixes the field count.

    Counts repeat, so each block parses each distinct value text once
    (:class:`_Floats`). A block with more distinct texts than half its
    lines gains too little from that, and the rest of the file is parsed
    text by text.

    Raises :class:`_Irregular` on anything the line reader judges or
    reads differently: a carriage return, a blank line or another field
    count, an empty field, undecodable UTF-8, a value ``float`` rejects,
    and a value that is not finite and ``> 0`` (``positive``) or ``>= 0``.
    """
    widths = (2, 3) if weight_optional else (3,)
    repeated = True
    for block in _line_blocks(fh, _BLOCK_BYTES):
        _, width = _separators(np.frombuffer(block, dtype=np.uint8), widths)
        widths = (width,)
        try:
            tokens = block.decode("utf-8").replace("\n", "\t").split("\t")
            tokens.pop()  # after the final newline
            lines = len(tokens) // width
            if width == 2:
                values = np.ones(lines)
            elif repeated:
                floats = _Floats()
                values = np.fromiter(map(floats.__getitem__, tokens[2::3]), np.float64, lines)
                repeated = 2 * len(floats) <= lines
            else:
                values = np.fromiter(map(float, tokens[2::3]), np.float64, lines)
        except ValueError:  # UnicodeDecodeError included
            raise _Irregular from None
        if not np.isfinite(values).all() or not (values > 0 if positive else values >= 0).all():
            raise _Irregular
        names = tokens[0::width], tokens[1::width]
        yield names[1 - label_column], names[label_column], values


def _tab_lines(fh, path, start=1):
    """Yield ``(line number, fields)`` for each non-blank line of the text
    file ``fh``, numbered from ``start``, its line end stripped and its
    fields split at tabs; undecodable text raises a :class:`ParseError`
    naming ``path`` and the line of the bad byte."""
    with naming_undecodable(path, fh.buffer):
        for lineno, line in enumerate(fh, start=start):
            line = line.rstrip("\r\n")
            if line:
                yield lineno, line.split("\t")


def _read_counts(path, line_entries, label_column, positive, weight_optional=False):
    """Sum a count file with :func:`_count_blocks`; on any irregularity
    sum ``line_entries(text, path)`` over the same handle instead, so
    every error keeps the text and line the line reader gives it. (An
    overflowing sum needs no re-read: both paths add the same values in
    the same order.)"""
    with _opened(path) as fh:
        # An entry line has at least three characters and a line end (the
        # last line may lack it), so the file holds at most this many.
        capacity = fh.seek(0, io.SEEK_END) // 4 + 1
        fh.seek(0)
        try:
            return _accumulate(_count_blocks(fh, label_column, positive, weight_optional), path, capacity)
        except _Irregular:
            fh.seek(0)
        # As open(path, "r"): universal newlines, so the same line numbers.
        text = io.TextIOWrapper(fh, encoding="utf-8")
        return _accumulate(_batched(line_entries(text, path)), path, capacity)


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


def _relation_lines(fh, path):
    """Yield ``(context, label, weight)`` for each non-blank line of the
    relation file ``fh``; a bad line raises a :class:`ParseError` naming
    it."""
    for lineno, parts in _tab_lines(fh, path):
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
    with io.TextIOWrapper(_opened(path), encoding="utf-8") as fh:
        for lineno, parts in _tab_lines(fh, path):
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ParseError("expected 'parent<TAB>child'", path=path, line=lineno)
            edges.append((parts[0], parts[1]))
    return edges


def _attribute_names(fh, path) -> tuple[tuple[str, ...], int]:
    """Return the attribute names in the header line that the text file
    ``fh`` starts with, and the line's length in bytes."""
    with naming_undecodable(path, fh.buffer):
        header = fh.readline()
    cells = header.rstrip("\r\n").split("\t")
    if not cells or cells[0] != "label":
        raise ParseError("header must start with a 'label' column", path=path, line=1)
    names = tuple(cells[1:])
    if any(not n for n in names):
        raise ParseError("empty attribute name in header", path=path, line=1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate attribute names in header", path=path, line=1)
    return names, len(header.encode("utf-8"))


def read_attribute_names(path) -> tuple[str, ...]:
    """Return the attribute column names from a table header."""
    with io.TextIOWrapper(_opened(path), encoding="utf-8") as fh:
        return _attribute_names(fh, path)[0]


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _zeroed_table(vocab: VocabularyMaps, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zeroed ``(assoc, mask, seen)`` to read ``m`` attributes into; the mask is bool."""
    n = len(vocab.labels)
    return np.zeros((n, m)), np.zeros((n, m), dtype=bool), np.zeros(n, dtype=bool)


def _table_lines(fh, path, vocab: VocabularyMaps, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read the ``m``-attribute rows past the header of the text file ``fh``
    into ``(assoc, mask)``; a :class:`ParseError` names the first bad line."""
    A, mask, seen = _zeroed_table(vocab, m)
    for lineno, cells in _tab_lines(fh, path, start=2):
        if len(cells) != m + 1:
            raise ParseError(f"expected {m + 1} fields, got {len(cells)}", path=path, line=lineno)
        try:
            row = vocab.label_index(cells[0])
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=lineno) from None
        if seen[row]:
            raise ParseError(f"duplicate row for label {cells[0]!r}", path=path, line=lineno)
        seen[row] = True
        fields = cells[1:]
        try:
            A[row] = [0.0 if cell == "NA" else float(cell) for cell in fields]
        except ValueError:
            bad = next(cell for cell in fields if cell != "NA" and not _is_float(cell))
            raise ParseError(f"non-numeric cell {bad!r}", path=path, line=lineno) from None
        if not np.isfinite(A[row]).all():
            bad = next(cell for cell in fields if cell != "NA" and not math.isfinite(float(cell)))
            raise ParseError(f"non-finite cell {bad!r}", path=path, line=lineno)
        mask[row] = [cell != "NA" for cell in fields]
    return A, mask


def _table_block(block, vocab: VocabularyMaps, A, mask) -> np.ndarray:
    """Parse a block of whole attribute-table lines into the rows of ``A``
    and ``mask`` they name, and return those row indices. Each exact
    ``NA`` cell becomes `` 0`` first (two bytes for two, so the separators
    stay put) and is marked unobserved; the labels are looked up in Python
    and the cells parsed by one ``np.loadtxt``, which rounds each value as
    ``float`` does.

    Raises :class:`_Irregular` on anything the line reader judges or
    reads differently: a carriage return, a blank line or another field
    count, an empty field, undecodable UTF-8, a byte 0x1c-0x1f (white
    space to ``loadtxt`` but not to ``float``), a cell ``loadtxt``
    rejects (``1_0``, ``١``, ``NA ``), a value that is not finite, and an
    unknown label.
    """
    data = bytearray(block)
    buf = np.frombuffer(data, dtype=np.uint8)
    ends, width = _separators(buf, (A.shape[1] + 1,))
    if ((buf & 0xFC) == 0x1C).any():
        raise _Irregular
    # Cell c of the block ends at ends[c]; an exact NA cell holds the two
    # bytes after a separator, and is no label (c % width == 0).
    cells = np.flatnonzero(np.diff(ends) == 3) + 1
    cells = cells[cells % width != 0]
    na = ends[cells - 1] + 1
    exact = (buf[na] == ord("N")) & (buf[na + 1] == ord("A"))
    cells, na = cells[exact], na[exact]
    buf[na] = ord(" ")
    buf[na + 1] = ord("0")
    try:
        lines = data.decode("utf-8").split("\n")
        lines.pop()  # after the final newline
        rows = np.fromiter((vocab.label_index(line.partition("\t")[0]) for line in lines), np.intp, len(lines))
        values = np.loadtxt(lines, delimiter="\t", usecols=range(1, width), comments=None, ndmin=2)
    except ValueError:  # UnicodeDecodeError and an unknown label included
        raise _Irregular from None
    if not np.isfinite(values).all():
        raise _Irregular
    A[rows] = values
    mask[rows] = True
    mask[rows[cells // width], cells % width - 1] = False
    return rows


def _table_blocks(fh, vocab: VocabularyMaps, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read the rows of an attribute table of ``m`` attributes from the
    binary file ``fh``, past its header, into ``(assoc, mask)``, a block
    of lines at a time (:func:`_table_block`, whose temporaries are freed
    before the next block is read). Raises :class:`_Irregular` where that
    does, and on a repeated label."""
    A, mask, seen = _zeroed_table(vocab, m)
    rows_read = 0
    for block in _line_blocks(fh, _TABLE_BLOCK_BYTES):
        rows = _table_block(block, vocab, A, mask)
        seen[rows] = True
        rows_read += len(rows)
        if np.count_nonzero(seen) != rows_read:
            raise _Irregular
    return A, mask


def load_attribute_table(path, vocab: VocabularyMaps) -> AttributeContext:
    """Read a tab-separated attribute table into an association + mask pair.

    The header is ``label`` followed by the attribute names, which must
    match the vocabulary. A cell of ``NA`` marks an unobserved entry;
    labels in the vocabulary without a row come back fully masked.

    The path is opened once (:func:`_opened`). The rows are read with
    :func:`_table_blocks`; on any irregularity they are read again with
    :func:`_table_lines`, so every error keeps the text and line the line
    reader gives it.
    """
    with _opened(path) as fh:
        # Without newline translation a text line still ends at CR, LF or
        # CRLF but keeps its bytes, so the rows start right after the
        # header's; the line reader reads the same text handle.
        text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
        names, rows_start = _attribute_names(text, path)
        if names != vocab.attributes:
            raise ValueError(
                f"attribute columns in {path} do not match the vocabulary "
                f"({len(names)} columns vs {len(vocab.attributes)} attributes)"
            )
        fh.seek(rows_start)
        try:
            return AttributeContext(*_table_blocks(fh, vocab, len(names)))
        except _Irregular:
            pass
        text.seek(0)
        text.readline()
        return AttributeContext(*_table_lines(text, path, vocab, len(names)))


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
