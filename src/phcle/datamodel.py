"""Core value types, model initialization, and persistence.

Matrices follow one orientation throughout the package:

* co-occurrence ``D`` and its negative-sampling bound ``Q`` are
  ``contexts x labels``,
* attribute association ``A`` and its observation mask ``I`` are
  ``labels x attributes``,
* embedding factors ``W`` (labels), ``C`` (contexts) and ``U``
  (attributes) each store one column per vocabulary entry, so they are
  ``dim x count``.

One model type covers every run: :class:`EmbeddingModel` holds the shared
``W`` plus one ``C`` per relational context and one ``U`` per descriptive
context, and :class:`VocabularyMaps` holds the matching name lists. The
classic model is the case with one context of each kind; its ``C``/``U``
and ``contexts``/``attributes`` views, and the ``PHCLE1`` file format,
serve that case. ``GeneralizedVocabulary`` is another name for
:class:`VocabularyMaps`.

All value objects are immutable after construction: array payloads are
copied to C-ordered float64 (observation masks to bool) and marked read-only.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers
import operator
import os
import re
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParseError, UnsupportedVersionError, read_text

_MODEL_MAGIC = b"PHCLE1"
_MODEL_MAGIC_GENERAL = b"PHCLG1"

# Uniform half-width of the default random initialization.
DEFAULT_INIT_SCHEME = "uniform_random(0.1)"


def _frozen_array(x, name, dtype=np.float64):
    arr = np.array(x, dtype=dtype, order="C", copy=True)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def format_float(x: float) -> str:
    """Shortest decimal string that parses back to exactly ``x``."""
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


@contextlib.contextmanager
def _atomic_open(path, mode="w"):
    """Open a new file next to ``path`` for writing (``"w"`` for UTF-8 text,
    ``"wb"`` for bytes) and move it onto ``path`` when the block ends.

    Readers of ``path`` see the old file or the whole new one, never part of
    it. If the block raises, the temp file is removed and ``path`` is left as
    it was. The temp file is made by plain ``open``, so its permissions
    follow the umask like any new file.
    """
    target = os.fspath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, mode.replace("w", "x"), encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        exc.filename = target  # name the file asked for, not the temp file
        raise
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, target)
        except OSError as exc:  # name the target alone, not "tmp -> target"
            raise OSError(exc.errno, exc.strerror, target) from None
    except BaseException:
        os.remove(tmp)
        raise


def _check_name(name: str, kind: str) -> None:
    if not name:
        raise ValueError(f"empty {kind} name")
    if any(ch in name for ch in "\t\n\r"):
        raise ValueError(f"{kind} name {name!r} contains a tab or newline")


_LINE_BREAK = re.compile("[\t\n\r]")  # what _check_name refuses in a name
_WHITESPACE = re.compile(r"\s")  # on str, the characters str.isspace accepts


def _all_pass(names, forbidden) -> bool:
    """Whether every name is non-empty and free of what the pattern
    ``forbidden`` matches, in one scan of the joined names. Callers run
    their per-name checks only when it is not, to word the error."""
    return all(names) and not forbidden.search("".join(names))


@dataclass(frozen=True)
class VocabularyMaps:
    """Label names plus one name list per relational context
    (``context_lists``) and per descriptive context (``attribute_lists``).

    The classic model has one of each; ``contexts`` and ``attributes``
    view that case as flat name lists.
    """

    labels: tuple[str, ...]
    context_lists: tuple[tuple[str, ...], ...]
    attribute_lists: tuple[tuple[str, ...], ...] = ((),)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "context_lists", tuple(tuple(c) for c in self.context_lists))
        object.__setattr__(self, "attribute_lists", tuple(tuple(a) for a in self.attribute_lists))
        for kind, lists in (
            ("label", (self.labels,)),
            ("context", self.context_lists),
            ("attribute", self.attribute_lists),
        ):
            for names in lists:
                if not _all_pass(names, _LINE_BREAK):
                    for name in names:
                        _check_name(name, kind)
                if len(set(names)) != len(names):
                    raise ValueError(f"duplicate {kind} names")
        object.__setattr__(self, "_label_idx", {n: i for i, n in enumerate(self.labels)})

    @cached_property
    def contexts(self) -> tuple[str, ...]:
        """The context names of the only relational context."""
        if len(self.context_lists) != 1:
            raise ValueError(f"vocabulary has {len(self.context_lists)} context lists, not one")
        return self.context_lists[0]

    @cached_property
    def attributes(self) -> tuple[str, ...]:
        """All attribute names, descriptive contexts in order."""
        names = tuple(itertools.chain.from_iterable(self.attribute_lists))
        if len(set(names)) != len(names):
            raise ValueError("attribute names collide across descriptive contexts")
        return names

    def label_index(self, name: str) -> int:
        try:
            return self._label_idx[name]
        except KeyError:
            raise ValueError(f"label {name!r} unknown") from None


@dataclass(frozen=True, eq=False)
class AttributeContext:
    """Attribute associations with a binary observation mask, given as 0/1
    values of any numeric or bool dtype and kept as a read-only bool array,
    and the column ``names``: one per column, or none if none are given.

    Entries of ``assoc`` where ``mask`` is False carry no information: any
    value (even a non-finite one) is permitted there and is stored as +0.0.
    """

    assoc: np.ndarray
    mask: np.ndarray
    names: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        mask = np.asarray(self.mask)
        if mask.dtype != bool and not np.isin(mask, (0, 1)).all():
            raise ValueError("mask entries must be 0 or 1")
        mask = _frozen_array(mask, "mask", dtype=bool)
        assoc = np.array(self.assoc, dtype=np.float64, order="C")  # a copy; 2-D, as it has the mask's shape
        if mask.shape != assoc.shape:
            raise ValueError(f"mask shape {mask.shape} does not match assoc shape {assoc.shape}")
        if self.names and len(self.names) != mask.shape[1]:
            raise ValueError(f"{len(self.names)} column names for {mask.shape[1]} attribute columns")
        np.copyto(assoc, 0.0, where=~mask)
        if not np.isfinite(assoc).all():
            raise ValueError("assoc contains non-finite observed entries")
        assoc.setflags(write=False)
        object.__setattr__(self, "assoc", assoc)
        object.__setattr__(self, "mask", mask)


@dataclass(frozen=True, eq=False)
class EmbeddingModel:
    """The shared label factor ``W``, one context factor per relational
    context (``Cs``) and one attribute factor per descriptive context
    (``Us``), all with ``dim`` rows.

    The classic model has one of each; ``C`` and ``U`` view that case as
    single factors.
    """

    W: np.ndarray
    Cs: tuple[np.ndarray, ...]
    Us: tuple[np.ndarray, ...]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "W", _frozen_array(self.W, "factor W"))
        for attr in ("Cs", "Us"):
            mats = tuple(_frozen_array(m, f"factor {attr[0]}[{i}]") for i, m in enumerate(getattr(self, attr)))
            object.__setattr__(self, attr, mats)
        if self.dim < 1:
            raise ValueError("embedding dimension must be >= 1")
        for name, arr in self._factors():
            if arr.shape[0] != self.dim:
                raise ValueError(f"factor {name} has {arr.shape[0]} rows, expected dim={self.dim}")

    def _factors(self):
        yield "W", self.W
        yield from ((f"C[{i}]", C) for i, C in enumerate(self.Cs))
        yield from ((f"U[{j}]", U) for j, U in enumerate(self.Us))

    @property
    def C(self) -> np.ndarray:
        """The context factor of the only relational context."""
        if len(self.Cs) != 1:
            raise ValueError(f"model has {len(self.Cs)} context factors, not one")
        return self.Cs[0]

    @property
    def U(self) -> np.ndarray:
        """All attribute factors side by side, one column per attribute."""
        return np.hstack((np.zeros((self.dim, 0)), *self.Us))

    def check_shapes(self, vocab: VocabularyMaps) -> None:
        counts = (len(vocab.context_lists), len(vocab.attribute_lists))
        if (len(self.Cs), len(self.Us)) != counts:
            raise ValueError(
                f"model has {len(self.Cs)} relational and {len(self.Us)} descriptive contexts, "
                f"vocabulary has {counts[0]} and {counts[1]}"
            )
        expected = [(vocab.labels, "labels")]
        expected += [(names, "contexts") for names in vocab.context_lists]
        expected += [(names, "attributes") for names in vocab.attribute_lists]
        for (name, arr), (names, kind) in zip(self._factors(), expected):
            if arr.shape[1] != len(names):
                raise ValueError(f"factor {name} has {arr.shape[1]} columns, vocabulary has {len(names)} {kind}")


GeneralizedVocabulary = VocabularyMaps


def _float64(value, name) -> float:
    try:
        return float(value)
    except OverflowError:  # an int or Fraction past the float64 range
        raise ValueError(f"{name} is out of the float64 range") from None


def _simplex_weights(values, name):
    weights = tuple(values) if np.iterable(values) and not isinstance(values, (str, bytes)) else None
    if weights is None or not all(isinstance(v, numbers.Real) for v in weights):
        raise ValueError(f"{name} must be a sequence of numbers, got {values!r}")
    weights = tuple(_float64(w, f"{name} weight") for w in weights)
    if not weights:
        raise ValueError(f"{name} must contain at least one weight")
    if any(w < 0 for w in weights):
        raise ValueError(f"{name} weights must be >= 0")
    if not np.isfinite(weights).all():
        raise ValueError(f"{name} weights must be finite, got {weights!r}")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError(f"{name} weights must sum to 1, got {sum(weights)!r}")
    return weights


# The hyperparameter block that ends a model file: these fields in this
# order, then init_scheme, alpha and beta.
_HYPER_F64 = ("lambda1", "lambda2", "lambda3", "step_size", "tolerance")
_HYPER_I64 = ("negative_samples", "outer_iters", "inner_steps_c", "inner_steps_w", "inner_max_iter", "seed", "dim")


@dataclass(frozen=True)
class HyperParams:
    """Training knobs. Relational context i is weighted by ``alpha[i]`` and
    descriptive context j by ``lambda1 * beta[j]``, so ``lambda1`` scales
    every descriptive misfit; ``lambda2`` weighs the l1 penalty and
    ``lambda3`` the l2 penalty."""

    lambda1: float = 1.0
    lambda2: float = 0.01
    lambda3: float = 0.01
    negative_samples: int = 10
    step_size: float = 1e-5
    outer_iters: int = 50
    inner_steps_c: int = 5
    inner_steps_w: int = 5
    inner_max_iter: int = 50
    tolerance: float = 1e-4
    seed: int = 0
    init_scheme: str = DEFAULT_INIT_SCHEME
    dim: int = 100
    alpha: tuple[float, ...] = (1.0,)
    beta: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        for name in _HYPER_I64:  # a model file stores each as an int64
            try:
                if operator.index(getattr(self, name)) > 2**63 - 1:
                    raise ValueError(f"{name} must be <= {2**63 - 1}")
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        for name in _HYPER_F64:  # and each of these as a float64
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(_float64(value, name)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("lambda1", "lambda2", "lambda3", "negative_samples", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("step_size", "tolerance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("outer_iters", "inner_steps_c", "inner_steps_w", "inner_max_iter", "dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not isinstance(self.init_scheme, str):
            raise ValueError(f"init_scheme must be a string, got {self.init_scheme!r}")
        parse_init_scheme(self.init_scheme)
        object.__setattr__(self, "alpha", _simplex_weights(self.alpha, "alpha"))
        # A negative descriptive weight would make the smooth subproblem
        # unbounded below, so nonnegativity is enforced here as well.
        object.__setattr__(self, "beta", _simplex_weights(self.beta, "beta"))


_INIT_SCHEME_RE = re.compile(r"uniform_random\(\s*([^)\s]+)\s*\)")


def parse_init_scheme(scheme: str) -> tuple[str, float]:
    """Split an init scheme string into its kind and scale.

    Accepted forms: ``ones`` and ``uniform_random(<scale>)``.
    """
    s = scheme.strip()
    if s == "ones":
        return "ones", 0.0
    m = _INIT_SCHEME_RE.fullmatch(s)
    if m:
        try:
            scale = float(m.group(1))
        except ValueError:
            raise ValueError(f"bad init scale in {scheme!r}") from None
        if not np.isfinite(scale) or scale < 0:
            raise ValueError(f"init scale must be a finite nonnegative number, got {scheme!r}")
        if not np.isfinite(2 * scale):
            raise ValueError(f"init scale too large in {scheme!r}: the width 2*scale of [-scale, scale] overflows")
        return "uniform_random", scale
    raise ValueError(f"unknown init scheme {scheme!r} (expected 'ones' or 'uniform_random(scale)')")


def _draw_factors(scheme, seed, dim, n_labels, context_counts, attribute_counts):
    """Initial ``W``, ``Cs`` and ``Us`` for the given column counts, drawn
    from one seeded generator in the order W, each C, each U."""
    kind, scale = parse_init_scheme(scheme)
    rng = np.random.default_rng(seed)

    def draw(cols):
        if kind == "ones":
            return np.ones((dim, cols))
        return rng.uniform(-scale, scale, size=(dim, cols))

    W = draw(n_labels)
    return W, [draw(n) for n in context_counts], [draw(n) for n in attribute_counts]


# ---------------------------------------------------------------------------
# Text embedding persistence


def save_embeddings(model: EmbeddingModel, labels, path) -> None:
    """Write label vectors as text: a "count dim" header, then one
    "name v1 ... vn" line per label at full round-trip precision."""
    labels = tuple(labels)
    if len(labels) != model.W.shape[1]:
        raise ValueError(f"{len(labels)} names for {model.W.shape[1]} label vectors")
    if not _all_pass(labels, _WHITESPACE):
        for name in labels:
            _check_name(name, "label")
            if any(ch.isspace() for ch in name):
                raise ValueError(f"label name {name!r} contains whitespace, not storable in text format")
    lines = [f"{len(labels)} {model.dim}"]
    # Python floats, one list per label: format_float of each is the same
    # text as of the np.float64 it came from.
    for name, vec in zip(labels, model.W.T.tolist()):
        lines.append(f"{name} {' '.join(map(format_float, vec))}")
    with _atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_embeddings(path) -> dict[str, np.ndarray]:
    """Read the text embedding format back into an ordered name->vector map."""
    lines = read_text(path).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty embedding file", path=path, line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"header must be 'count dim', got {lines[0]!r}", path=path, line=1)
    try:
        count, dim = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"non-integer header {lines[0]!r}", path=path, line=1) from None
    if count < 0 or dim < 0:
        raise ParseError("header counts must be >= 0", path=path, line=1)
    if len(lines) - 1 != count:
        lineno = min(len(lines), count) + 1
        raise ParseError(
            f"header promises {count} rows, file has {len(lines) - 1}", path=path, line=lineno
        )
    out: dict[str, np.ndarray] = {}
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != dim + 1:
            raise ParseError(f"expected 1 name and {dim} values, got {len(parts)} fields", path=path, line=i)
        name = parts[0]
        if name in out:
            raise ParseError(f"duplicate label {name!r}", path=path, line=i)
        try:
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError:
            raise ParseError(f"non-numeric value in row for {name!r}", path=path, line=i) from None
        out[name] = vec
    return out


# ---------------------------------------------------------------------------
# Binary model persistence


class _Writer(list):
    """The model file's bytes, one chunk per write."""

    def pack(self, fmt: str, *values):
        self.append(struct.pack(fmt, *values))

    def matrix(self, arr: np.ndarray):
        self.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    def string(self, s: str):
        b = s.encode("utf-8")
        self.pack("<Q", len(b))
        self.append(b)

    def names(self, names):
        self.pack("<Q", len(names))
        for n in names:
            self.string(n)


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def _advance(self, n: int) -> int:
        """Where the next ``n`` bytes start; the reader moves past them. A
        size read from the file comes here before it sizes a struct format."""
        if self.pos + n > len(self.data):
            raise ParseError("truncated model file", path=self.path)
        start, self.pos = self.pos, self.pos + n
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self._advance(struct.calcsize(fmt)))

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        """A read-only view into the file's bytes, with no slice copied."""
        start = self._advance(rows * cols * 8)
        return np.frombuffer(self.data, "<f8", rows * cols, start).reshape(rows, cols)

    def string(self) -> str:
        (n,) = self.unpack("<Q")
        try:
            return self.data[self._advance(n) : self.pos].decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError("invalid UTF-8 in name table", path=self.path) from None

    def names(self) -> tuple[str, ...]:
        return tuple(self.string() for _ in range(*self.unpack("<Q")))

    def floats(self) -> tuple[float, ...]:
        (n,) = self.unpack("<Q")
        start = self._advance(8 * n)
        return struct.unpack_from(f"<{n}d", self.data, start)

    def expect_end(self):
        if self.pos != len(self.data):
            raise ParseError("trailing bytes after model payload", path=self.path)


_HEADER = "<4Q"  # dim, labels, then contexts and attributes (PHCLE1) or relational and descriptive contexts (PHCLG1)
_HYPER_LAYOUT = f"<{len(_HYPER_F64)}d{len(_HYPER_I64)}q"


def _write_hyper(w: _Writer, hyper: HyperParams):
    w.pack(_HYPER_LAYOUT, *(getattr(hyper, name) for name in _HYPER_F64 + _HYPER_I64))
    w.string(hyper.init_scheme)
    for weights in (hyper.alpha, hyper.beta):
        w.pack(f"<Q{len(weights)}d", len(weights), *weights)


def _read_hyper(r: _Reader) -> HyperParams:
    fields = dict(zip(_HYPER_F64 + _HYPER_I64, r.unpack(_HYPER_LAYOUT)))
    # keyword arguments are evaluated left to right, so in file order
    return HyperParams(**fields, init_scheme=r.string(), alpha=r.floats(), beta=r.floats())


def save_model(path, model: EmbeddingModel, vocab: VocabularyMaps, hyper: HyperParams) -> None:
    """Serialize a trained model, its vocabulary, and its hyperparameters.

    A model with exactly one relational and one descriptive context is
    written as ``PHCLE1``: the magic, little-endian uint64 dimensions, the
    row-major float64 ``W``, ``C`` and ``U`` payloads, then the label,
    context and attribute name tables. Any other model is written as
    ``PHCLG1``: ``W`` and the label names, then every context factor and
    every attribute factor, each with its width and names. Both end with
    the hyperparameter block. The round-trip is bitwise lossless.
    """
    model.check_shapes(vocab)
    classic = len(model.Cs) == len(model.Us) == 1
    w = _Writer([_MODEL_MAGIC if classic else _MODEL_MAGIC_GENERAL])
    counts = (len(vocab.contexts), len(vocab.attributes)) if classic else (len(model.Cs), len(model.Us))
    w.pack(_HEADER, model.dim, len(vocab.labels), *counts)
    w.matrix(model.W)
    if classic:
        w.matrix(model.C)
        w.matrix(model.U)
        w.names(vocab.labels)
        w.names(vocab.contexts)
        w.names(vocab.attributes)
    else:
        w.names(vocab.labels)
        for arr, names in zip((*model.Cs, *model.Us), (*vocab.context_lists, *vocab.attribute_lists)):
            w.pack("<Q", arr.shape[1])
            w.matrix(arr)
            w.names(names)
    _write_hyper(w, hyper)
    with _atomic_open(path, "wb") as fh:
        fh.write(b"".join(w))


def load_model(path):
    """Read a model file of either format back. Returns ``(model, vocab,
    hyper)``.

    Raises UnsupportedVersionError for a known family with an unknown
    version digit, ParseError for anything else malformed. A truncated
    file never yields a partial model.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data, path)
    (magic,) = r.unpack("6s")
    known = {m[:5]: m for m in (_MODEL_MAGIC, _MODEL_MAGIC_GENERAL)}.get(magic[:5])
    if known is None:
        raise ParseError(f"not a model file (magic {magic!r})", path=path)
    if magic != known:
        raise UnsupportedVersionError(f"{path}: model format version {magic!r} not supported (expected {known!r})")
    dim, n_labels, n_rel, n_desc = r.unpack(_HEADER)
    W = r.matrix(dim, n_labels)
    if magic == _MODEL_MAGIC:
        Cs, Us = [r.matrix(dim, n_rel)], [r.matrix(dim, n_desc)]
        labels = r.names()
        contexts = r.names()
        attributes = r.names()
        if (len(labels), len(contexts), len(attributes)) != (n_labels, n_rel, n_desc):
            raise ParseError("name table sizes disagree with header", path=path)
        context_lists, attribute_lists = [contexts], [attributes]
    else:
        labels = r.names()
        if len(labels) != n_labels:
            raise ParseError("label table size disagrees with header", path=path)
        Cs, Us, context_lists, attribute_lists = [], [], [], []
        blocks = ((n_rel, Cs, context_lists, "context"), (n_desc, Us, attribute_lists, "attribute"))
        for count, mats, lists, kind in blocks:
            for _ in range(count):
                (cols,) = r.unpack("<Q")
                mats.append(r.matrix(dim, cols))
                lists.append(r.names())
                if len(lists[-1]) != cols:
                    raise ParseError(f"{kind} table size disagrees with factor width", path=path)
    try:
        hyper = _read_hyper(r)
        r.expect_end()
        model = EmbeddingModel(W=W, Cs=tuple(Cs), Us=tuple(Us), dim=dim)
        vocab = VocabularyMaps(labels, context_lists, attribute_lists)
    except ParseError:
        raise
    except ValueError as exc:
        # A well-framed file can still hold values the model types reject.
        raise ParseError(str(exc), path=path) from None
    return model, vocab, hyper
