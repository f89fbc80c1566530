"""The block tokenizer behind ``read_cooccurrence_tsv`` and
``load_relation_counts`` against the line-by-line readers it replaced,
kept here verbatim as references but for where an undecodable byte is
reported: every file gives the same vocabulary and matrix bits, or the
same error text."""

import itertools
import math
import os
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phcle import cli, ingest
from phcle.cli import read_cooccurrence_tsv
from phcle.datamodel import VocabularyMaps
from phcle.errors import ParseError
from phcle.ingest import load_relation_counts


# ---------------------------------------------------------------------------
# References: the readers as they were before the block tokenizer.


def _check_relation(label: str, context: str, weight: float) -> None:
    if not label or not context:
        raise ValueError("relation record needs non-empty label and context names")
    if not math.isfinite(weight) or weight <= 0:
        raise ValueError(
            f"relation weight must be a positive finite number, got {weight!r} "
            f"for {label!r} -> {context!r}"
        )


def _accumulate(entries, path) -> tuple[VocabularyMaps, np.ndarray]:
    """Sum ``(context, label, value)`` entries from the file ``path`` into
    a contexts x labels matrix over the sorted names, in one pass: names
    get ids in order of first appearance, the ids then map to positions in
    the sorted vocabulary, and the values are added in the order given, so
    each cell sums exactly as a line-by-line loop would.

    A :class:`ParseError` from ``entries`` keeps its line; an undecodable
    byte becomes :func:`_undecodable`'s error; any other ``ValueError`` (a
    bad name) and a sum that overflows become one naming ``path``.
    """
    context_ids = defaultdict(itertools.count().__next__)
    label_ids = defaultdict(itertools.count().__next__)
    rows, cols, values = [], [], []

    def sorted_names(ids):
        names = tuple(sorted(ids))
        position = np.empty(len(names), dtype=np.intp)
        position[[ids[name] for name in names]] = np.arange(len(names))
        return names, position

    try:
        for context, label, value in entries:
            rows.append(context_ids[context])
            cols.append(label_ids[label])
            values.append(value)
        contexts, context_position = sorted_names(context_ids)
        labels, label_position = sorted_names(label_ids)
        vocab = VocabularyMaps(labels=labels, context_lists=(contexts,))
    except ParseError:
        raise
    except UnicodeDecodeError:
        raise _undecodable(path) from None
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from None
    D = np.zeros((len(contexts), len(labels)))
    with np.errstate(over="ignore"):  # an overflowing sum is reported below
        np.add.at(
            D,
            (context_position[np.array(rows, dtype=np.intp)], label_position[np.array(cols, dtype=np.intp)]),
            np.array(values, dtype=np.float64),
        )
    if not np.isfinite(D).all():
        raise ParseError("cooccurrence matrix contains non-finite entries", path=path)
    return vocab, D


def _undecodable(path) -> ParseError:
    """The error for a file holding a byte that is not UTF-8: the text of
    the error that decoding the whole file gives, at the first line that
    holds an escaped byte when the file is read as text with each such
    byte escaped."""
    with open(path, "rb") as fh:
        data = fh.read()
    with pytest.raises(UnicodeDecodeError) as err:
        data.decode("utf-8")
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        line = next(n for n, text in enumerate(fh, start=1) if any("\udc80" <= c <= "\udcff" for c in text))
    return ParseError(str(err.value), path=path, line=line)


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


def reference_cooc(path):
    return _accumulate(_cooccurrence_lines(path), path)


def reference_relations(path):
    return _accumulate(_relation_lines(path), path)


READERS = [(read_cooccurrence_tsv, reference_cooc), (load_relation_counts, reference_relations)]


def outcome(read, path):
    """What reading ``path`` gives: the vocabulary and matrix bits, or the
    error's type and text."""
    try:
        vocab, D = read(path)
    except Exception as exc:  # compared below, type included
        return type(exc), str(exc)
    return vocab, D.shape, D.tobytes()


def assert_same_as_reference(path, read, reference):
    got = outcome(read, path)
    assert got == outcome(reference, path)
    if isinstance(got[0], type):
        assert got[0] is ParseError
    return got


# ---------------------------------------------------------------------------
# Oracle: files built from the pieces each path treats differently.

NAMES = ["a", "b", "ü", "猫", "L00001"]
# Values both readers take as a count, and as a weight but for 0 and
# -0.0; 1e308 twice, so that repeated pairs overflow more often.
VALUES = ["1", "2.5", "1_000", " 1", "1e-320", "1e308", "1e308", "0.30000000000000004", "0", "-0.0"]
BAD_VALUES = ["infinity", "nan", "-1", "x", ""]
DEFECTS = ["value", "empty name", "blank", "two fields", "four fields", "crlf", "lone cr", "0xff"]


@st.composite
def count_files(draw):
    """A file of 3-field lines, up to three of them with a defect, and
    maybe no final newline."""
    lines = [
        [draw(st.sampled_from(NAMES)), draw(st.sampled_from(NAMES)), draw(st.sampled_from(VALUES)), "\n"]
        for _ in range(draw(st.integers(0, 40)))
    ]
    # One defect alone most often: a second may send the file to the line
    # reader before the tokenizer's handling of the first shows.
    defective = draw(st.sampled_from([0, 1, 1, 1, 2, 3]))
    for line in draw(st.permutations(lines))[:defective]:
        defect, field = draw(st.sampled_from(DEFECTS)), draw(st.integers(0, 1))
        if defect == "value":
            line[2] = draw(st.sampled_from(BAD_VALUES))
        elif defect == "empty name":
            line[field] = ""
        elif defect == "blank":
            line[:3] = []
        elif defect == "two fields":
            del line[2:-1]
        elif defect == "four fields":
            line.insert(-1, draw(st.sampled_from(VALUES + NAMES)))
        elif defect == "crlf":
            line[-1] = "\r\n"
        elif defect == "lone cr":
            line[field] += "\r"
        else:
            line[field] += "\udcff"  # encoded below as the byte 0xff
    data = "".join("\t".join(line[:-1]) + line[-1] for line in lines).encode("utf-8", "surrogateescape")
    if data.endswith(b"\n") and draw(st.booleans()):
        data = data[:-1]
    return data


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=count_files(), block=st.integers(1, 64), which=st.sampled_from(range(len(READERS))))
def test_readers_match_line_references(tmp_path_factory, data, block, which):
    path = tmp_path_factory.mktemp("counts") / "counts.tsv"
    path.write_bytes(data)
    read, reference = READERS[which]
    with mock.patch.object(ingest, "_BLOCK_BYTES", block):  # block ends fall mid-file
        assert_same_as_reference(path, read, reference)


# ---------------------------------------------------------------------------
# Which path a file takes.


def _raise(fh, path):
    raise AssertionError("the line reader ran on a regular file")


@pytest.fixture
def line_readers_forbidden(monkeypatch):
    monkeypatch.setattr(cli, "_cooccurrence_lines", _raise)
    monkeypatch.setattr(ingest, "_relation_lines", _raise)


CLEAN = {
    "larger than a block": "".join(f"c{i % 7}\tl{i % 11}\t{i % 5 + 0.5}\n" for i in range(200)),
    "non-ASCII names": "ferme\tchat\t1\nферма\tкот\t2\n農場\t猫\t3\nferme\tкот\t1e-320\n",
    "no final newline": "farm\tcat\t1\nhome\tdog\t2",
}


@pytest.mark.parametrize("text", CLEAN.values(), ids=CLEAN.keys())
@pytest.mark.parametrize("which", range(len(READERS)), ids=["cooc", "relations"])
def test_clean_files_never_reach_the_line_readers(tmp_path, monkeypatch, line_readers_forbidden, text, which):
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64)
    path = tmp_path / "counts.tsv"
    path.write_text(text, encoding="utf-8")
    read, reference = READERS[which]
    assert isinstance(assert_same_as_reference(path, read, reference)[0], VocabularyMaps)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("which", range(len(READERS)), ids=["cooc", "relations"])
def test_a_pipe_is_read_once(tmp_path, which, crlf):
    text = CLEAN["larger than a block"].replace("\n", "\r\n" if crlf else "\n").encode()
    path = tmp_path / "counts.tsv"
    path.write_bytes(text)
    read, _ = READERS[which]
    r, w = os.pipe()
    try:
        os.write(w, text)
        os.close(w)
        got = outcome(read, f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert got == outcome(read, path)


# (reader, file bytes, what the line reader makes of it)
IRREGULAR = {
    "blank line": ("cooc", b"farm\tcat\t1\n\nhome\tdog\t2\n", None),
    "crlf": ("cooc", b"farm\tcat\t1\r\nhome\tdog\t2\r\n", None),
    "crlf relations": ("relations", b"cat\tfarm\t1\r\ndog\thome\t2\r\n", None),
    "2-field relations": ("relations", b"cat\tfarm\ndog\thome\t2\n", None),
    "4 fields": ("cooc", b"farm\tcat\t1\nhome\tdog\t2\t3\n", ":2: expected 3 tab-separated fields, got 4"),
    "empty name": ("relations", b"cat\tfarm\t1\n\thome\t2\n", ":2: relation record needs non-empty label and context names"),
    "empty cooc name": ("cooc", b"farm\tcat\t1\nhome\t\t2\n", ": empty label name"),
    "bad value": ("cooc", b"farm\tcat\t1\nhome\tdog\tmany\n", ":2: non-numeric count 'many'"),
    "negative count": ("cooc", b"farm\tcat\t1\nhome\tdog\t-1\n", ":2: count must be finite and >= 0, got -1"),
    "infinite count": ("cooc", b"farm\tcat\t1\nhome\tdog\tinf\n", ":2: count must be finite and >= 0, got inf"),
    "zero weight": (
        "relations", b"cat\tfarm\t1\ndog\thome\t0\n",
        ":2: relation weight must be a positive finite number, got 0.0 for 'dog' -> 'home'",
    ),
    "0xff": ("cooc", b"farm\tcat\t1\nh\xffme\tdog\t1\n", ":2: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
}


@pytest.mark.parametrize("block", [1, ingest._BLOCK_BYTES], ids=["line per block", "one block"])
@pytest.mark.parametrize("case", IRREGULAR.values(), ids=IRREGULAR.keys())
def test_irregular_files_take_the_line_path(tmp_path, monkeypatch, case, block):
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
    kind, data, error = case
    path = tmp_path / "counts.tsv"
    path.write_bytes(data)
    module, name = (cli, "_cooccurrence_lines") if kind == "cooc" else (ingest, "_relation_lines")
    calls = []
    line_reader = getattr(module, name)

    def spy(fh, path):
        calls.append(path)
        return line_reader(fh, path)

    monkeypatch.setattr(module, name, spy)
    read, reference = READERS[kind == "relations"]
    if error is None:
        vocab, D = read(path)
        assert D.sum() > 0
    else:
        with pytest.raises(ParseError) as err:
            read(path)
        assert str(err.value) == f"{path}{error}"
    assert calls == [path]
    assert_same_as_reference(path, read, reference)


def test_overflowing_sum_is_reported_without_a_reread(tmp_path, line_readers_forbidden):
    path = tmp_path / "counts.tsv"
    path.write_text("farm\tcat\t1e308\nhome\tdog\t1\nfarm\tcat\t1e308\n")
    with pytest.raises(ParseError) as err:
        read_cooccurrence_tsv(path)
    assert str(err.value) == f"{path}: cooccurrence matrix contains non-finite entries"


WEIGHTLESS = "".join(f"l{i % 11}\tc{i % 7}\n" for i in range(200)) + "l0\tc\u00fc"  # no final newline


@pytest.mark.parametrize("block", [1, 64, ingest._BLOCK_BYTES], ids=["line per block", "small blocks", "one block"])
def test_weightless_relations_take_the_block_path(tmp_path, monkeypatch, block):
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
    relations = tmp_path / "rel.tsv"
    relations.write_text(WEIGHTLESS, encoding="utf-8")
    outputs = []
    for reader in ("blocks", "lines"):
        with monkeypatch.context() as patch:
            if reader == "blocks":
                patch.setattr(ingest, "_relation_lines", _raise)
            else:
                patch.setattr(ingest, "_count_blocks", mock.Mock(side_effect=ingest._Irregular))
            out = tmp_path / f"{reader}.tsv"
            assert cli.main(["build-cooc", "--relations", str(relations), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert_same_as_reference(relations, load_relation_counts, reference_relations)


def test_weightless_cooccurrence_lines_take_the_line_path(tmp_path, monkeypatch):
    path = tmp_path / "cooc.tsv"
    path.write_text(WEIGHTLESS, encoding="utf-8")
    calls = []
    line_reader = cli._cooccurrence_lines
    monkeypatch.setattr(cli, "_cooccurrence_lines", lambda fh, path: calls.append(path) or line_reader(fh, path))
    with pytest.raises(ParseError) as err:
        read_cooccurrence_tsv(path)
    assert str(err.value) == f"{path}:1: expected 3 tab-separated fields, got 2"
    assert calls == [path]


# ---------------------------------------------------------------------------
# One handle per file: opened once, a pipe read into memory once.


def _read_through_a_pipe(read, data):
    """What ``read`` makes of ``data`` (under 64 KB, so one write cannot
    block) given as a pipe."""
    r, w = os.pipe()
    try:
        os.write(w, data)
        os.close(w)
        return outcome(read, f"/dev/fd/{r}")
    finally:
        os.close(r)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("which", range(len(READERS)), ids=["cooc", "relations"])
def test_a_clean_pipe_never_reaches_the_line_readers(tmp_path, monkeypatch, line_readers_forbidden, which):
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64)
    data = CLEAN["larger than a block"].encode()
    path = tmp_path / "counts.tsv"
    path.write_bytes(data)
    read, reference = READERS[which]
    got = _read_through_a_pipe(read, data)
    assert isinstance(got[0], VocabularyMaps)
    assert got == outcome(reference, path)


@pytest.mark.parametrize("which", range(len(READERS)), ids=["cooc", "relations"])
def test_an_irregular_file_is_opened_once(tmp_path, which):
    path = tmp_path / "counts.tsv"
    path.write_bytes(CLEAN["larger than a block"].replace("\n", "\r\n").encode())
    read, reference = READERS[which]
    expected = outcome(reference, path)
    with mock.patch("builtins.open", wraps=open) as opened:
        got = outcome(read, path)
    assert [call.args[0] for call in opened.call_args_list] == [path]
    assert got == expected and isinstance(got[0], VocabularyMaps)


def _minimal_lines(count, end):
    """``count`` relation lines of three characters each, ended by ``end``."""
    return "".join(f"{'abc'[i % 3]}\t{'xy'[i % 2]}{end}" for i in range(count))


# (text, whether the block reader takes it): lines of 4 bytes, the fewest
# an entry takes, so the entries fill the capacity of size // 4 + 1 but
# one, and exactly when the final line has no line end.
MINIMAL = {
    "lf": (_minimal_lines(9000, "\n"), True),
    "lf, no final newline": (_minimal_lines(9000, "\n")[:-1], True),
    "lone cr": (_minimal_lines(9000, "\r"), False),
    "lone cr, no final line end": (_minimal_lines(9000, "\r")[:-1], False),
    "crlf": (_minimal_lines(9000, "\r\n"), False),
    "crlf, no final line end": (_minimal_lines(9000, "\r\n")[:-2], False),
}


@pytest.mark.parametrize("text,blocks", MINIMAL.values(), ids=MINIMAL.keys())
def test_minimal_lines_fill_the_capacity_and_sum_like_the_reference(tmp_path, monkeypatch, text, blocks):
    path = tmp_path / "rel.tsv"
    path.write_text(text, encoding="utf-8", newline="")
    calls = []
    line_reader = ingest._relation_lines
    monkeypatch.setattr(ingest, "_relation_lines", lambda fh, path: calls.append(path) or line_reader(fh, path))
    vocab, _, bits = assert_same_as_reference(path, load_relation_counts, reference_relations)
    assert calls == ([] if blocks else [path])
    assert vocab.labels == ("a", "b", "c") and np.frombuffer(bits).sum() == 9000


def test_a_file_that_grows_while_read_names_the_file(tmp_path, monkeypatch):
    path = tmp_path / "cooc.tsv"
    path.write_text("farm\tcat\t1\nhome\tdog\t2\n")
    blocks = ingest._count_blocks

    def grown(fh, *args):
        with open(path, "a") as out:  # after the size was measured
            out.write("farm\tcat\t1\n" * 100)
        return blocks(fh, *args)

    monkeypatch.setattr(ingest, "_count_blocks", grown)
    with pytest.raises(ParseError) as err:
        read_cooccurrence_tsv(path)
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("which", range(len(READERS)), ids=["cooc", "relations"])
def test_undecodable_text_past_the_first_decode_piece(tmp_path, which):
    # CRLF sends the file to the line reader, which decodes it 8 KB at a
    # time; the error gives the bad byte's position in the file, and its
    # line, not its position in the piece (4153).
    lines = CLEAN["larger than a block"].replace("\n", "\r\n").encode() * 8
    data = lines[:12345] + b"\xff" + lines[12345:]
    path = tmp_path / "counts.tsv"
    path.write_bytes(data)
    read, reference = READERS[which]
    got = assert_same_as_reference(path, read, reference)
    assert got == (ParseError, f"{path}:1114: 'utf-8' codec can't decode byte 0xff in position 12345: invalid start byte")
    piped = _read_through_a_pipe(read, data)
    assert piped[0] is ParseError and piped[1].partition(":")[2] == got[1].partition(":")[2]
