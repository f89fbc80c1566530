"""Mutated config, hierarchy and attribute files: each parser returns a
well-formed value or raises a ``ValueError`` (``ParseError`` is one) that
names the file, which the CLI turns into exit 2. Any other exception, or a
warning (every warning is an error under the test settings), is a leak."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phcle import cli, ingest
from phcle.datamodel import AttributeContext, HyperParams, VocabularyMaps

CONFIG = b"""\
# complete setup
lambda1 = 1.0
lambda2 = 0.01
lambda3 = 0.01
k = 3
dim = 3
outer_iters = 2
inner_fista = 4
step = 0.001
epsilon = 1e-4
seed = 0
init = uniform_random(0.1)  # trailing comment
inner_steps_c = 2
inner_steps_w = 2
alpha = 0.5,0.5
beta = 1
"""

HIERARCHY = b"root\tanimal\nanimal\tcat\nanimal\tdog\n\nroot\tplant\n"

ATTRIBUTES = b"label\tfurry\tbig\ncat\t1\tNA\ndog\t0.5\t2\nhorse\tNA\t-3e2\n"

VOCAB = VocabularyMaps(
    labels=("cat", "dog", "horse"),
    context_lists=(("x",),),
    attribute_lists=(("furry", "big"),),
)

# Pieces that reach the parsers' branches: separators, line ends, comment
# and key markers, the NA marker, number syntax, non-finite spellings,
# bytes that are not UTF-8 and names from the valid files.
TOKENS = [
    b"\t", b"\n", b"\r", b"\r\n", b" ", b"=", b"#", b"NA", b"-", b"+", b".", b"e", b"0", b"7",
    b"1e999", b"inf", b"nan", b"-0", b"1_0", b"\xff", b"\xc3", "é".encode(), b"\x00",
    b"label", b"cat", b"dim", b"seed", b"uniform_random(", b")", b",", b"alpha",
]
pieces = st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=3)


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    """``valid`` with one to four byte or line edits."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["insert", "delete", "replace", "copy_line", "truncate"]))
        at = draw(st.integers(0, len(data)))
        if kind == "insert":
            data[at:at] = draw(pieces)
        elif kind == "delete":
            del data[at : at + draw(st.integers(1, 8))]
        elif kind == "replace":
            data[at : at + 1] = draw(pieces)
        elif kind == "copy_line":
            lines = bytes(data).split(b"\n")
            line = lines[draw(st.integers(0, len(lines) - 1))]
            lines.insert(draw(st.integers(0, len(lines))), line)
            data = bytearray(b"\n".join(lines))
        else:
            del data[at:]
    return bytes(data)


def check_config(value):
    assert isinstance(value, HyperParams)


def check_hierarchy(edges):
    for parent, child in edges:
        assert parent and child
        assert not any(c in name for name in (parent, child) for c in "\t\n")


def check_attributes(context):
    assert isinstance(context, AttributeContext)
    assert context.assoc.shape == context.mask.shape == (len(VOCAB.labels), len(VOCAB.attributes))
    assert np.isfinite(context.assoc).all()
    assert set(np.unique(context.mask).tolist()) <= {0.0, 1.0}
    assert not context.assoc[context.mask == 0].any()


PARSERS = {
    "config": (CONFIG, cli.load_config, check_config),
    "hierarchy": (HIERARCHY, ingest.load_hierarchy_file, check_hierarchy),
    "attributes": (ATTRIBUTES, lambda path: ingest.load_attribute_table(path, VOCAB), check_attributes),
}


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_valid_file_parses(name, tmp_path):
    valid, parse, check = PARSERS[name]
    path = tmp_path / name
    path.write_bytes(valid)
    check(parse(path))


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_mutated_file_parses_or_raises_value_error(name, tmp_path_factory, data):
    valid, parse, check = PARSERS[name]
    text = data.draw(mutated(valid))
    path = tmp_path_factory.getbasetemp() / f"fuzz-{name}"
    path.write_bytes(text)
    try:
        value = parse(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    check(value)


# ---------------------------------------------------------------------------
# Attribute tables: the block reader against the line reader it falls back
# to. Every table gives the same bits (values, mask, sign of zero) or the
# same error text and line.


def table_outcome(path, vocab=VOCAB):
    try:
        context = ingest.load_attribute_table(path, vocab)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return context.assoc.shape, context.assoc.tobytes(), context.mask.tobytes()


def line_reader_outcome(path, vocab=VOCAB):
    with mock.patch.object(ingest, "_table_blocks", side_effect=ingest._Irregular):
        return table_outcome(path, vocab)


HEADER, ROWS = ATTRIBUTES.split(b"\n", 1)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data(), block=st.integers(1, 64))
def test_mutated_tables_read_as_the_line_reader_reads_them(tmp_path_factory, data, block):
    # Half the tables keep their header, so that more reach the rows.
    if data.draw(st.booleans()):
        text = HEADER + b"\n" + data.draw(mutated(ROWS))
    else:
        text = data.draw(mutated(ATTRIBUTES))
    path = tmp_path_factory.getbasetemp() / "fuzz-table"
    path.write_bytes(text)
    with mock.patch.object(ingest, "_TABLE_BLOCK_BYTES", block):  # block ends fall mid-file
        assert table_outcome(path) == line_reader_outcome(path)


# cat's "furry" cell in ATTRIBUTES: what the line reader makes of it, a
# value or the end of its error text.
CELLS = {
    "1_0": 10.0,
    "١": 1.0,
    "-0": -0.0,
    "\u00a01\u2028": 1.0,
    "NA ": ":2: non-numeric cell 'NA '",
    " NA": ":2: non-numeric cell ' NA'",
    "1\x00": ":2: non-numeric cell '1\\x00'",
    "1\x1c": ":2: non-numeric cell '1\\x1c'",
    " ": ":2: non-numeric cell ' '",
    "nan": ":2: non-finite cell 'nan'",
    "inf": ":2: non-finite cell 'inf'",
    "1e999": ":2: non-finite cell '1e999'",
}


@pytest.mark.parametrize("cell, expected", CELLS.items(), ids=map(ascii, CELLS))
def test_cells_read_as_the_line_reader_reads_them(tmp_path, cell, expected):
    path = tmp_path / "attrs.tsv"
    path.write_bytes(ATTRIBUTES.replace(b"cat\t1", b"cat\t" + cell.encode()))
    got = table_outcome(path)
    assert got == line_reader_outcome(path)
    if isinstance(expected, str):
        assert got[:2] == (ingest.ParseError, f"{path}{expected}")
    else:
        assert np.frombuffer(got[1])[0].tobytes() == np.float64(expected).tobytes()  # sign of zero too


# Whole tables: None where the line reader accepts the table, else the end
# of its error text.
TABLES = {
    "crlf in the header only": (HEADER + b"\r\n" + ROWS, None),
    "lone cr ending the header": (HEADER + b"\r" + ROWS, None),
    "crlf": (ATTRIBUTES.replace(b"\n", b"\r\n"), None),
    "blank line": (ATTRIBUTES.replace(b"\ndog", b"\n\ndog"), None),
    "no final newline": (ATTRIBUTES[:-1], None),
    "header only": (HEADER + b"\n", None),
    "header only, no newline": (HEADER, None),
    "ragged row": (ATTRIBUTES.replace(b"\t2\n", b"\n"), ":3: expected 3 fields, got 2"),
    "empty cell": (ATTRIBUTES.replace(b"\t2\n", b"\t\n"), ":3: non-numeric cell ''"),
    "duplicate label": (ATTRIBUTES + b"cat\tNA\tNA\n", ":5: duplicate row for label 'cat'"),
    "unknown label": (ATTRIBUTES.replace(b"dog", b"cow"), ":3: label 'cow' unknown"),
    "NA as a label": (ATTRIBUTES.replace(b"dog", b"NA"), ":3: label 'NA' unknown"),
    "0xff": (ATTRIBUTES.replace(b"dog", b"d\xffg"), ": 'utf-8' codec can't decode byte 0xff in position 26: invalid start byte"),
}


@pytest.mark.parametrize("block", [1, ingest._TABLE_BLOCK_BYTES], ids=["line per block", "one block"])
@pytest.mark.parametrize("text, expected", TABLES.values(), ids=TABLES.keys())
def test_tables_read_as_the_line_reader_reads_them(tmp_path, monkeypatch, text, expected, block):
    monkeypatch.setattr(ingest, "_TABLE_BLOCK_BYTES", block)
    path = tmp_path / "attrs.tsv"
    path.write_bytes(text)
    got = table_outcome(path)
    assert got == line_reader_outcome(path)
    if expected is None:
        check_attributes(ingest.load_attribute_table(path, VOCAB))
    else:
        assert got[:2] == (ingest.ParseError, f"{path}{expected}")


@pytest.mark.parametrize(
    "text, expected",
    [(b"label\ncat\nhorse", None), (b"label\ncat\nhorse\t1\n", ":3: expected 1 fields, got 2")],
    ids=["rows", "ragged row"],
)
def test_zero_attribute_tables_read_as_the_line_reader_reads_them(tmp_path, text, expected):
    vocab = VocabularyMaps(labels=VOCAB.labels, context_lists=VOCAB.context_lists)
    path = tmp_path / "attrs.tsv"
    path.write_bytes(text)
    got = table_outcome(path, vocab)
    assert got == line_reader_outcome(path, vocab)
    assert got[:2] == ((ingest.ParseError, f"{path}{expected}") if expected else ((3, 0), b""))
