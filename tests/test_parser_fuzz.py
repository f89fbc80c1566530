"""Mutated config, hierarchy and attribute files: each parser returns a
well-formed value or raises a ``ValueError`` (``ParseError`` is one) that
names the file, which the CLI turns into exit 2. Any other exception, or a
warning (every warning is an error under the test settings), is a leak."""

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

