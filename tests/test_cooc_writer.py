"""The co-occurrence writer against the line-join writer it replaced:
same bytes, memory bounded by its block, and atomic when it fails."""

import contextlib
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from phcle import cli
from phcle.datamodel import VocabularyMaps
from test_relational import traced_peak

# Names of mixed lengths, multi-byte UTF-8 included; a tab, newline or CR
# is not a legal name, and a lone surrogate cannot be encoded.
names = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r"), min_size=1, max_size=12
)
# Counts whose shortest text has 17 significant digits, the extremes of
# the doubles, subnormals, and the forms repr prints with an exponent.
SPECIAL = [
    0.1 + 0.2, 1 / 3, 2 / 3, 1e-300, 1e300, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e16, 1e22, 1.5e-7, 1e-5, 0.0001, 123456789012345680.0, 1.0, 2.0, 0.5,
]
counts = st.sampled_from(SPECIAL) | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def count_tables(draw):
    n_contexts, n_labels = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    vocab = VocabularyMaps(
        labels=draw(st.lists(names, min_size=n_labels, max_size=n_labels, unique=True)),
        context_lists=(draw(st.lists(names, min_size=n_contexts, max_size=n_contexts, unique=True)),),
    )
    # A few values per table, so that most of them repeat; index 0 is zero.
    pool = [0.0, *draw(st.lists(counts, min_size=1, max_size=5))]
    cells = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_contexts * n_labels,
                          max_size=n_contexts * n_labels))
    D = np.array(pool)[cells].reshape(n_contexts, n_labels)
    return vocab, D


def written(writer, path, vocab, D) -> bytes:
    writer(path, vocab, D)
    return path.read_bytes()


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(table=count_tables(), block=st.sampled_from([1, 2, 3, cli._WRITE_LINES]))
def test_writer_bytes_equal_the_line_join_writer(tmp_path_factory, table, block):
    vocab, D = table
    path = tmp_path_factory.getbasetemp() / "cooc.tsv"
    with mock.patch.object(cli, "_WRITE_LINES", block):  # block ends fall mid-file
        got = written(cli.write_cooccurrence_tsv, path, vocab, D)
    assert got == written(reference.write_cooccurrence_tsv, path, vocab, D)


def test_blocks_of_the_shipped_size_join_seamlessly(tmp_path):
    # Several blocks at the real block size, lines of varying width.
    rng = np.random.default_rng(3)
    n = 150
    vocab = VocabularyMaps(
        labels=tuple(f"l{i}" + "ß" * (i % 7) for i in range(n)),
        context_lists=(tuple(f"c{i}" + "x" * (i % 5) for i in range(n)),),
    )
    D = rng.choice([0.0, 1.0, 2.0, 0.1 + 0.2, 1e-300, 7.5], size=(n, n))
    assert np.count_nonzero(D) > 4 * cli._WRITE_LINES
    path = tmp_path / "c.tsv"
    assert written(cli.write_cooccurrence_tsv, path, vocab, D) == written(
        reference.write_cooccurrence_tsv, path, vocab, D
    )


def test_memory_is_bounded_by_the_block_not_the_file(tmp_path):
    # Long names make a block's gather the largest allocation: with the
    # whole file gathered at once, the larger peak is about 4x.
    n = 220
    vocab = VocabularyMaps(
        labels=tuple(f"label-{i:03d}-" + "λ" * 90 for i in range(n)),
        context_lists=(tuple(f"context-{i:03d}-" + "c" * 90 for i in range(n)),),
    )
    full = np.random.default_rng(4).choice([1.0, 2.0, 0.5], size=(n, n))
    quarter = np.where(np.arange(n * n).reshape(n, n) % 4 == 0, full, 0.0)
    assert np.count_nonzero(quarter) > 2 * cli._WRITE_LINES
    path = tmp_path / "c.tsv"
    small = traced_peak(cli.write_cooccurrence_tsv, path, vocab, quarter)
    large = traced_peak(cli.write_cooccurrence_tsv, path, vocab, full)
    assert large <= 1.25 * small


def test_write_failing_mid_file_leaves_path_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "c.tsv"
    path.write_bytes(b"old\tbytes\n")
    real_open = cli._atomic_open
    writes = []

    @contextlib.contextmanager
    def failing_open(target, mode="w"):
        with real_open(target, mode) as fh:
            def write(data):
                if writes:
                    raise OSError(28, "No space left on device")
                writes.append(fh.write(data))

            yield mock.Mock(write=write)

    monkeypatch.setattr(cli, "_atomic_open", failing_open)
    monkeypatch.setattr(cli, "_WRITE_LINES", 2)
    vocab = VocabularyMaps(labels=("a", "b"), context_lists=(("x", "y"),))
    with pytest.raises(OSError, match="No space left on device"):
        cli.write_cooccurrence_tsv(path, vocab, np.ones((2, 2)))
    assert writes == [len(b"x\ta\t1\nx\tb\t1\n")]
    assert path.read_bytes() == b"old\tbytes\n"
    assert os.listdir(tmp_path) == ["c.tsv"]
