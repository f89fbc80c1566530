"""The count readers' value-text cache and one-``bincount`` sum against
the block reader and sum they replaced, kept verbatim in
``reference.py`` (``_count_blocks``, ``_accumulate``): every file gives
the same vocabulary and matrix bits, or the same error text."""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from phcle import cli, ingest
from phcle.cli import read_cooccurrence_tsv
from phcle.datamodel import VocabularyMaps
from phcle.errors import ParseError
from phcle.ingest import hierarchy_to_relations, load_hierarchy_file, load_relation_counts

READERS = {"cooc": read_cooccurrence_tsv, "relations": load_relation_counts}


def outcome(read, path):
    """The vocabulary and matrix bits reading ``path`` gives, or the
    error's type and text."""
    try:
        vocab, D = read(path)
    except Exception as exc:  # compared below, type included
        return type(exc), str(exc)
    return vocab, D.shape, D.dtype, D.tobytes()


def before(read, path):
    """:func:`outcome` with the block reader and sum as they were."""
    with mock.patch.object(ingest, "_count_blocks", reference._count_blocks), \
            mock.patch.object(ingest, "_accumulate", reference._accumulate):
        return outcome(read, path)


def assert_same_as_before(read, path):
    got = outcome(read, path)
    assert got == before(read, path)
    return got


@pytest.fixture
def block_bytes(monkeypatch):
    """Set the block size of both the reader and its reference."""
    def set_size(size):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", size)
        monkeypatch.setattr(reference, "_BLOCK_BYTES", size)
    return set_size


# ---------------------------------------------------------------------------
# The benchmark's seed-1 inputs, generated by its own code.


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workload_files(tmp_path_factory):
    """Each workload's seed-1 directory, with the cooc.tsv its build-cooc call writes."""
    workloads = _workloads()
    made = {}

    def directory(name):
        if name not in made:
            made[name] = tmp_path_factory.mktemp(name)
            wl = workloads.GENERATORS[name](1, str(made[name]))
            assert cli.main(wl.build_args) == 0
        return made[name]

    return directory


@pytest.mark.parametrize(
    "name,file",
    [
        ("dense-relational", "cooc.tsv"),
        ("dense-relational", "relations.tsv"),
        ("wide-attrs", "cooc.tsv"),
        ("hierarchy-pipeline", "cooc.tsv"),
    ],
)
def test_workload_files_read_as_before(workload_files, name, file):
    path = workload_files(name) / file
    got = assert_same_as_before(READERS["cooc" if file == "cooc.tsv" else "relations"], path)
    assert got[2] == np.float64 and np.frombuffer(got[3]).any()


def test_hierarchy_relations_sum_as_before(workload_files):
    path = workload_files("hierarchy-pipeline") / "hierarchy.tsv"
    relations = hierarchy_to_relations(load_hierarchy_file(path), radius=3)
    got = ingest._accumulate(ingest._batched(relations), path, len(relations))
    want = reference._accumulate(ingest._batched(relations), path, len(relations))
    assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


# ---------------------------------------------------------------------------
# When the value texts are cached.


@pytest.fixture
def caches(monkeypatch):
    """The value-text caches the reader makes, one per cached block."""
    made = []

    class Counted(ingest._Floats):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(ingest, "_Floats", Counted)
    return made


def _lines(values):
    """One 6-byte count line per one-character value text, on two cells
    in turn, so that a block of 24 bytes holds four lines."""
    return "".join(f"c\t{'lm'[i % 2]}\t{v}\n" for i, v in enumerate(values))


# (value texts, how many blocks parse through a cache)
SWITCH = {
    "half distinct keeps the cache": ("1122" "1122" "1212", 3),
    "more than half turns it off": ("1233" "1111" "2222", 1),
    "off from the second block on": ("1122" "1233" "1111", 2),
}


@pytest.mark.parametrize("text,cached", SWITCH.values(), ids=SWITCH.keys())
@pytest.mark.parametrize("which", READERS)
def test_a_block_of_mostly_distinct_texts_ends_the_cache(tmp_path, block_bytes, caches, text, cached, which):
    block_bytes(24)
    path = tmp_path / "counts.tsv"
    path.write_text(_lines(text))
    vocab, _, _, bits = assert_same_as_before(READERS[which], path)
    assert len(caches) == cached
    assert np.frombuffer(bits).sum() == sum(map(int, text))


@pytest.mark.parametrize("which", READERS)
def test_all_distinct_first_block_then_repeated_values(tmp_path, block_bytes, caches, which):
    block_bytes(1 << 10)
    distinct = [f"c{i % 5}\tl{i % 7}\t{i + 0.5}\n" for i in range(200)]
    repeated = [f"c{i % 5}\tl{i % 7}\t{i % 3 + 1}\n" for i in range(2000)]
    path = tmp_path / "counts.tsv"
    path.write_text("".join(distinct + repeated))
    assert isinstance(assert_same_as_before(READERS[which], path)[0], VocabularyMaps)
    assert len(caches) == 1


@pytest.mark.parametrize("which", READERS)
def test_spellings_of_one_value_parse_alike(tmp_path, caches, which):
    spellings = ["1", "1.0", "01", "1e0", " 1"]
    lines = [f"c{i}\tl\t{s}\n" for i, s in enumerate(spellings)] + [f"all\tl\t{s}\n" for s in spellings * 3]
    path = tmp_path / "counts.tsv"
    path.write_text("".join(lines))
    vocab, shape, _, bits = assert_same_as_before(READERS[which], path)
    D = np.frombuffer(bits).reshape(shape)
    # The first field is the context of a count and the label of a relation.
    assert (vocab.contexts if which == "cooc" else vocab.labels) == ("all", "c0", "c1", "c2", "c3", "c4")
    assert D.ravel().tolist() == [15.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert [sorted(cache) for cache in caches] == [sorted(spellings)]


# Sums whose bits depend on the order of their terms, or that leave the
# float range; -0.0 is a count, not a relation weight.
SUMS = {
    "-0.0 once": ("farm\tcat\t-0.0\nhome\tdog\t1\n", [[0.0, 0.0], [0.0, 1.0]]),
    "-0.0 twice": ("farm\tcat\t-0.0\nfarm\tcat\t-0.0\nhome\tdog\t1\n", [[0.0, 0.0], [0.0, 1.0]]),
    "1e16 first": ("farm\tcat\t1e16\nfarm\tcat\t1\nfarm\tcat\t1\n", [[1e16]]),
    "1e16 last": ("farm\tcat\t1\nfarm\tcat\t1\nfarm\tcat\t1e16\n", [[1e16 + 2]]),
    "0.1 first": ("farm\tcat\t0.1\nfarm\tcat\t0.2\nfarm\tcat\t0.3\n", [[0.6000000000000001]]),
    "0.3 first": ("farm\tcat\t0.3\nfarm\tcat\t0.2\nfarm\tcat\t0.1\n", [[0.6]]),
    "overflow": ("farm\tcat\t1e308\nhome\tdog\t1\nfarm\tcat\t1e308\n", None),
    "overflow, then back in range": ("farm\tcat\t1e308\nfarm\tcat\t1e308\nfarm\tcat\t5e-324\n", None),
}


@pytest.mark.parametrize("size", [1, 16, ingest._BLOCK_BYTES], ids=["line per block", "small blocks", "one block"])
@pytest.mark.parametrize("text,cells", SUMS.values(), ids=SUMS.keys())
@pytest.mark.parametrize("which", READERS)
def test_sums_keep_their_bits(tmp_path, block_bytes, text, cells, which, size):
    block_bytes(size)
    path = tmp_path / "counts.tsv"
    path.write_text(text)
    got = assert_same_as_before(READERS[which], path)
    if cells is None or (which == "relations" and "-0.0" in text):
        assert got[0] is ParseError
    else:
        assert np.frombuffer(got[3]).reshape(got[1]).tolist() == cells
        assert not np.signbit(np.frombuffer(got[3])).any()


# ---------------------------------------------------------------------------
# Fuzz: files of repeated or distinct value texts, any block size.

NAMES = ["a", "b", "ü", "猫"]
TEXTS = ["1", "2.5", " 1", "1e-320", "1e308", "0.1", "0.2", "0", "-0.0", "07"]


@st.composite
def count_files(draw):
    """Lines whose values come from a few texts, from many, or from both
    in turn, so the cache turns off at any point of a file."""
    runs = []
    for _ in range(draw(st.integers(0, 4))):
        distinct = draw(st.booleans())
        values = st.floats(0, 1e6, allow_nan=False).map(repr) if distinct else st.sampled_from(TEXTS)
        runs += draw(st.lists(values, max_size=30))
    lines = [f"{draw(st.sampled_from(NAMES))}\t{draw(st.sampled_from(NAMES))}\t{v}\n" for v in runs]
    data = "".join(lines).encode("utf-8")
    if data and draw(st.booleans()):
        data = data[:-1]
    return data


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=count_files(), size=st.integers(1, 256), which=st.sampled_from(sorted(READERS)))
def test_files_read_as_before(tmp_path_factory, data, size, which):
    path = tmp_path_factory.mktemp("counts") / "counts.tsv"
    path.write_bytes(data)
    with mock.patch.object(ingest, "_BLOCK_BYTES", size), mock.patch.object(reference, "_BLOCK_BYTES", size):
        assert_same_as_before(READERS[which], path)
