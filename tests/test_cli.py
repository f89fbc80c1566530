import importlib
import io
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import phcle
from phcle.cli import (
    CONFIG_KEYS,
    GRID_VALUES,
    _read_label_list,
    _read_vector,
    load_config,
    main,
    read_cooccurrence_tsv,
    write_cooccurrence_tsv,
)
from phcle.datamodel import (
    HyperParams,
    VocabularyMaps,
    format_float,
    load_embeddings,
    load_model,
    save_model,
)
from phcle.errors import ParseError
from phcle.ingest import hierarchy_to_relations, load_attribute_table, read_attribute_names
from phcle.evaluation import (
    correlation_matrix,
    correlation_to_tsv,
    describe_embedding,
    retrieve_labels,
)
from phcle import trainer
from reference import DescriptiveBlock as OldDescriptiveBlock
from reference import RelationRecord, build_cooccurrence, load_relation_file
from reference import train as reference_train
from test_ingest import pipe_holding

RELATIONS = "cat\tfarm\ncat\tfarm\ncow\tfarm\t2\ndog\thome\ncat\thome\t0.5\n"
ATTRS = "label\tlegs\ttail\ncat\t4\t1\ncow\t4\tNA\n"

FULL_CONFIG = """\
# small but complete setup
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
init = uniform_random(0.1)
inner_steps_c = 2
inner_steps_w = 2
alpha = 1
beta = 1
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "relations.tsv").write_text(RELATIONS)
    (tmp_path / "attrs.tsv").write_text(ATTRS)
    (tmp_path / "config").write_text(FULL_CONFIG)
    return tmp_path


def decode_error(path):
    """The message of the UTF-8 error that decoding the whole file gives."""
    with pytest.raises(UnicodeDecodeError) as err:
        path.read_bytes().decode("utf-8")
    return str(err.value)


def trained_model(workspace):
    cooc = workspace / "cooc.tsv"
    model = workspace / "model.bin"
    assert main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)]) == 0
    assert (
        main(
            [
                "train",
                "--cooc", str(cooc),
                "--attrs", str(workspace / "attrs.tsv"),
                "--config", str(workspace / "config"),
                "--out", str(model),
            ]
        )
        == 0
    )
    return model


class TestConfig:
    def test_full_file_parses_silently(self, workspace, capsys):
        hyper = load_config(workspace / "config")
        assert capsys.readouterr().err == ""
        assert hyper.dim == 3
        assert hyper.negative_samples == 3
        assert hyper.inner_max_iter == 4
        assert hyper.step_size == 0.001
        assert hyper.tolerance == 1e-4

    def test_missing_keys_fall_back_with_a_note(self, tmp_path, capsys):
        path = tmp_path / "cfg"
        path.write_text("lambda1 = 2.0\n")
        hyper = load_config(path)
        err = capsys.readouterr().err
        assert "config: lambda2 not set, using default 0.01" in err
        assert "config: dim not set, using default 100" in err
        assert "config: lambda1" not in err
        assert hyper == HyperParams(lambda1=2.0)

    def test_weight_lists_parse(self, tmp_path, capsys):
        path = tmp_path / "cfg"
        path.write_text("alpha = 0.5, 0.5\nbeta = 0.25,0.75\n")
        hyper = load_config(path)
        assert hyper.alpha == (0.5, 0.5)
        assert hyper.beta == (0.25, 0.75)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("lambda9 = 1\n", "unknown config key"),
            ("lambda1 = 1\nlambda1 = 2\n", "duplicate config key"),
            ("lambda1 =\n", "empty value"),
            ("lambda1\n", "expected key=value"),
            ("dim = three\n", "bad config value"),
        ],
    )
    def test_malformed_files(self, tmp_path, text, fragment):
        path = tmp_path / "cfg"
        path.write_text(text)
        with pytest.raises(ParseError, match=fragment):
            load_config(path)

    def test_error_carries_location(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("lambda1 = 1\nbogus = 2\n")
        with pytest.raises(ParseError) as err:
            load_config(path)
        assert err.value.line == 2

    def test_readme_table_gives_every_key_with_its_noted_default(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Config file\n", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("|")][2:]  # skip header and rule
        table = [tuple(cell.strip() for cell in row.strip("|").split("|"))[:2] for row in rows]
        path = tmp_path / "cfg"
        path.write_text("")
        load_config(path)
        notes = capsys.readouterr().err.splitlines()
        noted = [tuple(note.removeprefix("config: ").split(" not set, using default ")) for note in notes]
        assert [key for key, _ in table] == list(CONFIG_KEYS)
        assert table == noted

    def test_empty_file_gives_every_default(self, tmp_path, capsys):
        path = tmp_path / "cfg"
        path.write_text("")
        assert load_config(path) == HyperParams()
        assert capsys.readouterr().err == (
            "config: lambda1 not set, using default 1.0\n"
            "config: lambda2 not set, using default 0.01\n"
            "config: lambda3 not set, using default 0.01\n"
            "config: k not set, using default 10\n"
            "config: dim not set, using default 100\n"
            "config: outer_iters not set, using default 50\n"
            "config: inner_fista not set, using default 50\n"
            "config: step not set, using default 1e-05\n"
            "config: epsilon not set, using default 0.0001\n"
            "config: seed not set, using default 0\n"
            "config: init not set, using default uniform_random(0.1)\n"
            "config: inner_steps_c not set, using default 5\n"
            "config: inner_steps_w not set, using default 5\n"
            "config: alpha not set, using default 1\n"
            "config: beta not set, using default 1\n"
        )

    def test_notes_come_before_the_first_bad_value_in_key_order(self, tmp_path, capsys):
        path = tmp_path / "cfg"
        # step comes after dim in key order, so dim is the value reported
        path.write_text("# partial\nseed = 3\nstep = fast\nlambda2 = 0.5\ndim = three\n")
        with pytest.raises(ParseError) as err:
            load_config(path)
        assert str(err.value) == f"{path}: bad config value: invalid literal for int() with base 10: 'three'"
        assert capsys.readouterr().err == (
            "config: lambda1 not set, using default 1.0\n"
            "config: lambda3 not set, using default 0.01\n"
            "config: k not set, using default 10\n"
            "config: outer_iters not set, using default 50\n"
            "config: inner_fista not set, using default 50\n"
            "config: epsilon not set, using default 0.0001\n"
            "config: init not set, using default uniform_random(0.1)\n"
            "config: inner_steps_c not set, using default 5\n"
            "config: inner_steps_w not set, using default 5\n"
            "config: alpha not set, using default 1\n"
            "config: beta not set, using default 1\n"
        )

    def test_grid_values(self):
        assert GRID_VALUES == (1e-2, 1e-1, 1.0, 1e1, 1e2)


class TestCoocRoundTrip:
    def test_write_read_identity(self, tmp_path):
        vocab = VocabularyMaps(labels=("a", "b"), context_lists=(("x", "y", "z"),))
        D = np.array([[1.0, 0.0], [0.25, 3.0], [0.0, 0.0]])
        path = tmp_path / "c.tsv"
        write_cooccurrence_tsv(path, vocab, D)
        vocab2, D2 = read_cooccurrence_tsv(path)
        # context z and its all-zero row vanish: the format is sparse
        assert vocab2.labels == ("a", "b")
        assert vocab2.contexts == ("x", "y")
        np.testing.assert_array_equal(D2, D[:2])

    def test_writer_matches_cell_by_cell_reference(self, tmp_path):
        rng = np.random.default_rng(12)
        D = rng.integers(0, 4, size=(9, 7)) * rng.uniform(0.1, 5.0, size=(9, 7))
        D[rng.random(D.shape) < 0.4] = 0.0
        D[[2, 5], :] = 0.0
        D[:, [0, 4]] = 0.0
        vocab = VocabularyMaps(
            labels=tuple(f"l{w}" for w in range(7)), context_lists=(tuple(f"c{c}" for c in range(9)),)
        )
        expected = []
        for c, context in enumerate(vocab.contexts):
            for w, label in enumerate(vocab.labels):
                if D[c, w] != 0.0:
                    expected.append(f"{context}\t{label}\t{format_float(D[c, w])}")
        path = tmp_path / "c.tsv"
        write_cooccurrence_tsv(path, vocab, D)
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")

    def test_writer_formats_repeated_values_like_each_cell(self, tmp_path):
        rng = np.random.default_rng(13)
        pool = np.array([1.0, 0.5, 2.0, 0.1 + 0.2, 1e-300, 1e300, 1 / 3, 7.0, 2.5e-7])
        D = pool[rng.integers(0, pool.size, size=(11, 8))]
        D[rng.random(D.shape) < 0.3] = 0.0
        vocab = VocabularyMaps(
            labels=tuple(f"l{w}" for w in range(8)), context_lists=(tuple(f"c{c}" for c in range(11)),)
        )
        expected = [
            f"{context}\t{label}\t{format_float(D[c, w])}"
            for c, context in enumerate(vocab.contexts)
            for w, label in enumerate(vocab.labels)
            if D[c, w] != 0.0
        ]
        path = tmp_path / "c.tsv"
        write_cooccurrence_tsv(path, vocab, D)
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")

    def test_writer_on_all_zero_counts_writes_empty_file(self, tmp_path):
        vocab = VocabularyMaps(labels=("a",), context_lists=(("x", "y"),))
        path = tmp_path / "c.tsv"
        write_cooccurrence_tsv(path, vocab, np.zeros((2, 1)))
        assert path.read_bytes() == b""

    def test_duplicate_lines_accumulate(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("x\ta\t1\nx\ta\t2\n")
        _, D = read_cooccurrence_tsv(path)
        assert D[0, 0] == 3.0

    def test_duplicate_lines_sum_in_file_order(self, tmp_path):
        # Float addition is not associative: 1e16 + 1 + 1 is 1e16 in file
        # order but 1e16 + 2 with the ones added first; 0.1 + 0.2 + 0.3 and
        # 0.3 + 0.2 + 0.1 differ in the last bit.
        lines = [
            ("y", "b", "1e16"), ("x", "b", "0.1"), ("y", "b", "1"), ("x", "b", "0.2"),
            ("y", "a", "0.5"), ("y", "b", "1"), ("x", "b", "0.3"), ("x", "c", "0"),
            ("z", "b", "0.3"), ("z", "b", "0.2"), ("z", "b", "0.1"),
        ]
        path = tmp_path / "c.tsv"
        path.write_text("".join(f"{c}\t{w}\t{v}\n" for c, w, v in lines))
        vocab, D = read_cooccurrence_tsv(path)
        # the cell-by-cell accumulation the reader must reproduce
        contexts, labels = sorted({c for c, _, _ in lines}), sorted({w for _, w, _ in lines})
        expected = np.zeros((len(contexts), len(labels)))
        for c, w, v in lines:
            expected[contexts.index(c), labels.index(w)] += float(v)
        assert vocab.contexts == tuple(contexts) and vocab.labels == tuple(labels)
        assert D.tobytes() == expected.tobytes()
        assert D[1, 1] == 1e16 and D[0, 1] != D[2, 1]

    @pytest.mark.parametrize(
        "line", ["x\ta", "x\ta\tmany", "x\ta\t-1", "x\ta\tinf"]
    )
    def test_malformed_rows(self, tmp_path, line):
        path = tmp_path / "c.tsv"
        path.write_text("x\ta\t1\n" + line + "\n")
        with pytest.raises(ParseError) as err:
            read_cooccurrence_tsv(path)
        assert err.value.line == 2


class TestBuildCooc:
    def test_relations_end_to_end(self, workspace, capsys):
        out = workspace / "cooc.tsv"
        code = main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == "labels=3 contexts=2 nnz=4\n"
        vocab, D = read_cooccurrence_tsv(out)
        assert vocab.labels == ("cat", "cow", "dog")
        assert vocab.contexts == ("farm", "home")
        np.testing.assert_array_equal(D, [[2.0, 2.0, 0.0], [0.5, 0.0, 1.0]])

    def test_hierarchy_end_to_end(self, tmp_path, capsys):
        (tmp_path / "h.tsv").write_text("a\tb\nb\tc\n")
        out = tmp_path / "cooc.tsv"
        code = main(
            ["build-cooc", "--hierarchy", str(tmp_path / "h.tsv"), "--radius", "2", "--decay", "0.5", "--out", str(out)]
        )
        assert code == 0
        vocab, D = read_cooccurrence_tsv(out)
        assert vocab.labels == vocab.contexts == ("a", "b", "c")
        np.testing.assert_array_equal(D, [[0, 1, 0.5], [1, 0, 1], [0.5, 1, 0]])

    def test_hierarchy_defaults_are_radius_2_decay_half(self, tmp_path, capsys):
        hierarchy = tmp_path / "h.tsv"
        hierarchy.write_text("a\tb\nb\tc\nc\td\n")  # a -> c is 2 hops, a -> d 3
        outputs = []
        for flags in ([], ["--radius", "2", "--decay", "0.5"]):
            out = tmp_path / f"cooc{len(flags)}.tsv"
            assert main(["build-cooc", "--hierarchy", str(hierarchy), *flags, "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert b"c\ta\t0.5\n" in outputs[0][0] and b"d\ta\t" not in outputs[0][0]

    def test_hierarchy_weight_that_underflows_is_rejected(self, tmp_path, capsys):
        # a-b-c-d at decay 1e-200: a -> c weighs 1e-200, a -> d underflows to 0.0
        hierarchy = tmp_path / "h.tsv"
        hierarchy.write_text("a\tb\nb\tc\nc\td\n")
        out = tmp_path / "cooc.tsv"
        argv = ["build-cooc", "--hierarchy", str(hierarchy), "--radius", "3", "--decay", "1e-200"]
        assert main([*argv, "--out", str(out)]) == 2
        message = "relation weight must be a positive finite number, got 0.0 for 'a' -> 'd'"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        with pytest.raises(ValueError) as err:
            hierarchy_to_relations([("a", "b"), ("b", "c"), ("c", "d")], radius=3, decay=1e-200)
        assert str(err.value) == message

    def test_sources_are_mutually_exclusive(self, workspace, capsys):
        code = main(
            [
                "build-cooc",
                "--relations", str(workspace / "relations.tsv"),
                "--hierarchy", str(workspace / "relations.tsv"),
                "--out", str(workspace / "x"),
            ]
        )
        assert code == 2

    def test_radius_rejected_for_relations(self, workspace, capsys):
        code = main(
            [
                "build-cooc",
                "--relations", str(workspace / "relations.tsv"),
                "--radius", "3",
                "--out", str(workspace / "x"),
            ]
        )
        assert code == 2
        assert "--radius/--decay" in capsys.readouterr().err

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        code = main(["build-cooc", "--relations", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "x")])
        assert code == 1

    def test_relations_bytes_match_record_path(self, tmp_path, capsys):
        lines = [
            "cat\tfarm", "dog\thome\t1e16", "", "cat\thome\t0.1", "dog\thome\t1",
            "cat\thome\t0.2", "dog\thome\t1", "cat\thome\t0.3", "",
            "cow\tbarn\t0.3", "cow\tbarn\t0.2", "cow\tbarn\t0.1",
            "cow\tfarm\t1.2345678901234567", "ant\tfarm\t1e-300", "ant\tbarn\t1e300",
            "bee\thome\t0.5", "cat\tfarm", "cow\thome\t2.5e-7", "bee\tbarn\t0.5",
        ]
        relations = tmp_path / "rel.tsv"
        relations.write_text("\n".join(lines) + "\n")
        out = tmp_path / "cooc.tsv"
        assert main(["build-cooc", "--relations", str(relations), "--out", str(out)]) == 0
        # the record path: one record per line, summed cell by cell,
        # written by visiting every cell
        records = load_relation_file(relations)
        vocab = VocabularyMaps(
            labels=tuple(sorted({r.label for r in records})),
            context_lists=(tuple(sorted({r.context for r in records})),),
        )
        D = build_cooccurrence(records, vocab).values
        expected = [
            f"{context}\t{label}\t{format_float(D[c, w])}"
            for c, context in enumerate(vocab.contexts)
            for w, label in enumerate(vocab.labels)
            if D[c, w] != 0.0
        ]
        assert out.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")
        assert capsys.readouterr().out == f"labels=5 contexts=3 nnz={len(expected)}\n"
        written = dict(((c, w), v) for c, w, v in (line.split("\t") for line in expected))
        assert written["home", "dog"] == "1e+16"  # 1e16 + 1 + 1 in file order
        assert written["home", "cat"] != written["barn", "cow"]  # 0.1+0.2+0.3 vs 0.3+0.2+0.1
        assert written["farm", "cow"] == "1.2345678901234567"

    @staticmethod
    def random_tree(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        # names whose sorted order differs from the order they appear in
        names = [f"n{k}" for k in rng.permutation(n)]
        return [(names[int(rng.integers(0, child))], names[child]) for child in range(1, n)]

    # a 3-cycle listed twice (once reversed) with a tail and a second component
    CYCLE = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "b"), ("b", "a"), ("c", "d"), ("x", "y")]

    @pytest.mark.parametrize("radius,decay", [(1, 1.0), (1, 0.5), (3, 1.0), (3, 0.5)])
    @pytest.mark.parametrize("graph", ["tree-0", "tree-1", "tree-2", "tree-3", "cycle"])
    def test_hierarchy_bytes_match_record_path(self, tmp_path, capsys, graph, radius, decay):
        edges = self.CYCLE if graph == "cycle" else self.random_tree(int(graph.split("-")[1]))
        hierarchy = tmp_path / "h.tsv"
        hierarchy.write_text("".join(f"{p}\t{c}\n" for p, c in edges))
        out = tmp_path / "cooc.tsv"
        argv = ["build-cooc", "--hierarchy", str(hierarchy), "--radius", str(radius), "--decay", str(decay)]
        assert main([*argv, "--out", str(out)]) == 0
        # the record path: every name in both roles, summed cell by cell,
        # written by visiting every cell
        names = tuple(sorted({name for edge in edges for name in edge}))
        vocab = VocabularyMaps(labels=names, context_lists=(names,))
        records = [
            RelationRecord(label, context, weight)
            for context, label, weight in hierarchy_to_relations(edges, radius=radius, decay=decay)
        ]
        D = build_cooccurrence(records, vocab).values
        expected = [
            f"{context}\t{label}\t{format_float(D[c, w])}"
            for c, context in enumerate(names)
            for w, label in enumerate(names)
            if D[c, w] != 0.0
        ]
        assert out.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")
        n = len(names)
        assert capsys.readouterr().out == f"labels={n} contexts={n} nnz={len(expected)}\n"

    MALFORMED = [
        ("cat", "expected 2 or 3 tab-separated fields, got 1"),
        ("cat\tfarm\t1\tx", "expected 2 or 3 tab-separated fields, got 4"),
        ("\tfarm\t1", "relation record needs non-empty label and context names"),
        ("cat\t", "relation record needs non-empty label and context names"),
        ("cat\tfarm\tmany", "non-numeric weight 'many'"),
        ("cat\tfarm\t0", "relation weight must be a positive finite number, got 0.0 for 'cat' -> 'farm'"),
        ("cat\tfarm\t-1", "relation weight must be a positive finite number, got -1.0 for 'cat' -> 'farm'"),
        ("cat\tfarm\tinf", "relation weight must be a positive finite number, got inf for 'cat' -> 'farm'"),
        ("cat\tfarm\tnan", "relation weight must be a positive finite number, got nan for 'cat' -> 'farm'"),
    ]

    @pytest.mark.parametrize("line,message", MALFORMED)
    def test_malformed_relation_names_its_line(self, tmp_path, capsys, line, message):
        relations = tmp_path / "rel.tsv"
        relations.write_text("cat\tfarm\n\ndog\thome\t2\n" + line + "\ncow\tfarm\n")
        out = tmp_path / "cooc.tsv"
        assert main(["build-cooc", "--relations", str(relations), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {relations}:4: {message}\n"
        assert not out.exists()
        with pytest.raises(ParseError, match=message) as err:
            load_relation_file(relations)
        assert err.value.line == 4

    def test_relation_weights_that_overflow_are_rejected(self, tmp_path, capsys):
        relations = tmp_path / "rel.tsv"
        relations.write_text("cat\tfarm\t1e308\ncat\tfarm\t1e308\n")
        out = tmp_path / "cooc.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["build-cooc", "--relations", str(relations), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {relations}: cooccurrence matrix contains non-finite entries\n"
        assert not out.exists()

    def test_undecodable_relation_file_names_its_file(self, tmp_path, capsys):
        relations = tmp_path / "rel.tsv"
        relations.write_bytes(b"cat\tfarm\ncow\tb\xffrn\t2\n")
        out = tmp_path / "cooc.tsv"
        assert main(["build-cooc", "--relations", str(relations), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {relations}:2: {decode_error(relations)}\n"
        assert not out.exists()


class TestUndecodableInputs:
    """An input file holding a byte that is not UTF-8 exits 2 with an
    error naming the file, and the byte's line in a count, hierarchy or
    attribute file, and writes nothing."""

    def run(self, capsys, path, argv, line=None):
        capsys.readouterr()
        assert main(argv) == 2
        where = f"{path}:{line}" if line else path
        assert capsys.readouterr().err == f"error: {where}: {decode_error(path)}\n"

    def train(self, workspace, capsys, bad, line=None):
        model = workspace / "model.bin"
        cooc = workspace / "cooc.tsv"
        assert main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)]) == 0
        argv = ["train", "--cooc", str(cooc), "--attrs", str(workspace / "attrs.tsv")]
        self.run(capsys, bad, argv + ["--config", str(workspace / "config"), "--out", str(model)], line)
        assert not model.exists()

    def test_hierarchy_file(self, tmp_path, capsys):
        hierarchy = tmp_path / "h.tsv"
        hierarchy.write_bytes(b"a\tb\nb\tc\xff\n")
        out = tmp_path / "cooc.tsv"
        self.run(capsys, hierarchy, ["build-cooc", "--hierarchy", str(hierarchy), "--out", str(out)], line=2)
        assert not out.exists()

    def test_attribute_table(self, workspace, capsys):
        attrs = workspace / "attrs.tsv"
        attrs.write_bytes(ATTRS.encode() + b"d\xffg\t4\t1\n")
        self.train(workspace, capsys, attrs, line=4)

    def test_config_file(self, workspace, capsys):
        config = workspace / "config"
        config.write_bytes(FULL_CONFIG.encode() + b"# caf\xe9\n")
        self.train(workspace, capsys, config, line=17)

    def test_label_list(self, workspace, capsys):
        model = trained_model(workspace)
        labels = workspace / "labels.txt"
        labels.write_bytes(b"cat\nd\xffg\n")
        self.run(capsys, labels, ["correlate", "--model", str(model), "--labels", str(labels)], line=2)

    def test_vector_file(self, workspace, capsys):
        model = trained_model(workspace)
        vector = workspace / "vec.txt"
        vector.write_bytes(b"0.5 \xff 1")
        self.run(capsys, vector, ["describe", "--model", str(model), "--vector", str(vector)], line=1)

    # Each text reader and a 10-byte line of its format.
    READERS = {
        "config": (load_config, b"# comment\n"),
        "label list": (_read_label_list, b"label0001\n"),
        "vector": (lambda path: _read_vector(path, 1), b"0.5000001\n"),
        "embeddings": (load_embeddings, b"a 0.50001\n"),
    }

    @pytest.mark.parametrize("reader", READERS)
    def test_byte_past_the_first_decode_piece_is_named_at_its_line(self, tmp_path, reader):
        read, line = self.READERS[reader]
        data = line * 1200 + b"d\xffg\n"  # the 0xff at file position 12001, on line 1201
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        assert "in position 12001:" in decode_error(path)
        with pytest.raises(ParseError) as err:
            read(path)
        assert str(err.value) == f"{path}:1201: {decode_error(path)}"
        with pipe_holding(data) as piped, pytest.raises(ParseError) as err:
            read(piped)
        assert str(err.value) == f"{piped}:1201: {decode_error(path)}"


class TestTrainCommand:
    def test_writes_model_and_history(self, workspace, capsys):
        model_path = trained_model(workspace)
        out = capsys.readouterr().out
        assert "trained 2 iterations: objective " in out
        assert "model written to" in out
        model, vocab, hyper = load_model(model_path)
        assert model.W.shape == (3, 3)
        assert vocab.labels == ("cat", "cow", "dog")
        assert vocab.attributes == ("legs", "tail")
        assert hyper.dim == 3
        lines = model_path.with_name("model.bin.history.tsv").read_text().splitlines()
        assert lines[0].startswith("iteration\tobjective")
        assert len(lines) == 4

    def test_retrain_is_byte_identical(self, workspace, capsys):
        first = trained_model(workspace)
        data_first = first.read_bytes()
        second_dir = workspace / "again"
        second_dir.mkdir()
        cooc = workspace / "cooc.tsv"
        second = second_dir / "model.bin"
        main(
            [
                "train",
                "--cooc", str(cooc),
                "--attrs", str(workspace / "attrs.tsv"),
                "--config", str(workspace / "config"),
                "--out", str(second),
            ]
        )
        assert second.read_bytes() == data_first

    def test_divergent_step_exits_three(self, workspace, capsys):
        cooc = workspace / "cooc.tsv"
        main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)])
        capsys.readouterr()
        (workspace / "config").write_text(FULL_CONFIG.replace("step = 0.001", "step = 1e6"))
        code = main(
            [
                "train",
                "--cooc", str(cooc),
                "--attrs", str(workspace / "attrs.tsv"),
                "--config", str(workspace / "config"),
                "--out", str(workspace / "model.bin"),
            ]
        )
        assert code == 3
        assert "step_size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting,message",
        [
            ("lambda1 = nan", "lambda1 must be finite, got nan"),
            ("lambda2 = inf", "lambda2 must be finite, got inf"),
            ("lambda3 = nan", "lambda3 must be finite, got nan"),
            ("step = nan", "step_size must be finite, got nan"),
            ("step = inf", "step_size must be finite, got inf"),
            ("epsilon = inf", "tolerance must be finite, got inf"),
            ("alpha = nan", "alpha weights must be finite, got (nan,)"),
            ("beta = 0.5, nan", "beta weights must be finite, got (0.5, nan)"),
            ("seed = -1", "seed must be >= 0"),
            (
                "init = uniform_random(1e308)",
                "init scale too large in 'uniform_random(1e308)': the width 2*scale of [-scale, scale] overflows",
            ),
        ],
    )
    def test_unusable_config_value_exits_two(self, workspace, capsys, setting, message):
        cooc = workspace / "cooc.tsv"
        main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)])
        capsys.readouterr()
        key = setting.split(" = ")[0]
        config = workspace / "config"
        lines = [setting if line.startswith(f"{key} =") else line for line in FULL_CONFIG.splitlines()]
        config.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "train",
                "--cooc", str(cooc),
                "--attrs", str(workspace / "attrs.tsv"),
                "--config", str(config),
                "--out", str(workspace / "model.bin"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {config}: bad config value: {message}\n"
        assert not (workspace / "model.bin").exists()

    def test_bad_config_exits_two(self, workspace, capsys):
        cooc = workspace / "cooc.tsv"
        main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)])
        (workspace / "config").write_text("mystery = 1\n")
        code = main(
            [
                "train",
                "--cooc", str(cooc),
                "--attrs", str(workspace / "attrs.tsv"),
                "--config", str(workspace / "config"),
                "--out", str(workspace / "model.bin"),
            ]
        )
        assert code == 2

    def test_two_attr_tables_build_generalized_model(self, workspace, capsys):
        cooc = workspace / "cooc.tsv"
        main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)])
        (workspace / "attrs2.tsv").write_text("label\tsize\ndog\t3\n")
        (workspace / "config").write_text(FULL_CONFIG.replace("beta = 1", "beta = 0.5,0.5"))
        model_path = workspace / "gen.bin"
        code = main(
            [
                "train",
                "--cooc", str(cooc),
                "--attrs", str(workspace / "attrs.tsv"),
                "--attrs", str(workspace / "attrs2.tsv"),
                "--config", str(workspace / "config"),
                "--out", str(model_path),
            ]
        )
        assert code == 0
        model, vocab, hyper = load_model(model_path)
        assert [U.shape[1] for U in model.Us] == [2, 1]
        assert vocab.attribute_lists == (("legs", "tail"), ("size",))
        # read-only commands flatten the attribute contexts
        capsys.readouterr()
        assert main(["retrieve", "--model", str(model_path), "--query", "cat", "--tsv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
    def test_non_finite_attribute_cell_names_its_line(self, workspace, capsys, value):
        cooc = workspace / "cooc.tsv"
        main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)])
        attrs = workspace / "attrs.tsv"
        # dog's row comes first in the file, cat's first in the matrix
        attrs.write_text(f"label\tlegs\ttail\ncow\t4\tNA\ndog\tNA\t{value}\ncat\t-inf\t1\n")
        capsys.readouterr()
        code = main(
            [
                "train",
                "--cooc", str(cooc),
                "--attrs", str(attrs),
                "--config", str(workspace / "config"),
                "--out", str(workspace / "model.bin"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {attrs}:3: non-finite cell {value!r}\n"
        assert not (workspace / "model.bin").exists()

    def train_with_config(self, workspace, config_text, *extra_attrs):
        """Exit code of a train run under ``config_text``, on attrs.tsv and
        any ``extra_attrs`` tables, writing workspace/model.bin."""
        cooc = workspace / "cooc.tsv"
        main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)])
        (workspace / "config").write_text(config_text)
        attrs = [arg for path in (workspace / "attrs.tsv", *extra_attrs) for arg in ("--attrs", str(path))]
        argv = ["train", "--cooc", str(cooc), *attrs, "--config", str(workspace / "config")]
        return main(argv + ["--out", str(workspace / "model.bin")])

    @pytest.mark.parametrize(
        "setting,message",
        [
            ("alpha = 0.5,0.5", "alpha has 2 weights for 1 relational contexts"),
            ("beta = 0.5,0.5", "beta has 2 weights for 1 descriptive contexts"),
        ],
    )
    def test_one_table_run_rejects_two_weights(self, workspace, capsys, setting, message):
        key = setting.split(" = ")[0]
        config = FULL_CONFIG.replace(f"{key} = 1", setting)
        assert self.train_with_config(workspace, config) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workspace / "model.bin").exists()
        assert [name for name in os.listdir(workspace) if name.endswith(".tmp")] == []

    def test_one_table_run_writes_the_old_train_bytes(self, workspace, capsys):
        # lambda1 = 0.5 weighs the table as the old one-table call did.
        config = FULL_CONFIG.replace("lambda1 = 1.0", "lambda1 = 0.5")
        assert self.train_with_config(workspace, config) == 0
        cooc_vocab, D = read_cooccurrence_tsv(workspace / "cooc.tsv")
        names = read_attribute_names(workspace / "attrs.tsv")
        vocab = VocabularyMaps(cooc_vocab.labels, cooc_vocab.context_lists, (names,))
        table = load_attribute_table(workspace / "attrs.tsv", vocab)
        hyper = load_config(workspace / "config")
        assert hyper.lambda1 == 0.5
        model, history = reference_train(D, table.assoc, table.mask, hyper, vocab)
        save_model(workspace / "old.bin", model, vocab, hyper)
        assert (workspace / "model.bin").read_bytes() == (workspace / "old.bin").read_bytes()
        got = np.loadtxt(workspace / "model.bin.history.tsv", skiprows=1, ndmin=2)
        want = np.loadtxt(io.StringIO(history.to_tsv()), skiprows=1, ndmin=2)
        assert np.array_equal(got[:, :-1], want[:, :-1])  # all but the seconds column

    def test_two_table_run_scales_descriptive_weights_by_lambda1(self, workspace, capsys):
        (workspace / "attrs2.tsv").write_text("label\tsize\ndog\t3\n")
        Ws = []
        for lambda1 in ("0.5", "7"):
            config = FULL_CONFIG.replace("beta = 1", "beta = 0.5,0.5").replace("lambda1 = 1.0", f"lambda1 = {lambda1}")
            assert self.train_with_config(workspace, config, workspace / "attrs2.tsv") == 0
            Ws.append(load_model(workspace / "model.bin")[0].W)
        assert not np.array_equal(*Ws)

    @pytest.mark.parametrize(
        "key,field",
        [(key, field) for key, field in CONFIG_KEYS.items() if isinstance(getattr(HyperParams(), field), int)],
    )
    def test_integer_past_int64_exits_two(self, workspace, capsys, key, field):
        config = f"{key} = {2**63}\n" + "".join(
            line + "\n" for line in FULL_CONFIG.splitlines() if not line.startswith(f"{key} =")
        )
        assert self.train_with_config(workspace, config) == 2
        assert capsys.readouterr().err == (
            f"error: {workspace / 'config'}: bad config value: {field} must be <= 9223372036854775807\n"
        )
        assert not (workspace / "model.bin").exists()
        assert [name for name in os.listdir(workspace) if name.endswith(".tmp")] == []

    def test_largest_int64_seed_round_trips(self, workspace, capsys):
        config = FULL_CONFIG.replace("seed = 0", "seed = 9223372036854775807")
        assert self.train_with_config(workspace, config) == 0
        assert load_model(workspace / "model.bin")[2].seed == 2**63 - 1

    def test_non_finite_start_exits_three(self, workspace, capsys):
        # Squared residuals of 1e200 overflow in the starting objective;
        # numpy warns of it as it goes.
        (workspace / "attrs.tsv").write_text("label\tlegs\ttail\ncat\t1e200\t1\n")
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = self.train_with_config(workspace, FULL_CONFIG)
        assert code == 3
        assert capsys.readouterr().err == "error: objective is non-finite at the starting point\n"
        assert not (workspace / "model.bin").exists()

    @pytest.mark.parametrize(
        "line,message", [("\ta\t2", "empty context name"), ("x\t\t2", "empty label name")]
    )
    def test_empty_cooc_name_names_its_file(self, workspace, capsys, line, message):
        cooc = workspace / "cooc.tsv"
        cooc.write_text("cat\tfarm\t1\n" + line + "\n")
        code = main(
            [
                "train",
                "--cooc", str(cooc),
                "--attrs", str(workspace / "attrs.tsv"),
                "--config", str(workspace / "config"),
                "--out", str(workspace / "model.bin"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {cooc}: {message}\n"
        assert not (workspace / "model.bin").exists()

    def test_overflowing_cooc_sum_names_its_file(self, workspace, capsys):
        cooc = workspace / "cooc.tsv"
        cooc.write_text("farm\tcat\t1e308\nhome\tdog\t1\nfarm\tcat\t1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                [
                    "train",
                    "--cooc", str(cooc),
                    "--attrs", str(workspace / "attrs.tsv"),
                    "--config", str(workspace / "config"),
                    "--out", str(workspace / "model.bin"),
                ]
            )
        assert code == 2
        assert capsys.readouterr().err == f"error: {cooc}: cooccurrence matrix contains non-finite entries\n"
        assert not (workspace / "model.bin").exists()

    def test_undecodable_cooc_file_names_its_file(self, workspace, capsys):
        cooc = workspace / "cooc.tsv"
        cooc.write_bytes(b"farm\tcat\t1\nh\xffme\tdog\t1\n")
        code = main(
            [
                "train",
                "--cooc", str(cooc),
                "--attrs", str(workspace / "attrs.tsv"),
                "--config", str(workspace / "config"),
                "--out", str(workspace / "model.bin"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {cooc}:2: {decode_error(cooc)}\n"
        assert not (workspace / "model.bin").exists()

    def test_bad_cooc_line_keeps_its_line_number(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("x\ta\t1\n\ty\t1\nx\ta\tmany\n")
        with pytest.raises(ParseError) as err:
            read_cooccurrence_tsv(path)
        assert str(err.value) == f"{path}:3: non-numeric count 'many'"

    def test_second_cooc_file_exits_two(self, workspace, capsys):
        cooc = workspace / "cooc.tsv"
        assert main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)]) == 0
        (workspace / "other.tsv").write_text("farm\tcat\t3\n")
        capsys.readouterr()
        code = main(
            [
                "train",
                "--cooc", str(cooc),
                "--cooc", str(workspace / "other.tsv"),
                "--attrs", str(workspace / "attrs.tsv"),
                "--config", str(workspace / "config"),
                "--out", str(workspace / "model.bin"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: train takes one co-occurrence file: --cooc given 2 times\n"
        assert not (workspace / "model.bin").exists()
        assert not (workspace / "model.bin.history.tsv").exists()
        assert [name for name in os.listdir(workspace) if name.endswith(".tmp")] == []


class TestAtomicOutputs:
    """A write that fails leaves the file it would replace as it was and
    no temp file behind; here the final rename fails, after the new
    contents are complete."""

    @pytest.mark.parametrize("output", ["cooc.tsv", "model.bin", "model.bin.history.tsv", "emb.txt"])
    def test_failed_write_keeps_old_file(self, workspace, capsys, monkeypatch, output):
        cooc, model = workspace / "cooc.tsv", workspace / "model.bin"
        commands = {
            "cooc.tsv": ["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)],
            "model.bin": [
                "train", "--cooc", str(cooc), "--attrs", str(workspace / "attrs.tsv"),
                "--config", str(workspace / "config"), "--out", str(model),
            ],
            "emb.txt": ["export", "--model", str(model), "--out", str(workspace / "emb.txt")],
        }
        commands["model.bin.history.tsv"] = commands["model.bin"]
        if output != "cooc.tsv":
            trained_model(workspace)
        target = workspace / output
        target.write_bytes(b"old\tbytes\n")
        before = sorted(os.listdir(workspace))
        real_replace = os.replace

        def replace(src, dst):
            if os.fspath(dst) == str(target):
                raise OSError(28, "No space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        capsys.readouterr()
        assert main(commands[output]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert target.read_bytes() == b"old\tbytes\n"
        assert sorted(os.listdir(workspace)) == before

    def test_missing_directory_names_the_target(self, workspace, capsys):
        out = workspace / "nowhere" / "cooc.tsv"
        assert main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"

    @pytest.mark.parametrize("command", ["build-cooc", "train", "export"])
    def test_directory_out_names_the_target(self, workspace, capsys, command):
        model = trained_model(workspace)
        out = workspace / "dd"
        out.mkdir()
        argv = {
            "build-cooc": ["build-cooc", "--relations", str(workspace / "relations.tsv")],
            "train": [
                "train", "--cooc", str(workspace / "cooc.tsv"), "--attrs", str(workspace / "attrs.tsv"),
                "--config", str(workspace / "config"),
            ],
            "export": ["export", "--model", str(model)],
        }[command]
        before = sorted(os.listdir(workspace))
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(out)!r}\n"
        assert sorted(os.listdir(workspace)) == before
        assert os.listdir(out) == []


class TestImports:
    def test_cli_loads_no_scipy(self):
        # A fresh interpreter, since this one has scipy loaded by the tests.
        src = os.path.dirname(os.path.dirname(os.path.abspath(phcle.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        code = "import sys, phcle, phcle.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"

    QUERY = ["phcle", "phcle.cli", "phcle.datamodel", "phcle.errors", "phcle.evaluation"]
    TRAIN = [
        "phcle", "phcle.cli", "phcle.datamodel", "phcle.descriptive", "phcle.errors", "phcle.ingest",
        "phcle.relational", "phcle.trainer",
    ]
    # The arguments of each command and the phcle modules (and subprocess)
    # it leaves loaded.
    COMMANDS = {
        "build-cooc": (
            ["build-cooc", "--relations", "relations.tsv", "--out", "out.tsv"],
            ["phcle", "phcle.cli", "phcle.datamodel", "phcle.errors", "phcle.ingest"],
        ),
        "train": (["train", "--cooc", "cooc.tsv", "--attrs", "attrs.tsv", "--config", "config", "--out", "m.bin"], TRAIN),
        "train --grid-search": (
            [
                "train", "--cooc", "cooc.tsv", "--attrs", "attrs.tsv", "--config", "config", "--out", "m.bin",
                "--grid-search", f"{shlex.quote(sys.executable)} -c 'print(1)'",
            ],
            [*TRAIN, "subprocess"],
        ),
        "retrieve": (["retrieve", "--model", "model.bin", "--query", "cat"], QUERY),
        "correlate": (["correlate", "--model", "model.bin", "--labels", "labels.txt", "--clusters", "2"], QUERY),
        "describe": (["describe", "--model", "model.bin", "--vector", "vec.txt"], QUERY),
        "export": (["export", "--model", "model.bin", "--out", "emb.txt"], ["phcle", "phcle.cli", "phcle.datamodel", "phcle.errors"]),
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_command_loads_only_the_modules_it_runs(self, workspace, command):
        trained_model(workspace)
        (workspace / "labels.txt").write_text("cat\ncow\ndog\n")
        (workspace / "vec.txt").write_text("1 0 0")
        argv, expected = self.COMMANDS[command]
        # A fresh interpreter; one grid value keeps the search to one fit.
        code = (
            "import sys, phcle.cli; phcle.cli.GRID_VALUES = (1.0,); code = phcle.cli.main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'phcle' or m == 'subprocess')); sys.exit(code)"
        )
        proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=workspace, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(expected)

    def test_public_names_are_those_of_their_modules(self):
        for name in phcle.__all__:
            value = getattr(phcle, name)
            assert value.__module__.startswith("phcle.")
            assert getattr(importlib.import_module(value.__module__), name) is value

    def test_dir_lists_the_public_names(self):
        assert set(phcle.__all__) <= set(dir(phcle))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="module 'phcle' has no attribute 'no_such_name'"):
            getattr(phcle, "no_such_name")

    # What the CLI and tests/test_acceptance.py use; nothing more is promised.
    PUBLIC = {
        "AttributeContext", "DivergenceError", "EmbeddingDescription", "EmbeddingModel",
        "GeneralizedVocabulary", "HistoryRecord", "HyperParams", "ParseError", "TrainingHistory",
        "UnsupportedVersionError", "VocabularyMaps", "cluster_order", "correlation_matrix",
        "describe_embedding", "hierarchy_to_relations", "load_attribute_table", "load_embeddings",
        "load_model", "retrieve_labels", "save_embeddings", "save_model", "train", "train_generalized",
    }
    # Reference code the tests keep in tests/reference.py, by former module.
    MOVED = {
        "datamodel": ("CooccurrenceMatrix", "GeneralizedEmbeddingModel", "init_model"),
        "ingest": ("RelationRecord", "build_cooccurrence", "load_relation_file"),
        "relational": ("softplus", "expected_cooccurrence"),
        "descriptive": ("elastic_net_objective",),
        "evaluation": ("cosine_similarity",),
    }

    def test_public_surface(self):
        assert len(phcle.__all__) == len(self.PUBLIC)
        assert set(phcle.__all__) == self.PUBLIC
        assert [name for name in phcle.__all__ if not hasattr(phcle, name)] == []

    @pytest.mark.parametrize("module", sorted(MOVED))
    def test_reference_code_is_not_shipped(self, module):
        layer = importlib.import_module(f"phcle.{module}")
        for name in self.MOVED[module]:
            assert not hasattr(layer, name)
            assert not hasattr(phcle, name)


class TestSharedAttributeNames:
    def test_only_describe_needs_distinct_attribute_names(self, workspace, capsys):
        cooc = workspace / "cooc.tsv"
        main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)])
        (workspace / "attrs2.tsv").write_text("label\tlegs\ndog\t4\n")
        (workspace / "config").write_text(FULL_CONFIG.replace("beta = 1", "beta = 0.5,0.5"))
        (workspace / "labels.txt").write_text("cat\ncow\ndog\n")
        (workspace / "vec.txt").write_text("1 0 0")
        model_path = str(workspace / "gen.bin")
        train_args = ["--attrs", str(workspace / "attrs.tsv"), "--attrs", str(workspace / "attrs2.tsv")]
        assert main(
            ["train", "--cooc", str(cooc), *train_args, "--config", str(workspace / "config"), "--out", model_path]
        ) == 0
        assert main(["retrieve", "--model", model_path, "--query", "cat"]) == 0
        assert main(["correlate", "--model", model_path, "--labels", str(workspace / "labels.txt")]) == 0
        assert main(["export", "--model", model_path, "--out", str(workspace / "emb.txt")]) == 0
        capsys.readouterr()
        assert main(["describe", "--model", model_path, "--vector", str(workspace / "vec.txt")]) == 2
        assert "collide" in capsys.readouterr().err


class TestGridSearch:
    SCORER = (
        "python3 -c \"import sys; from phcle.datamodel import load_model; "
        "m, v, h = load_model(sys.argv[1]); "
        "print(1 - abs(h.lambda1 - 0.1) - abs(h.lambda2 - 1.0) - abs(h.lambda3 - 0.01))\""
    )

    def test_picks_best_scoring_combination(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr("phcle.cli.GRID_VALUES", (0.01, 0.1, 1.0))
        cooc = workspace / "cooc.tsv"
        main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)])
        capsys.readouterr()
        model_path = workspace / "model.bin"
        code = main(
            [
                "train",
                "--cooc", str(cooc),
                "--attrs", str(workspace / "attrs.tsv"),
                "--config", str(workspace / "config"),
                "--out", str(model_path),
                "--grid-search", self.SCORER,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("grid: lambda1=") == 27
        assert "grid best: lambda1=0.1 lambda2=1 lambda3=0.01 score=1" in out
        _, _, hyper = load_model(model_path)
        assert (hyper.lambda1, hyper.lambda2, hyper.lambda3) == (0.1, 1.0, 0.01)

    def test_failing_scorer_exits_two(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr("phcle.cli.GRID_VALUES", (1.0,))
        cooc = workspace / "cooc.tsv"
        main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)])
        capsys.readouterr()
        code = main(
            [
                "train",
                "--cooc", str(cooc),
                "--attrs", str(workspace / "attrs.tsv"),
                "--config", str(workspace / "config"),
                "--out", str(workspace / "model.bin"),
                "--grid-search", "false",
            ]
        )
        assert code == 2
        assert "scoring command exited with" in capsys.readouterr().err

    def _train_with_scorer(self, workspace, scorer):
        cooc = workspace / "cooc.tsv"
        main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)])
        return main(
            [
                "train",
                "--cooc", str(cooc),
                "--attrs", str(workspace / "attrs.tsv"),
                "--config", str(workspace / "config"),
                "--out", str(workspace / "model.bin"),
                "--grid-search", scorer,
            ]
        )

    def test_success_removes_candidate_file(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr("phcle.cli.GRID_VALUES", (0.1, 1.0))
        assert self._train_with_scorer(workspace, "echo 1; true") == 0
        assert (workspace / "model.bin").exists()
        assert not (workspace / "model.bin.grid.tmp").exists()

    def test_failing_scorer_removes_candidate_file(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr("phcle.cli.GRID_VALUES", (1.0,))
        assert self._train_with_scorer(workspace, "false") == 2
        assert not (workspace / "model.bin.grid.tmp").exists()

    def test_non_numeric_scorer_exits_two(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr("phcle.cli.GRID_VALUES", (1.0,))
        cooc = workspace / "cooc.tsv"
        main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)])
        capsys.readouterr()
        code = main(
            [
                "train",
                "--cooc", str(cooc),
                "--attrs", str(workspace / "attrs.tsv"),
                "--config", str(workspace / "config"),
                "--out", str(workspace / "model.bin"),
                "--grid-search", "echo not-a-number",
            ]
        )
        assert code == 2
        assert "not a number" in capsys.readouterr().err

    def test_scorer_printing_nothing_exits_two(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr("phcle.cli.GRID_VALUES", (1.0,))
        assert self._train_with_scorer(workspace, "true") == 2
        assert capsys.readouterr().err == "error: scoring command printed no score\n"
        assert not (workspace / "model.bin").exists()

    def test_two_table_grid_search_picks_the_best_lambda1(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr("phcle.cli.GRID_VALUES", (0.01, 0.1, 1.0))
        cooc = workspace / "cooc.tsv"
        main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)])
        (workspace / "attrs2.tsv").write_text("label\tsize\ndog\t3\n")
        (workspace / "config").write_text(FULL_CONFIG.replace("beta = 1", "beta = 0.5,0.5"))
        capsys.readouterr()
        model_path = workspace / "model.bin"
        code = main(
            [
                "train",
                "--cooc", str(cooc),
                "--attrs", str(workspace / "attrs.tsv"),
                "--attrs", str(workspace / "attrs2.tsv"),
                "--config", str(workspace / "config"),
                "--out", str(model_path),
                "--grid-search", self.SCORER,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("grid: lambda1=") == 27
        assert "grid best: lambda1=0.1 lambda2=1 lambda3=0.01 score=1" in out
        assert model_path.read_bytes()[:6] == b"PHCLG1"
        model, _, hyper = load_model(model_path)
        assert len(model.Us) == 2
        assert (hyper.lambda1, hyper.lambda2, hyper.lambda3, hyper.beta) == (0.1, 1.0, 0.01, (0.5, 0.5))
        assert not (workspace / "model.bin.grid.tmp").exists()


class TestTablesMissingLabels:
    """train on a table that lists no label, or only one, of the three: the
    model matches a run of the old block, which solved over every label."""

    @pytest.mark.parametrize(
        "table", ["label\tlegs\ttail\n", "label\tlegs\ttail\ncow\t4\tNA\n"], ids=["header-only", "one-row"]
    )
    def test_train_matches_the_old_block(self, workspace, capsys, monkeypatch, table):
        (workspace / "attrs.tsv").write_text(table)
        cooc = workspace / "cooc.tsv"
        assert main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)]) == 0

        def train(out):
            argv = ["train", "--cooc", str(cooc), "--attrs", str(workspace / "attrs.tsv")]
            assert main(argv + ["--config", str(workspace / "config"), "--out", str(out)]) == 0
            model = load_model(out)[0]
            history = np.loadtxt(f"{out}.history.tsv", skiprows=1, ndmin=2)
            return (model.W, model.C, model.U), history

        got, history = train(workspace / "new.bin")
        monkeypatch.setattr(
            trainer, "DescriptiveBlock", lambda ctx, *a, **k: OldDescriptiveBlock(ctx.assoc, ctx.mask, *a, **k)
        )
        want, old_history = train(workspace / "old.bin")
        for factor, old in zip(got, want):
            assert np.max(np.abs(factor - old)) <= 1e-10 * np.max(np.abs(old))
        # iteration and FISTA iteration columns, then the objective terms
        assert np.array_equal(history[:, [0, 7]], old_history[:, [0, 7]])
        assert np.allclose(history[:, 1:7], old_history[:, 1:7], rtol=1e-12, atol=0.0)
        capsys.readouterr()
        assert main(["retrieve", "--model", str(workspace / "new.bin"), "--query", "cat", "--tsv"]) == 0
        assert sorted(line.split("\t")[0] for line in capsys.readouterr().out.splitlines()) == ["cow", "dog"]


class TestTrainAttributePaths:
    """train reads each table's header for the vocabulary, then loads the
    table: a pipe would be empty the second time, so it is refused."""

    def argv(self, workspace, attrs):
        cooc = workspace / "cooc.tsv"
        assert main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)]) == 0
        return [
            "train",
            "--cooc", str(cooc),
            "--attrs", str(attrs),
            "--config", str(workspace / "config"),
            "--out", str(workspace / "model.bin"),
        ]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_refused_with_the_reason(self, workspace, capsys):
        r, w = os.pipe()
        try:
            os.write(w, ATTRS.encode())
            os.close(w)
            argv = self.argv(workspace, f"/dev/fd/{r}")
            capsys.readouterr()
            assert main(argv) == 2
        finally:
            os.close(r)
        err = capsys.readouterr().err
        assert err.startswith(f"error: /dev/fd/{r}: --attrs needs a regular file: train reads each table twice")
        assert not (workspace / "model.bin").exists()

    def test_missing_table_is_an_io_error(self, workspace, capsys):
        argv = self.argv(workspace, workspace / "missing.tsv")
        capsys.readouterr()
        assert main(argv) == 1
        assert "missing.tsv" in capsys.readouterr().err
        assert not (workspace / "model.bin").exists()


class TestReadOnlyCommands:
    def test_retrieve_tsv_matches_library(self, workspace, capsys):
        model_path = trained_model(workspace)
        capsys.readouterr()
        assert main(["retrieve", "--model", str(model_path), "--query", "cat", "--topk", "2", "--tsv"]) == 0
        out = capsys.readouterr().out
        model, vocab, _ = load_model(model_path)
        expected = "".join(
            f"{name}\t{format_float(sim)}\n" for name, sim in retrieve_labels(model, vocab, "cat", topk=2)
        )
        assert out == expected

    def test_retrieve_human_table(self, workspace, capsys):
        model_path = trained_model(workspace)
        capsys.readouterr()
        assert main(["retrieve", "--model", str(model_path), "--query", "cat"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "query: cat"
        assert out[1].startswith("rank  label")
        assert len(out) == 4

    def test_retrieve_unknown_query_exits_two(self, workspace, capsys):
        model_path = trained_model(workspace)
        capsys.readouterr()
        assert main(["retrieve", "--model", str(model_path), "--query", "cst"]) == 2
        assert "nearest names: cat" in capsys.readouterr().err

    def test_correlate_tsv_matches_library(self, workspace, capsys):
        model_path = trained_model(workspace)
        labels = workspace / "labels.txt"
        labels.write_text("dog\ncat\n")
        capsys.readouterr()
        assert main(["correlate", "--model", str(model_path), "--labels", str(labels), "--clusters", "2", "--tsv"]) == 0
        out = capsys.readouterr().out
        model, vocab, _ = load_model(model_path)
        corr = correlation_matrix(model, vocab, ["dog", "cat"])
        assert out == correlation_to_tsv(["dog", "cat"], corr) + "\ndog\t0\ncat\t1\n"

    def test_correlate_human_output_mentions_order(self, workspace, capsys):
        model_path = trained_model(workspace)
        labels = workspace / "labels.txt"
        labels.write_text("cat\ncow\ndog\n")
        capsys.readouterr()
        assert main(["correlate", "--model", str(model_path), "--labels", str(labels), "--clusters", "2"]) == 0
        out = capsys.readouterr().out
        assert "order:" in out and "clusters:" in out

    def test_correlate_empty_label_file_exits_two(self, workspace, capsys):
        model_path = trained_model(workspace)
        labels = workspace / "labels.txt"
        labels.write_text("\n")
        capsys.readouterr()
        assert main(["correlate", "--model", str(model_path), "--labels", str(labels)]) == 2

    def test_describe_tsv_matches_library(self, workspace, capsys):
        model_path = trained_model(workspace)
        model, vocab, _ = load_model(model_path)
        vector = workspace / "vec.txt"
        vector.write_text(" ".join(format_float(x) for x in model.W[:, 0]))
        capsys.readouterr()
        assert main(
            ["describe", "--model", str(model_path), "--vector", str(vector), "--coverage", "0.9", "--tsv"]
        ) == 0
        out = capsys.readouterr().out
        desc = describe_embedding(model, vocab, model.W[:, 0], coverage=0.9, top_attrs=6)
        expected = "".join(f"related\t{n}\t{format_float(p)}\n" for n, p in desc.related)
        expected += "".join(f"attribute\t{n}\t{format_float(s)}\n" for n, s in desc.attributes)
        assert out == expected

    def test_describe_human_output_matches_library(self, workspace, capsys):
        model_path = trained_model(workspace)
        model, vocab, _ = load_model(model_path)
        vector = workspace / "vec.txt"
        vector.write_text(" ".join(format_float(x) for x in model.W[:, 0]))
        capsys.readouterr()
        assert main(["describe", "--model", str(model_path), "--vector", str(vector), "--top-attrs", "1"]) == 0
        out = capsys.readouterr().out
        desc = describe_embedding(model, vocab, model.W[:, 0], coverage=0.8, top_attrs=1)
        assert desc.related and len(desc.attributes) == 1
        expected = "related labels (coverage 0.8):\n"
        expected += "".join(f"  {n}  {p:.2f}%\n" for n, p in desc.related)
        expected += "top 1 attributes:\n"
        expected += "".join(f"  {n}  {s:.6f}\n" for n, s in desc.attributes)
        assert out == expected

    def test_describe_human_output_marks_empty_lists(self, workspace, capsys):
        model_path = trained_model(workspace)
        vector = workspace / "vec.txt"
        vector.write_text("0 0 0")
        capsys.readouterr()
        argv = ["describe", "--model", str(model_path), "--vector", str(vector), "--top-attrs", "0"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "related labels (coverage 0.8):\n  (none)\ntop 0 attributes:\n  (none)\n"

    def test_describe_wrong_vector_length_exits_two(self, workspace, capsys):
        model_path = trained_model(workspace)
        vector = workspace / "vec.txt"
        vector.write_text("1 2")
        capsys.readouterr()
        assert main(["describe", "--model", str(model_path), "--vector", str(vector)]) == 2

    def test_export_round_trips_vectors(self, workspace, capsys):
        model_path = trained_model(workspace)
        out_path = workspace / "emb.txt"
        capsys.readouterr()
        assert main(["export", "--model", str(model_path), "--out", str(out_path)]) == 0
        assert "wrote 3 vectors of dimension 3" in capsys.readouterr().out
        model, vocab, _ = load_model(model_path)
        table = load_embeddings(out_path)
        assert list(table) == list(vocab.labels)
        for j, name in enumerate(vocab.labels):
            np.testing.assert_array_equal(table[name], model.W[:, j])

    def test_missing_model_exits_one(self, tmp_path, capsys):
        assert main(["retrieve", "--model", str(tmp_path / "nope"), "--query", "x"]) == 1

    def test_corrupt_model_exits_two(self, workspace, capsys):
        bad = workspace / "bad.bin"
        bad.write_bytes(b"PHCLE1" + b"\x01")
        assert main(["retrieve", "--model", str(bad), "--query", "x"]) == 2
        assert capsys.readouterr().err == f"error: {bad}: truncated model file\n"

    def test_future_version_exits_two(self, workspace, capsys):
        model_path = trained_model(workspace)
        data = bytearray(model_path.read_bytes())
        data[5:6] = b"7"
        bad = workspace / "future.bin"
        bad.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["retrieve", "--model", str(bad), "--query", "cat"]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: model format version b'PHCLE7' not supported (expected b'PHCLE1')\n"
        )


class TestArgumentErrors:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["retrieve", "--model", "x", "--query", "y", "--frobnicate"]) == 2

    def test_missing_required_argument(self, capsys):
        assert main(["retrieve", "--query", "y"]) == 2
