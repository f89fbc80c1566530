import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import phcle
from phcle.cli import (
    CONFIG_DEFAULTS,
    GRID_VALUES,
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
)
from phcle.errors import ParseError
from phcle.ingest import build_cooccurrence, hierarchy_to_relations, load_relation_file
from phcle.evaluation import (
    correlation_matrix,
    correlation_to_tsv,
    describe_embedding,
    retrieve_labels,
)

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

    def test_documented_defaults_are_complete(self):
        hyper = HyperParams()
        assert float(CONFIG_DEFAULTS["lambda1"]) == hyper.lambda1
        assert float(CONFIG_DEFAULTS["lambda2"]) == hyper.lambda2
        assert float(CONFIG_DEFAULTS["lambda3"]) == hyper.lambda3
        assert int(CONFIG_DEFAULTS["k"]) == hyper.negative_samples
        assert int(CONFIG_DEFAULTS["dim"]) == hyper.dim
        assert int(CONFIG_DEFAULTS["outer_iters"]) == hyper.outer_iters
        assert int(CONFIG_DEFAULTS["inner_fista"]) == hyper.inner_max_iter
        assert float(CONFIG_DEFAULTS["step"]) == hyper.step_size
        assert float(CONFIG_DEFAULTS["epsilon"]) == hyper.tolerance
        assert CONFIG_DEFAULTS["init"] == hyper.init_scheme

    def test_empty_file_gives_every_default(self, tmp_path, capsys):
        path = tmp_path / "cfg"
        path.write_text("")
        assert load_config(path) == HyperParams()

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
        D = build_cooccurrence(hierarchy_to_relations(edges, radius=radius, decay=decay), vocab).values
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
        assert capsys.readouterr().err == f"error: {relations}: {decode_error(relations)}\n"
        assert not out.exists()


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
        assert capsys.readouterr().err == f"error: {cooc}: {decode_error(cooc)}\n"
        assert not (workspace / "model.bin").exists()

    def test_bad_cooc_line_keeps_its_line_number(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("x\ta\t1\n\ty\t1\nx\ta\tmany\n")
        with pytest.raises(ParseError) as err:
            read_cooccurrence_tsv(path)
        assert str(err.value) == f"{path}:3: non-numeric count 'many'"


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


class TestImports:
    def test_cli_loads_no_scipy(self):
        # A fresh interpreter, since this one has scipy loaded by the tests.
        src = os.path.dirname(os.path.dirname(os.path.abspath(phcle.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        code = "import sys, phcle, phcle.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"


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

    def test_grid_search_rejects_generalized_runs(self, workspace, capsys):
        cooc = workspace / "cooc.tsv"
        main(["build-cooc", "--relations", str(workspace / "relations.tsv"), "--out", str(cooc)])
        (workspace / "attrs2.tsv").write_text("label\tsize\ndog\t3\n")
        (workspace / "config").write_text(FULL_CONFIG.replace("beta = 1", "beta = 0.5,0.5"))
        code = main(
            [
                "train",
                "--cooc", str(cooc),
                "--attrs", str(workspace / "attrs.tsv"),
                "--attrs", str(workspace / "attrs2.tsv"),
                "--config", str(workspace / "config"),
                "--out", str(workspace / "model.bin"),
                "--grid-search", "true",
            ]
        )
        assert code == 2
        assert "single descriptive context" in capsys.readouterr().err


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

    def test_future_version_exits_two(self, workspace, capsys):
        model_path = trained_model(workspace)
        data = bytearray(model_path.read_bytes())
        data[5:6] = b"7"
        bad = workspace / "future.bin"
        bad.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["retrieve", "--model", str(bad), "--query", "cat"]) == 2
        assert "version" in capsys.readouterr().err


class TestArgumentErrors:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["retrieve", "--model", "x", "--query", "y", "--frobnicate"]) == 2

    def test_missing_required_argument(self, capsys):
        assert main(["retrieve", "--query", "y"]) == 2
