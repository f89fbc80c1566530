import numpy as np
import pytest

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

    def test_grid_values(self):
        assert GRID_VALUES == (1e-2, 1e-1, 1.0, 1e1, 1e2)


class TestCoocRoundTrip:
    def test_write_read_identity(self, tmp_path):
        vocab = VocabularyMaps(labels=("a", "b"), contexts=("x", "y", "z"))
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
            labels=tuple(f"l{w}" for w in range(7)), contexts=tuple(f"c{c}" for c in range(9))
        )
        expected = []
        for c, context in enumerate(vocab.contexts):
            for w, label in enumerate(vocab.labels):
                if D[c, w] != 0.0:
                    expected.append(f"{context}\t{label}\t{format_float(D[c, w])}")
        path = tmp_path / "c.tsv"
        write_cooccurrence_tsv(path, vocab, D)
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")

    def test_writer_on_all_zero_counts_writes_empty_file(self, tmp_path):
        vocab = VocabularyMaps(labels=("a",), contexts=("x", "y"))
        path = tmp_path / "c.tsv"
        write_cooccurrence_tsv(path, vocab, np.zeros((2, 1)))
        assert path.read_bytes() == b""

    def test_duplicate_lines_accumulate(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("x\ta\t1\nx\ta\t2\n")
        _, D = read_cooccurrence_tsv(path)
        assert D[0, 0] == 3.0

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
        history = (str(model_path) + ".history.tsv")
        lines = open(history).read().splitlines()
        assert lines[0].startswith("iteration\tobjective")
        assert len(lines) == 4

    def test_retrain_is_byte_identical(self, workspace, capsys):
        first = trained_model(workspace)
        data_first = open(first, "rb").read()
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
        assert open(second, "rb").read() == data_first

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
        data = bytearray(open(model_path, "rb").read())
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
