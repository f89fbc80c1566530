import dataclasses
import hashlib
import os
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from phcle.cli import main
from phcle.datamodel import (
    AttributeContext,
    EmbeddingModel,
    GeneralizedVocabulary,
    HyperParams,
    VocabularyMaps,
    _atomic_open,
    format_float,
    load_embeddings,
    load_model,
    parse_init_scheme,
    save_embeddings,
    save_model,
)
from phcle.errors import ParseError, UnsupportedVersionError
from reference import CooccurrenceMatrix, GeneralizedEmbeddingModel, init_model


def small_vocab():
    return VocabularyMaps(
        labels=("cat", "dog", "horse"),
        context_lists=(("farm", "home"),),
        attribute_lists=(("furry", "big"),),
    )


class TestVocabularyMaps:
    def test_name_index_round_trip(self):
        vocab = small_vocab()
        for i, name in enumerate(vocab.labels):
            assert vocab.label_index(name) == i

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="label 'pig' unknown"):
            small_vocab().label_index("pig")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            VocabularyMaps(labels=("a", "a"), context_lists=(("x",),))

    def test_tab_in_name_rejected(self):
        with pytest.raises(ValueError):
            VocabularyMaps(labels=("a\tb",), context_lists=(("x",),))

    @pytest.mark.parametrize(
        "labels,contexts,message",
        [
            (("a", "", "b\tc"), ("x",), "empty label name"),
            (("a", "b\rc", ""), ("x",), "label name 'b\\rc' contains a tab or newline"),
            (("a\nb",), ("x",), "label name 'a\\nb' contains a tab or newline"),
            (("a", "b"), ("x", "y\tz", ""), "context name 'y\\tz' contains a tab or newline"),
            (("a b", "\u3000c", "d\x1ce"), ("x y",), None),
        ],
    )
    def test_names_checked_at_once_word_the_first_bad_name(self, labels, contexts, message):
        # One scan covers each list; the error still names the first bad
        # name as the per-name check words it.
        if message is None:
            assert VocabularyMaps(labels=labels, context_lists=(contexts,)).labels == labels
        else:
            with pytest.raises(ValueError) as err:
                VocabularyMaps(labels=labels, context_lists=(contexts,))
            assert str(err.value) == message


class TestMatrixTypes:
    def test_cooccurrence_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            CooccurrenceMatrix(values=[[1.0, -1.0]])

    def test_cooccurrence_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            CooccurrenceMatrix(values=[[np.inf]])

    def test_values_are_read_only(self):
        D = CooccurrenceMatrix(values=[[1.0, 2.0]])
        with pytest.raises(ValueError):
            D.values[0, 0] = 3.0

    def test_mask_must_be_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            AttributeContext(assoc=[[1.0]], mask=[[0.5]])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.uint8, bool])
    def test_mask_is_kept_as_a_read_only_bool_array(self, dtype):
        given = np.array([[1, 0], [0, 1]], dtype=dtype)
        ctx = AttributeContext(assoc=[[1.0, np.nan], [np.inf, 2.0]], mask=given)
        assert ctx.mask.dtype == bool and not ctx.mask.flags.writeable
        assert ctx.mask.tolist() == [[True, False], [False, True]]
        with pytest.raises(ValueError):
            ctx.mask[0, 0] = False
        assert ctx.mask is not given

    @pytest.mark.parametrize("value", [0.5, np.nan, 2, np.inf])
    def test_mask_other_than_zero_or_one_is_rejected(self, value):
        with pytest.raises(ValueError, match="^mask entries must be 0 or 1$"):
            AttributeContext(assoc=[[1.0, 2.0]], mask=[[1.0, value]])

    def test_masked_entries_may_be_non_finite(self):
        ctx = AttributeContext(assoc=[[np.nan, 2.0]], mask=[[0.0, 1.0]])
        assert ctx.mask[0, 0] == 0.0

    def test_observed_entries_must_be_finite(self):
        with pytest.raises(ValueError, match="non-finite observed"):
            AttributeContext(assoc=[[np.nan]], mask=[[1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            AttributeContext(assoc=[[1.0, 2.0]], mask=[[1.0]])

    def test_names_are_kept_as_a_tuple_one_per_column(self):
        assert AttributeContext(assoc=[[1.0, 2.0]], mask=[[1, 1]]).names == ()
        ctx = AttributeContext([[1.0, 2.0]], [[1, 1]], ["legs", "tail"])
        assert ctx.names == ("legs", "tail") and type(ctx.names) is tuple
        for names in (["legs"], ["legs", "tail", "size"]):
            with pytest.raises(ValueError, match=f"^{len(names)} column names for 2 attribute columns$"):
                AttributeContext([[1.0, 2.0]], [[1, 1]], names)

    @pytest.mark.parametrize("placeholder", [0.0, -0.0, np.nan, np.inf, -np.inf, 1e308])
    def test_unobserved_cells_are_stored_as_positive_zeros(self, placeholder):
        assoc = np.array([[1.5, placeholder], [placeholder, -0.0]], order="F")
        ctx = AttributeContext(assoc=assoc, mask=[[1, 0], [0, 1]])
        assert ctx.assoc.tobytes() == np.array([[1.5, 0.0], [0.0, -0.0]]).tobytes()
        assert ctx.assoc.flags.c_contiguous and not ctx.assoc.flags.writeable
        assert not np.shares_memory(ctx.assoc, assoc) and np.isnan(assoc[0, 1]) == np.isnan(placeholder)

    def test_context_peaks_at_its_copies_and_one_mask(self):
        # A 4000 x 150 table: the context holds one float64 copy of assoc
        # and one bool copy of the mask, and only the negated mask that
        # finds the unobserved cells is alive beside them.
        rng = np.random.default_rng(6)
        assoc = rng.standard_normal((4000, 150))
        mask = rng.uniform(size=assoc.shape) < 0.6
        assoc[~mask] = np.nan
        tracemalloc.start()
        try:
            ctx = AttributeContext(assoc=assoc, mask=mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(ctx.assoc).all()
        assert peak <= assoc.nbytes + 2 * mask.nbytes + 64 * 2**10


class TestModelShapes:
    def test_validator_accepts_consistent_model(self):
        vocab = small_vocab()
        model = init_model(vocab, dim=4, seed=3)
        model.check_shapes(vocab)

    def test_validator_rejects_wrong_widths(self):
        vocab = small_vocab()
        model = init_model(vocab, dim=4, seed=3)
        other = VocabularyMaps(labels=("a",), context_lists=(vocab.contexts,), attribute_lists=(vocab.attributes,))
        with pytest.raises(ValueError, match="factor W"):
            model.check_shapes(other)

    def test_dim_row_agreement(self):
        with pytest.raises(ValueError, match="rows"):
            EmbeddingModel(W=np.ones((2, 3)), Cs=(np.ones((3, 2)),), Us=(np.ones((2, 1)),), dim=2)


class TestInitModel:
    def test_ones(self):
        model = init_model(small_vocab(), dim=2, scheme="ones")
        assert np.all(model.W == 1.0) and np.all(model.C == 1.0) and np.all(model.U == 1.0)

    def test_uniform_bounds_and_determinism(self):
        vocab = small_vocab()
        a = init_model(vocab, dim=6, scheme="uniform_random(0.25)", seed=11)
        b = init_model(vocab, dim=6, scheme="uniform_random(0.25)", seed=11)
        for x, y in ((a.W, b.W), (a.C, b.C), (a.U, b.U)):
            assert np.array_equal(x, y)
            assert np.all(np.abs(x) <= 0.25)

    def test_different_seeds_differ(self):
        vocab = small_vocab()
        a = init_model(vocab, dim=6, seed=1)
        b = init_model(vocab, dim=6, seed=2)
        assert not np.array_equal(a.W, b.W)

    def test_zero_scale_gives_zeros(self):
        model = init_model(small_vocab(), dim=2, scheme="uniform_random(0)")
        assert np.all(model.W == 0.0)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            init_model(small_vocab(), dim=0)

    def test_empty_vocabulary(self):
        with pytest.raises(ValueError, match="at least one label"):
            init_model(VocabularyMaps(labels=(), context_lists=(("x",),)), dim=2)

    def test_bad_scheme(self):
        with pytest.raises(ValueError, match="init scheme"):
            init_model(small_vocab(), dim=2, scheme="gaussian(1)")

    def test_scheme_parser(self):
        assert parse_init_scheme("ones") == ("ones", 0.0)
        assert parse_init_scheme("uniform_random(0.5)") == ("uniform_random", 0.5)
        with pytest.raises(ValueError):
            parse_init_scheme("uniform_random(-1)")


class TestHyperParams:
    def test_defaults_valid(self):
        hyper = HyperParams()
        assert hyper.negative_samples == 10
        assert hyper.outer_iters == 50
        assert hyper.inner_max_iter == 50
        assert hyper.step_size == 1e-5
        assert hyper.tolerance == 1e-4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda2": -0.1},
            {"step_size": 0.0},
            {"tolerance": 0.0},
            {"outer_iters": 0},
            {"negative_samples": -1},
            {"alpha": (0.5, 0.6)},
            {"alpha": (-0.5, 1.5)},
            {"beta": (0.9,)},
            {"init_scheme": "nope"},
            {"lambda1": np.nan},
            {"lambda3": np.inf},
            {"step_size": np.inf},
            {"tolerance": np.nan},
            {"alpha": (np.nan,)},
            {"beta": (0.5, np.inf)},
            {"seed": -1},
            {"init_scheme": "uniform_random(1e308)"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            HyperParams(**kwargs)

    @pytest.mark.parametrize(
        "name", ["negative_samples", "outer_iters", "inner_steps_c", "inner_steps_w", "inner_max_iter", "seed", "dim"]
    )
    def test_int64_fields_take_only_integers(self, name):
        # A model file stores each as an int64, so 2.5 would train a whole
        # run and then fail to save.
        for value in (2.5, 3.0, np.float64(3.0), "3", None):
            with pytest.raises(ValueError) as err:
                HyperParams(**{name: value})
            assert str(err.value) == f"{name} must be an integer, got {value!r}"
        for value in (3, np.int64(3), np.uint8(3)):
            assert getattr(HyperParams(**{name: value}), name) == 3

    @pytest.mark.parametrize("name", ["lambda1", "lambda2", "lambda3", "step_size", "tolerance"])
    def test_float64_fields_take_only_numbers(self, name):
        for value in ("0.5", None, [0.5], 1j, b"1"):
            with pytest.raises(ValueError) as err:
                HyperParams(**{name: value})
            assert str(err.value) == f"{name} must be a number, got {value!r}"
        # An int past the float64 range, which float() cannot convert.
        for value in (10**400, -(10**400), 10**5000, Fraction(10**400)):
            with pytest.raises(ValueError) as err:
                HyperParams(**{name: value})
            assert str(err.value) == f"{name} is out of the float64 range"
        for value in (0.5, np.float64(0.5), np.float32(0.5), Fraction(1, 2)):
            assert getattr(HyperParams(**{name: value}), name) == 0.5
        for value in (1, np.int64(1)):
            assert getattr(HyperParams(**{name: value}), name) == 1

    def test_init_scheme_takes_only_a_string(self):
        for value in (3, None, b"ones"):
            with pytest.raises(ValueError) as err:
                HyperParams(init_scheme=value)
            assert str(err.value) == f"init_scheme must be a string, got {value!r}"

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_weights_take_only_a_sequence_of_numbers(self, name):
        for value in ("1", b"\x01", 1.0, None, ("1",), (None,), (0.5, "0.5")):
            with pytest.raises(ValueError) as err:
                HyperParams(**{name: value})
            assert str(err.value) == f"{name} must be a sequence of numbers, got {value!r}"
        for value in ((10**400,), (0.5, -(10**400)), (Fraction(10**400),)):
            with pytest.raises(ValueError) as err:
                HyperParams(**{name: value})
            assert str(err.value) == f"{name} weight is out of the float64 range"
        for value in ([1], (np.float64(1.0),), np.array([0.25, 0.75]), (Fraction(1, 2), np.int8(0), 0.5)):
            weights = getattr(HyperParams(**{name: value}), name)
            assert weights == tuple(float(v) for v in value)
            assert all(type(w) is float for w in weights)
        assert getattr(HyperParams(**{name: (w for w in (0.5, 0.5))}), name) == (0.5, 0.5)


class TestTextEmbeddings:
    def test_zero_vector_file_layout(self, tmp_path):
        # one label, two dims, all-zero vector
        vocab = VocabularyMaps(labels=("cat",), context_lists=(("x",),), attribute_lists=((),))
        model = init_model(vocab, dim=2, scheme="uniform_random(0)")
        path = tmp_path / "emb.txt"
        save_embeddings(model, vocab.labels, path)
        assert path.read_text() == "1 2\ncat 0 0\n"

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        vocab = VocabularyMaps(labels=("cat", "dog", "horse"), context_lists=(("x",),))
        model = EmbeddingModel(
            W=rng.standard_normal((4, 3)) * 1e3,
            Cs=(rng.standard_normal((4, 1)),),
            Us=(np.zeros((4, 0)),),
            dim=4,
        )
        path = tmp_path / "emb.txt"
        save_embeddings(model, vocab.labels, path)
        table = load_embeddings(path)
        assert list(table) == list(vocab.labels)
        for j, name in enumerate(vocab.labels):
            assert np.array_equal(table[name], model.W[:, j])

    def test_bytes_match_the_per_value_formatter(self, tmp_path):
        # Each label's row comes from W.T.tolist(); its text is that of the
        # np.float64 values formatted one at a time, as they were before.
        W = np.array([[1.0, 1e16], [-0.0, 1e-300], [5e-324, np.pi]])
        model = EmbeddingModel(W=W, Cs=(np.zeros((3, 1)),), Us=(np.zeros((3, 0)),), dim=3)
        path = tmp_path / "emb.txt"
        save_embeddings(model, ("a", "b"), path)
        old = "2 3\n" + "".join(
            f"{name} {' '.join(format_float(v) for v in W[:, j])}\n" for j, name in enumerate("ab")
        )
        assert path.read_bytes() == old.encode()
        assert old == "2 3\na 1 -0 5e-324\nb 1e+16 1e-300 3.141592653589793\n"

    def test_whitespace_name_rejected(self, tmp_path):
        model = init_model(VocabularyMaps(labels=("a",), context_lists=(("x",),)), dim=1)
        with pytest.raises(ValueError, match="whitespace"):
            save_embeddings(model, ("a b",), tmp_path / "emb.txt")

    @pytest.mark.parametrize(
        "labels,message",
        [
            (("a", "b\u3000c", "d\te"), "label name 'b\\u3000c' contains whitespace, not storable in text format"),
            (("a", "d\te", "b c"), "label name 'd\\te' contains a tab or newline"),
            (("a", "", "b c"), "empty label name"),
            (("a", "b\x1cc", "d"), "label name 'b\\x1cc' contains whitespace, not storable in text format"),
        ],
    )
    def test_names_checked_at_once_word_the_first_bad_name(self, tmp_path, labels, message):
        vocab = VocabularyMaps(labels=tuple(f"l{i}" for i in range(len(labels))), context_lists=(("x",),))
        with pytest.raises(ValueError) as err:
            save_embeddings(init_model(vocab, dim=1), labels, tmp_path / "emb.txt")
        assert str(err.value) == message
        assert not (tmp_path / "emb.txt").exists()

    def test_missing_row_reports_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\ncat 1 2 3\n")
        with pytest.raises(ParseError) as err:
            load_embeddings(path)
        assert err.value.line == 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3\n")
        with pytest.raises(ParseError) as err:
            load_embeddings(path)
        assert err.value.line == 1

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\ncat 1 x\n")
        with pytest.raises(ParseError) as err:
            load_embeddings(path)
        assert err.value.line == 2

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\ncat 1 2\ndog 1\n")
        with pytest.raises(ParseError) as err:
            load_embeddings(path)
        assert err.value.line == 3

    def test_undecodable_byte_names_the_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"1 2\nd\xffg 1 2\n")
        with pytest.raises(ParseError, match="'utf-8' codec can't decode byte 0xff") as err:
            load_embeddings(path)
        assert (err.value.path, err.value.line) == (path, 2)
        assert str(err.value).startswith(f"{path}:2: ")


def test_format_float_round_trips():
    rng = np.random.default_rng(9)
    values = [0.0, -0.0, 1.0, 1e-300, -2.5e17, np.pi]
    values += list(rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50))
    for v in values:
        assert float(format_float(v)) == v


class TestBinaryModel:
    def make(self, seed=0):
        vocab = small_vocab()
        rng = np.random.default_rng(seed)
        model = EmbeddingModel(
            W=rng.standard_normal((5, 3)),
            Cs=(rng.standard_normal((5, 2)),),
            Us=(rng.standard_normal((5, 2)),),
            dim=5,
        )
        hyper = HyperParams(lambda1=0.3, lambda2=0.7, seed=42, dim=5)
        return model, vocab, hyper

    def test_round_trip_bitwise(self, tmp_path):
        model, vocab, hyper = self.make()
        path = tmp_path / "m.bin"
        save_model(path, model, vocab, hyper)
        loaded, loaded_vocab, loaded_hyper = load_model(path)
        assert np.array_equal(loaded.W, model.W)
        assert np.array_equal(loaded.C, model.C)
        assert np.array_equal(loaded.U, model.U)
        assert loaded_vocab == vocab
        assert loaded_hyper == hyper

    def test_save_load_save_identical_bytes(self, tmp_path):
        model, vocab, hyper = self.make(3)
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        save_model(first, model, vocab, hyper)
        loaded = load_model(first)
        save_model(second, *loaded)
        assert first.read_bytes() == second.read_bytes()

    def test_unsupported_version(self, tmp_path):
        model, vocab, hyper = self.make()
        path = tmp_path / "m.bin"
        save_model(path, model, vocab, hyper)
        data = bytearray(path.read_bytes())
        data[5:6] = b"2"
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersionError):
            load_model(path)

    def test_garbage_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOTFMT" + b"\0" * 64)
        with pytest.raises(ParseError, match="magic"):
            load_model(path)

    def test_truncation_never_partial(self, tmp_path):
        model, vocab, hyper = self.make()
        path = tmp_path / "m.bin"
        save_model(path, model, vocab, hyper)
        data = path.read_bytes()
        clipped = tmp_path / "clipped.bin"
        for cut in (7, 40, len(data) // 2, len(data) - 1):
            clipped.write_bytes(data[:cut])
            with pytest.raises(ParseError, match="truncated"):
                load_model(clipped)

    def test_load_peaks_near_twice_the_file(self, tmp_path):
        # The file's bytes and each factor's frozen copy: the factors are
        # read as views of the bytes, with no slice of them in between. The
        # shape is the dense benchmark model's, 3.3 MB.
        rng = np.random.default_rng(4)
        vocab = VocabularyMaps(
            labels=tuple(f"l{i}" for i in range(2000)),
            context_lists=(tuple(f"c{i}" for i in range(2000)),),
            attribute_lists=(tuple(f"a{i}" for i in range(50)),),
        )
        factors = [rng.standard_normal((100, n)) for n in (2000, 2000, 50)]
        model = EmbeddingModel(W=factors[0], Cs=(factors[1],), Us=(factors[2],), dim=100)
        path = tmp_path / "m.bin"
        save_model(path, model, vocab, HyperParams(dim=100))
        tracemalloc.start()
        try:
            loaded = load_model(path)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * path.stat().st_size
        assert np.array_equal(loaded.W, model.W) and loaded.W.flags.owndata

    def test_trailing_bytes_rejected(self, tmp_path):
        model, vocab, hyper = self.make()
        path = tmp_path / "m.bin"
        save_model(path, model, vocab, hyper)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ParseError, match="trailing"):
            load_model(path)

    def test_generalized_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        model = GeneralizedEmbeddingModel(
            W=rng.standard_normal((3, 4)),
            Cs=(rng.standard_normal((3, 2)), rng.standard_normal((3, 5))),
            Us=(rng.standard_normal((3, 1)),),
            dim=3,
        )
        vocab = GeneralizedVocabulary(
            labels=("a", "b", "c", "d"),
            context_lists=(("x", "y"), ("p", "q", "r", "s", "t")),
            attribute_lists=(("fur",),),
        )
        hyper = HyperParams(alpha=(0.25, 0.75), dim=3)
        path = tmp_path / "g.bin"
        save_model(path, model, vocab, hyper)
        loaded, loaded_vocab, loaded_hyper = load_model(path)
        assert isinstance(loaded, GeneralizedEmbeddingModel)
        assert np.array_equal(loaded.W, model.W)
        for got, expected in zip(loaded.Cs, model.Cs):
            assert np.array_equal(got, expected)
        for got, expected in zip(loaded.Us, model.Us):
            assert np.array_equal(got, expected)
        assert loaded_vocab == vocab
        assert loaded_hyper == hyper


def hyper_block(hyper: HyperParams, **changes) -> bytes:
    """The hyperparameter block that ends a model file, written field by
    field so that it can hold values ``HyperParams`` rejects."""
    v = {**dataclasses.asdict(hyper), **changes}
    out = struct.pack("<5d", *(v[k] for k in ("lambda1", "lambda2", "lambda3", "step_size", "tolerance")))
    out += struct.pack(
        "<7q",
        *(v[k] for k in ("negative_samples", "outer_iters", "inner_steps_c", "inner_steps_w",
                         "inner_max_iter", "seed", "dim")),
    )
    init = v["init_scheme"].encode()
    out += struct.pack("<Q", len(init)) + init
    for weights in (v["alpha"], v["beta"]):
        out += struct.pack(f"<Q{len(weights)}d", len(weights), *weights)
    return out


def with_hyper(data: bytes, hyper: HyperParams, **changes) -> bytes:
    good = hyper_block(hyper)
    assert data.endswith(good)
    return data[: -len(good)] + hyper_block(hyper, **changes)


# Well-framed PHCLE1 files (dim 5; labels cat, dog, horse; 2 contexts and
# 2 attributes) edited to hold a value the model types reject, and the
# message the load reports after the path.
BAD_PAYLOADS = {
    "non-finite factor": (
        lambda data, hyper: data[:38] + struct.pack("<d", np.nan) + data[46:],
        "factor W contains non-finite entries",
    ),
    "tab in a name": (lambda data, hyper: data.replace(b"dog", b"d\tg"), "label name 'd\\tg' contains a tab or newline"),
    "duplicate names": (lambda data, hyper: data.replace(b"dog", b"cat"), "duplicate label names"),
    "dim 0": (
        lambda data, hyper: b"PHCLE1" + struct.pack("<4Q", 0, 3, 2, 2) + data[38 + 8 * 5 * 7 :],
        "embedding dimension must be >= 1",
    ),
    "negative lambda": (lambda data, hyper: with_hyper(data, hyper, lambda2=-0.5), "lambda2 must be >= 0"),
    "alpha not summing to 1": (
        lambda data, hyper: with_hyper(data, hyper, alpha=(0.5,)),
        "alpha weights must sum to 1, got 0.5",
    ),
    "nan lambda": (lambda data, hyper: with_hyper(data, hyper, lambda1=np.nan), "lambda1 must be finite, got nan"),
    "infinite step": (lambda data, hyper: with_hyper(data, hyper, step_size=np.inf), "step_size must be finite, got inf"),
    "nan tolerance": (lambda data, hyper: with_hyper(data, hyper, tolerance=np.nan), "tolerance must be finite, got nan"),
    "nan alpha weight": (
        lambda data, hyper: with_hyper(data, hyper, alpha=(np.nan,)),
        "alpha weights must be finite, got (nan,)",
    ),
    "infinite beta weight": (
        lambda data, hyper: with_hyper(data, hyper, beta=(np.inf,)),
        "beta weights must be finite, got (inf,)",
    ),
    "negative seed": (lambda data, hyper: with_hyper(data, hyper, seed=-1), "seed must be >= 0"),
    "init range overflows": (
        lambda data, hyper: with_hyper(data, hyper, init_scheme="uniform_random(1e308)"),
        "init scale too large in 'uniform_random(1e308)': the width 2*scale of [-scale, scale] overflows",
    ),
    # a ParseError raised inside the hyperparameter block keeps its one prefix
    "truncated hyperparameters": (lambda data, hyper: data[:-4], "truncated model file"),
}


@pytest.mark.parametrize("case", BAD_PAYLOADS)
def test_bad_model_payload_is_a_parse_error(tmp_path, capsys, case):
    model, vocab, hyper = TestBinaryModel().make()
    good = tmp_path / "good.bin"
    save_model(good, model, vocab, hyper)
    edit, message = BAD_PAYLOADS[case]
    path = tmp_path / "bad.bin"
    path.write_bytes(edit(good.read_bytes(), hyper))
    with pytest.raises(ParseError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: {message}"
    assert err.value.path == path
    assert main(["retrieve", "--model", str(path), "--query", "cat"]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def name_table(*names) -> bytes:
    """A name table as a model file stores it."""
    return struct.pack("<Q", len(names)) + b"".join(struct.pack("<Q", len(n)) + n.encode() for n in names)


# Well-framed model files whose name tables disagree with the header or
# with a factor's width: the PHCLE1 file of TestBinaryModel and a PHCLG1
# file with two relational and one descriptive context, each with one
# table edited, and the message the load reports after the path.
BAD_NAME_TABLES = {
    "PHCLE1 labels": (False, name_table("cat", "dog", "horse"), name_table("cat", "dog"),
                      "name table sizes disagree with header"),
    "PHCLG1 labels": (True, name_table("a", "b", "c", "d"), name_table("a", "b", "c"),
                      "label table size disagrees with header"),
    "PHCLG1 contexts": (True, name_table("x", "y"), name_table("x"),
                        "context table size disagrees with factor width"),
    "PHCLG1 attributes": (True, name_table("fur"), name_table("fur", "big"),
                          "attribute table size disagrees with factor width"),
}


@pytest.mark.parametrize("case", BAD_NAME_TABLES)
def test_name_table_that_disagrees_is_a_parse_error(tmp_path, capsys, case):
    general, table, edited, message = BAD_NAME_TABLES[case]
    if general:
        rng = np.random.default_rng(8)
        model = EmbeddingModel(
            W=rng.standard_normal((3, 4)),
            Cs=(rng.standard_normal((3, 2)), rng.standard_normal((3, 5))),
            Us=(rng.standard_normal((3, 1)),),
            dim=3,
        )
        vocab = VocabularyMaps(("a", "b", "c", "d"), (("x", "y"), ("p", "q", "r", "s", "t")), (("fur",),))
        hyper = HyperParams(alpha=(0.25, 0.75), dim=3)
    else:
        model, vocab, hyper = TestBinaryModel().make()
    good = tmp_path / "good.bin"
    save_model(good, model, vocab, hyper)
    data = good.read_bytes()
    assert data.count(table) == 1
    path = tmp_path / "bad.bin"
    path.write_bytes(data.replace(table, edited))
    assert main(["retrieve", "--model", str(path), "--query", vocab.labels[0]]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def two_context_model():
    """A PHCLG1 model: two relational contexts (widths 2 and 1), one
    descriptive context."""
    rng = np.random.default_rng(9)
    model = EmbeddingModel(
        W=rng.standard_normal((3, 4)),
        Cs=(rng.standard_normal((3, 2)), rng.standard_normal((3, 1))),
        Us=(rng.standard_normal((3, 1)),),
        dim=3,
    )
    vocab = VocabularyMaps(("a", "b", "c", "d"), (("x", "y"), ("p",)), (("fur",),))
    return model, vocab, HyperParams(alpha=(0.5, 0.5), dim=3)


# Model files with one count read from the file set far past its end: the
# PHCLE1 file of TestBinaryModel or the PHCLG1 file of two_context_model,
# the bytes that hold the count, and those bytes with the count n. A count
# goes into a struct format or an array size only after the reader has
# checked it against the bytes left.
HUGE_COUNTS = {
    "weight count": (False, struct.pack("<QdQd", 1, 1.0, 1, 1.0), lambda n: struct.pack("<QdQd", n, 1.0, 1, 1.0)),
    "name-table count": (False, name_table("cat", "dog", "horse"),
                         lambda n: struct.pack("<Q", n) + name_table("cat", "dog", "horse")[8:]),
    "name length": (False, struct.pack("<Q", 3) + b"dog", lambda n: struct.pack("<Q", n) + b"dog"),
    "PHCLG1 factor width": (True, name_table("a", "b", "c", "d") + struct.pack("<Q", 2),
                            lambda n: name_table("a", "b", "c", "d") + struct.pack("<Q", n)),
}


@pytest.mark.parametrize("count", [2**64 - 1, 2**61], ids=["2**64-1", "2**61"])
@pytest.mark.parametrize("case", HUGE_COUNTS)
def test_huge_count_is_a_truncated_file(tmp_path, capsys, case, count):
    general, held, edited = HUGE_COUNTS[case]
    model, vocab, hyper = two_context_model() if general else TestBinaryModel().make()
    good = tmp_path / "good.bin"
    save_model(good, model, vocab, hyper)
    data = good.read_bytes()
    assert data.count(held) == 1
    path = tmp_path / "bad.bin"
    path.write_bytes(data.replace(held, edited(count)))
    with pytest.raises(ParseError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: truncated model file"
    assert main(["retrieve", "--model", str(path), "--query", vocab.labels[0]]) == 2
    assert capsys.readouterr().err == f"error: {path}: truncated model file\n"


class TestAtomicWrites:
    def test_failure_mid_write_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_bytes(b"old contents\n")
        with pytest.raises(RuntimeError, match="disk gone"):
            with _atomic_open(target) as fh:
                fh.write("new con")
                fh.flush()
                raise RuntimeError("disk gone")
        assert target.read_bytes() == b"old contents\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_replaces_the_target_whole(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"a much longer old payload")
        with _atomic_open(target, "wb") as fh:
            fh.write(b"new")
        assert target.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_new_file_mode_follows_umask(self, tmp_path):
        model, vocab, hyper = TestBinaryModel().make()
        previous = os.umask(0o027)
        try:
            save_model(tmp_path / "m.bin", model, vocab, hyper)
        finally:
            os.umask(previous)
        assert os.stat(tmp_path / "m.bin").st_mode & 0o777 == 0o640


class TestMultiContextVocabulary:
    @pytest.mark.parametrize("field", ["context_lists", "attribute_lists"])
    @pytest.mark.parametrize(
        "bad_list,fragment",
        [(("p", ""), "empty"), (("p", "q\tr"), "tab"), (("p", "p"), "duplicate")],
    )
    def test_second_list_is_validated(self, field, bad_list, fragment):
        lists = {"context_lists": (("x",), ("y",)), "attribute_lists": (("fur",), ("size",))}
        lists[field] = (lists[field][0], bad_list)
        with pytest.raises(ValueError, match=fragment):
            VocabularyMaps(labels=("a", "b"), **lists)

    def test_single_context_views(self):
        vocab = VocabularyMaps(labels=("a",), context_lists=(("x", "y"),), attribute_lists=(("p",), ("q", "r")))
        assert vocab.contexts == ("x", "y")
        assert vocab.attributes == ("p", "q", "r")

    def test_several_context_lists_have_no_flat_view(self):
        vocab = VocabularyMaps(labels=("a",), context_lists=(("x",), ("y",)))
        with pytest.raises(ValueError, match="2 context lists"):
            vocab.contexts

    def test_colliding_attribute_names_only_fail_the_flat_view(self):
        vocab = VocabularyMaps(labels=("a",), context_lists=(("x",),), attribute_lists=(("legs",), ("legs",)))
        assert vocab.attribute_lists == (("legs",), ("legs",))
        with pytest.raises(ValueError, match="collide"):
            vocab.attributes


class TestMultiContextModel:
    def make(self):
        return EmbeddingModel(
            W=np.ones((2, 3)),
            Cs=(np.ones((2, 1)), np.zeros((2, 4))),
            Us=(np.full((2, 1), 2.0), np.full((2, 2), 3.0)),
            dim=2,
        )

    def test_U_is_the_factors_side_by_side(self):
        assert np.array_equal(self.make().U, [[2.0, 3.0, 3.0], [2.0, 3.0, 3.0]])

    def test_several_context_factors_have_no_single_view(self):
        with pytest.raises(ValueError, match="2 context factors"):
            self.make().C

    def test_shape_check_counts_contexts(self):
        vocab = VocabularyMaps(labels=("a", "b", "c"), context_lists=(("x",),), attribute_lists=(("p",), ("q", "r")))
        with pytest.raises(ValueError, match="2 relational"):
            self.make().check_shapes(vocab)

    def test_shape_check_names_the_block(self):
        vocab = VocabularyMaps(
            labels=("a", "b", "c"), context_lists=(("x",), ("y",)), attribute_lists=(("p",), ("q", "r"))
        )
        with pytest.raises(ValueError, match=r"factor C\[1\] has 4 columns"):
            self.make().check_shapes(vocab)

    @pytest.mark.parametrize("n_rel,n_desc,magic", [(1, 1, b"PHCLE1"), (2, 1, b"PHCLG1"), (1, 2, b"PHCLG1")])
    def test_format_follows_shape(self, tmp_path, n_rel, n_desc, magic):
        vocab = VocabularyMaps(
            labels=("a",),
            context_lists=tuple((f"c{i}",) for i in range(n_rel)),
            attribute_lists=tuple((f"u{j}",) for j in range(n_desc)),
        )
        model = init_model(vocab, dim=2, seed=1)
        path = tmp_path / "m.bin"
        save_model(path, model, vocab, HyperParams(dim=2))
        assert path.read_bytes()[:6] == magic
        loaded, loaded_vocab, _ = load_model(path)
        assert loaded_vocab == vocab
        assert all(np.array_equal(a, b) for a, b in zip((*loaded.Cs, *loaded.Us), (*model.Cs, *model.Us)))


def fixed_factor(rows, cols, offset):
    return (np.arange(rows * cols, dtype=np.float64).reshape(rows, cols) + offset) / 7.0


class TestGoldenModelFiles:
    """Digests of files written by the serializer before the single- and
    multi-context model types were merged; the bytes must not change."""

    # A one-relational, one-descriptive model written as PHCLG1, which the
    # earlier generalized writer produced for that shape.
    OLD_SINGLETON_PHCLG1 = bytes.fromhex(
        "5048434c47310200000000000000020000000000000001000000000000000100000000000000000000000000"
        "0000922449922449c23f922449922449d23fdbb66ddbb66ddb3f020000000000000001000000000000006101"
        "00000000000000620100000000000000922449922449c23f922449922449d23f010000000000000001000000"
        "00000000780100000000000000b76ddbb66ddbe6bf922449922449e2bf010000000000000003000000000000"
        "00667572000000000000f03f7b14ae47e17a843f7b14ae47e17a843ff168e388b5f8e43e2d431cebe2361a3f"
        "0a00000000000000320000000000000005000000000000000500000000000000320000000000000000000000"
        "0000000002000000000000001300000000000000756e69666f726d5f72616e646f6d28302e31290100000000"
        "000000000000000000f03f0100000000000000000000000000f03f"
    )

    @staticmethod
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_single_context_model_bytes(self, tmp_path):
        model = EmbeddingModel(
            W=fixed_factor(3, 4, 0), Cs=(fixed_factor(3, 2, 1),), Us=(fixed_factor(3, 2, -5),), dim=3
        )
        vocab = VocabularyMaps(
            labels=("a", "b", "c", "d"), context_lists=(("x", "y"),), attribute_lists=(("fur", "big"),)
        )
        path = tmp_path / "single.bin"
        save_model(path, model, vocab, HyperParams(lambda1=0.3, lambda2=0.7, seed=42, dim=3))
        assert path.read_bytes()[:6] == b"PHCLE1"
        assert self.digest(path) == "115352866ebdbad64da6d48150ac8005567a89b47c3efeee6c156ba1ce2a87f8"

    def test_multi_context_model_bytes(self, tmp_path):
        model = GeneralizedEmbeddingModel(
            W=fixed_factor(3, 4, 0),
            Cs=(fixed_factor(3, 2, 1), fixed_factor(3, 3, 2)),
            Us=(fixed_factor(3, 1, -5), fixed_factor(3, 2, 3)),
            dim=3,
        )
        vocab = GeneralizedVocabulary(
            labels=("a", "b", "c", "d"),
            context_lists=(("x", "y"), ("p", "q", "r")),
            attribute_lists=(("fur",), ("big", "small")),
        )
        path = tmp_path / "multi.bin"
        save_model(path, model, vocab, HyperParams(alpha=(0.25, 0.75), beta=(0.5, 0.5), seed=3, dim=3))
        assert path.read_bytes()[:6] == b"PHCLG1"
        assert self.digest(path) == "79f72a0523e057561eff97dca0b2e7c4bc944b6c5857c743a9c2e7a880906d52"

    def test_old_singleton_phclg1_loads_and_resaves_as_phcle1(self, tmp_path):
        old = tmp_path / "old.bin"
        old.write_bytes(self.OLD_SINGLETON_PHCLG1)
        model, vocab, hyper = load_model(old)
        assert np.array_equal(model.W, fixed_factor(2, 2, 0))
        assert len(model.Cs) == 1 and np.array_equal(model.C, fixed_factor(2, 1, 1))
        assert len(model.Us) == 1 and np.array_equal(model.U, fixed_factor(2, 1, -5))
        assert vocab == VocabularyMaps(labels=("a", "b"), context_lists=(("x",),), attribute_lists=(("fur",),))
        assert hyper == HyperParams(dim=2)
        resaved = tmp_path / "new.bin"
        save_model(resaved, model, vocab, hyper)
        assert resaved.read_bytes()[:6] == b"PHCLE1"
        # the bytes the single-context writer produced for these values
        assert self.digest(resaved) == "dab9d338fa7183349e6772acb7a76942a055c95cbd70100036f767799ae9f5ed"
