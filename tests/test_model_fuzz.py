"""Truncated and bit-flipped model files: ``load_model`` returns a model
that fits its vocabulary or raises ``ParseError`` or
``UnsupportedVersionError``, each naming the file, which the CLI turns into
exit 2. Any other exception, or a warning (every warning is an error under
the test settings), is a leak."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phcle.datamodel import EmbeddingModel, HyperParams, VocabularyMaps, load_model, save_model
from phcle.errors import ParseError, UnsupportedVersionError


def model_bytes(tmp_path, contexts, attributes, alpha, beta):
    """A saved model with one factor per name list: one of each is
    ``PHCLE1``, any other count ``PHCLG1``."""
    rng = np.random.default_rng(0)
    vocab = VocabularyMaps(labels=("cat", "dog", "é"), context_lists=contexts, attribute_lists=attributes)
    model = EmbeddingModel(
        W=rng.standard_normal((2, 3)),
        Cs=tuple(rng.standard_normal((2, len(names))) for names in contexts),
        Us=tuple(rng.standard_normal((2, len(names))) for names in attributes),
        dim=2,
    )
    path = tmp_path / "model.bin"
    save_model(path, model, vocab, HyperParams(dim=2, alpha=alpha, beta=beta))
    return path.read_bytes()


# (context name lists, attribute name lists, alpha, beta)
MODELS = {
    "PHCLE1": ((("farm", "home"),), (("furry",),), (1.0,), (1.0,)),
    "PHCLG1": ((("farm",), ("x", "y")), (("furry", "big"), ()), (0.25, 0.75), (0.5, 0.5)),
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    directory = tmp_path_factory.mktemp("models")
    return {magic: model_bytes(directory, *lists) for magic, lists in MODELS.items()}


@pytest.mark.parametrize("magic", sorted(MODELS))
def test_valid_file_loads(magic, valid, tmp_path):
    assert valid[magic].startswith(magic.encode())
    path = tmp_path / "model.bin"
    path.write_bytes(valid[magic])
    check_model(*load_model(path))


def check_model(model, vocab, hyper):
    assert isinstance(model, EmbeddingModel) and isinstance(hyper, HyperParams)
    model.check_shapes(vocab)


@pytest.mark.parametrize("magic", sorted(MODELS))
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_mutated_model_loads_or_raises_parse_error(magic, valid, tmp_path_factory, data):
    original = valid[magic]
    truncate = data.draw(st.booleans())
    if truncate:
        text = original[: data.draw(st.integers(0, len(original) - 1))]
    else:
        bit = data.draw(st.integers(0, 8 * len(original) - 1))
        text = bytearray(original)
        text[bit // 8] ^= 1 << (bit % 8)
        text = bytes(text)
    path = tmp_path_factory.getbasetemp() / f"fuzz-{magic}"
    path.write_bytes(text)
    try:
        loaded = load_model(path)
    except (ParseError, UnsupportedVersionError) as exc:
        assert str(path) in str(exc)
        return
    assert not truncate, "a truncated file gave a model"
    check_model(*loaded)
