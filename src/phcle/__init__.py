"""Label embeddings learned jointly from co-occurrence relations and
partially observed attribute descriptions.

Each public name is imported from its module on first use, so a program
that uses a few of them loads only the modules that define those.
"""

import importlib

__version__ = "0.1.0"

# The module that defines each public name.
_HOME = {
    name: module
    for module, names in {
        "datamodel": (
            "AttributeContext", "EmbeddingModel", "GeneralizedVocabulary", "HyperParams", "VocabularyMaps",
            "load_embeddings", "load_model", "save_embeddings", "save_model",
        ),
        "errors": ("DivergenceError", "ParseError", "UnsupportedVersionError"),
        "evaluation": (
            "EmbeddingDescription", "cluster_order", "correlation_matrix", "describe_embedding", "retrieve_labels",
        ),
        "ingest": ("hierarchy_to_relations", "load_attribute_table"),
        "trainer": ("HistoryRecord", "TrainingHistory", "train", "train_generalized"),
    }.items()
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
