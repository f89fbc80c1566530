"""Label embeddings learned jointly from co-occurrence relations and
partially observed attribute descriptions."""

from .datamodel import (
    AttributeContext,
    EmbeddingModel,
    GeneralizedVocabulary,
    HyperParams,
    VocabularyMaps,
    load_embeddings,
    load_model,
    save_embeddings,
    save_model,
)
from .errors import DivergenceError, ParseError, UnsupportedVersionError
from .evaluation import (
    EmbeddingDescription,
    cluster_order,
    correlation_matrix,
    describe_embedding,
    retrieve_labels,
)
from .ingest import hierarchy_to_relations, load_attribute_table
from .trainer import HistoryRecord, TrainingHistory, train, train_generalized

__version__ = "0.1.0"

__all__ = [
    "AttributeContext",
    "DivergenceError",
    "EmbeddingDescription",
    "EmbeddingModel",
    "GeneralizedVocabulary",
    "HistoryRecord",
    "HyperParams",
    "ParseError",
    "TrainingHistory",
    "UnsupportedVersionError",
    "VocabularyMaps",
    "cluster_order",
    "correlation_matrix",
    "describe_embedding",
    "hierarchy_to_relations",
    "load_attribute_table",
    "load_embeddings",
    "load_model",
    "retrieve_labels",
    "save_embeddings",
    "save_model",
    "train",
    "train_generalized",
]
