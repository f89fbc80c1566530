"""Label embeddings learned jointly from co-occurrence relations and
partially observed attribute descriptions."""

from .datamodel import (
    AttributeContext,
    CooccurrenceMatrix,
    EmbeddingModel,
    GeneralizedEmbeddingModel,
    GeneralizedVocabulary,
    HyperParams,
    VocabularyMaps,
    init_model,
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
    cosine_similarity,
    describe_embedding,
    retrieve_labels,
)
from .ingest import (
    RelationRecord,
    build_cooccurrence,
    compute_negative_bound,
    hierarchy_to_relations,
    load_attribute_table,
)
from .trainer import HistoryRecord, TrainingHistory, full_objective, train, train_generalized

__version__ = "0.1.0"

__all__ = [
    "AttributeContext",
    "CooccurrenceMatrix",
    "DivergenceError",
    "EmbeddingDescription",
    "EmbeddingModel",
    "GeneralizedEmbeddingModel",
    "GeneralizedVocabulary",
    "HistoryRecord",
    "HyperParams",
    "ParseError",
    "RelationRecord",
    "TrainingHistory",
    "UnsupportedVersionError",
    "VocabularyMaps",
    "build_cooccurrence",
    "cluster_order",
    "compute_negative_bound",
    "correlation_matrix",
    "cosine_similarity",
    "describe_embedding",
    "full_objective",
    "hierarchy_to_relations",
    "init_model",
    "load_attribute_table",
    "load_embeddings",
    "load_model",
    "retrieve_labels",
    "save_embeddings",
    "save_model",
    "train",
    "train_generalized",
]
