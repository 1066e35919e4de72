"""Chain-based prediction of missing numerical attributes in knowledge graphs.

The pipeline: random walks retrieve relation-attribute chains around a query
entity, a hyperbolic affinity filter keeps the k most relevant, a transformer
encodes each chain with a numerical-aware affine transfer of its source
value, and a second transformer weights the per-chain value proposals into
one prediction.
"""

from .config import TrainConfig
from .filter import FilterEmbeddings, select_random_k, select_top_k, select_top_k_batch
from .kg import (
    AttributeStats,
    DatasetSplit,
    KnowledgeGraph,
    Query,
    attribute_means,
    load_dataset,
    queries_from_triples,
)
from .model import Model, load_checkpoint, save_checkpoint
from .reasoner import PredictionTrace, Predictions
from .retrieval import RAChain, TreeOfChains, sample_tree, sample_trees
from .training import TrainResult, train

__all__ = [
    "AttributeStats",
    "DatasetSplit",
    "FilterEmbeddings",
    "KnowledgeGraph",
    "Model",
    "PredictionTrace",
    "Predictions",
    "Query",
    "RAChain",
    "TrainConfig",
    "TrainResult",
    "TreeOfChains",
    "attribute_means",
    "load_checkpoint",
    "load_dataset",
    "queries_from_triples",
    "sample_tree",
    "sample_trees",
    "save_checkpoint",
    "select_random_k",
    "select_top_k",
    "select_top_k_batch",
    "train",
]
