"""Corpus-grounded claim deconstruction: aspect hierarchies with perspectives."""

from .config import PipelineConfig
from .corpus import Document, Segment, load_corpus, segment_document
from .embedding import Embedder, EmbeddingIndex, HashedBowEmbedder
from .hierarchy import AspectHierarchy, AspectNode, HierarchyBuilder
from .llm_gateway import LlmGateway, MockChatProvider, PromptInstance
from .perspective import (
    FilterParams,
    PerspectiveSet,
    claim_representation,
    consensus_counts,
    discover_perspectives,
    relevance_boundary,
)
from .ranking import (
    ScoredSegment,
    discriminativeness,
    distractor_score,
    rank_segments,
    target_score,
    zipf_weighted_mean,
)

__version__ = "0.1.0"

__all__ = [
    "AspectHierarchy",
    "AspectNode",
    "Document",
    "Embedder",
    "EmbeddingIndex",
    "FilterParams",
    "HashedBowEmbedder",
    "HierarchyBuilder",
    "LlmGateway",
    "MockChatProvider",
    "PerspectiveSet",
    "PipelineConfig",
    "PromptInstance",
    "ScoredSegment",
    "Segment",
    "claim_representation",
    "consensus_counts",
    "discover_perspectives",
    "discriminativeness",
    "distractor_score",
    "load_corpus",
    "rank_segments",
    "relevance_boundary",
    "segment_document",
    "target_score",
    "zipf_weighted_mean",
]
