"""Aspect-discriminative segment ranking.

A segment is valuable for discovering subaspects of a node when it discusses
that node in depth and its sibling nodes not at all. Three scores capture
this:

* target score: a Zipf-weighted mean of the segment's clamped cosine
  similarity to the node's keyword queries, where the keyword at significance
  rank r carries weight 1/r;
* distractor score: half the mean plus half the max of the target score
  computed against each sibling's keyword set (breadth and depth of off-node
  discussion);
* discriminativeness: beta * target over gamma * distractor, with a small
  epsilon floor on the denominator so a zero distractor stays finite and
  ordered above every finite-distractor peer of equal target. A node with no
  siblings has no distractor term and scores its raw target.

Keyword queries carry the node's ancestry ("<keyword> with respect to
<labels root..node>") so a query rewards discussion anchored in the claim's
context, not the bare keyword. A node's keyword set is one ``(keywords, dim)``
matrix of unit rows in significance order. Scoring is pure and data-parallel
across segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import PipelineConfig
from .embedding import EmbeddingIndex
from .errors import EmptyKeywordSet


@dataclass(frozen=True)
class ScoredSegment:
    segment_id: str
    target: float
    distractor: float
    score: float


def keyword_query_text(keyword: str, ancestor_labels: Sequence[str]) -> str:
    """Contextualized query for one keyword; labels run root to owning node."""
    return f"{keyword} with respect to {', '.join(ancestor_labels)}"


def node_query_text(
    claim: str, label: str, description: str, keywords: Sequence[str]
) -> str:
    """Retrieval query for a node: claim, aspect, description, keyword list."""
    return (
        f"Claim: {claim}; Aspect: {label}: {description}; "
        f"Aspect Keywords: {', '.join(keywords)}"
    )


def _zipf_weights(k: int) -> np.ndarray:
    w = 1.0 / np.arange(1, k + 1, dtype=np.float64)
    return w / w.sum()


def batch_target_scores(segment_matrix: np.ndarray, keywords: np.ndarray) -> np.ndarray:
    """Target score of every segment row against one keyword set, a
    ``(keywords, dim)`` matrix in significance order.

    Cosine similarities are clamped to [0, 1] before weighting so the scores
    behave as rewards and the downstream ratio stays sign-stable.
    """
    if len(keywords) == 0:
        raise EmptyKeywordSet("node has no keyword queries")
    sims = np.clip(segment_matrix @ keywords.T, 0.0, 1.0)
    return sims @ _zipf_weights(len(keywords))


def batch_distractor_scores(
    segment_matrix: np.ndarray, sibling_sets: Sequence[np.ndarray]
) -> np.ndarray:
    """Distractor score of every segment row: 0.5 * mean + 0.5 * max of the
    per-sibling target scores. No siblings means no distraction: all zeros.
    """
    n = segment_matrix.shape[0]
    if not sibling_sets:
        return np.zeros(n)
    per_sibling = np.stack(
        [batch_target_scores(segment_matrix, keywords) for keywords in sibling_sets]
    )  # (n_siblings, n_segments)
    return 0.5 * per_sibling.mean(axis=0) + 0.5 * per_sibling.max(axis=0)


def discriminativeness(
    target: float | np.ndarray,
    distractor: float | np.ndarray | None,
    config: PipelineConfig,
) -> float | np.ndarray:
    """Reward/penalty ratio, elementwise over arrays; ``distractor=None`` marks
    a node with no siblings, in which case the penalty term is dropped and the
    target stands alone.
    """
    if distractor is None:
        return target
    return (config.beta * target) / (config.gamma * np.maximum(distractor, config.epsilon))


def rank_segments(
    index: EmbeddingIndex,
    query_embedding: np.ndarray,
    target_keywords: np.ndarray,
    sibling_sets: Sequence[np.ndarray],
    config: PipelineConfig,
) -> list[ScoredSegment]:
    """Score the pool_size most query-similar segments, return the top k.

    Ordering is by descending discriminativeness, ties broken by ascending
    segment_id.
    """
    pool = index.top_k(query_embedding, config.pool_size)
    ids = [segment_id for segment_id, _ in pool]
    matrix = np.vstack([index.get(segment_id) for segment_id in ids])
    targets = batch_target_scores(matrix, target_keywords)
    distractors = batch_distractor_scores(matrix, sibling_sets)
    scores = discriminativeness(targets, distractors if sibling_sets else None, config)
    scored = [
        ScoredSegment(
            segment_id=sid,
            target=float(t),
            distractor=float(d),
            score=float(s),
        )
        for sid, t, d, s in zip(ids, targets, distractors, scores)
    ]
    scored.sort(key=lambda item: (-item.score, item.segment_id))
    return scored[: config.k_segments]
