"""Perspective discovery over a built hierarchy.

Stages, in order:

1. A claim representation blends the claim embedding with the mean embedding
   of its coarse aspects ("<label> with respect to <claim>"), renormalized.
2. Segments long enough to judge are ranked by cosine to that representation
   and the relevance/irrelevance boundary rank is located by binary search on
   the local window's relevant fraction, caching every judgment so each
   segment is judged at most once; a window stops being judged as soon as its
   verdict can no longer change, and judges first the ranks later probes can
   reuse.
3. Retained segments descend the hierarchy top-down: at each node the
   children within a relative similarity band of the best child are explored,
   and the segment attaches wherever descent terminates (possibly several
   leaves). A tree with no aspects judges, retains and attaches nothing.
4. Every attached (segment, node) pair gets a stance judgment; per node the
   non-irrelevant segments form disjoint support / neutral / oppose buckets,
   each summarized into a perspective. Paper ids come from segment
   provenance, so one paper may appear in several buckets.

The relevance, stance and summary prompts and their reply schemas are defined
here, beside the code that reads the replies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import Segment
from .embedding import Embedder, EmbeddingIndex, normalize
from .errors import ClaimLensError
from .hierarchy import STANCES, AspectHierarchy, PerspectiveSet
from .llm_gateway import LlmGateway, PromptInstance, numbered_listing, reply_schema

# ---------------------------------------------------------------------------
# Prompts and reply schemas
# ---------------------------------------------------------------------------

YES_NO_SCHEMA = reply_schema("answer", {"enum": ["Yes", "No"]})

STANCE_LABELS = ("supports_claim", "neutral_to_claim", "opposes_claim", "irrelevant_to_claim")

STANCE_SCHEMA = reply_schema("stance", {"enum": list(STANCE_LABELS)})

SUMMARY_SCHEMA = reply_schema("summary", {"type": "string"})

# zip stops before "irrelevant_to_claim", which maps to no stance.
_STANCE_BY_LABEL = dict(zip(STANCE_LABELS, STANCES))

_RELEVANCE_TEMPLATE = """\
I am currently analyzing a claim based on a segment from the literature from \
several different aspects.
The segment is: {segment}
The claim is: {claim}
The aspects are: {aspects}
Please help me determine whether this segment is related to the claim so that \
I can analyze this claim based on it from at least one of these aspects. Your \
output should be 'Yes' or 'No' in JSON format: {{"answer": "..."}}"""


_STANCE_TEMPLATE = """\
You are a stance detector, which determines the stance that a segment from a \
paper has towards an aspect of a specific claim. Oftentimes, papers do not \
provide explicit, outright stances, so your job is to figure out what stance \
the data or statement that they are presenting implies.
Segment: {segment}

What is the segment's stance specifically with respect to {aspect} for if \
{claim}? {aspect} can be described as {description}.
Claim: {claim}
Aspect to consider: {aspect}: {description}
Path to aspect: {path}

Your stance options are the following:
- supports_claim: The segment either implicitly or explicitly indicates that \
the claim is true specific to the given aspect.
- neutral_to_claim: The segment is relevant to the claim and aspect, but does \
not indicate whether the claim is true specific to the given aspect.
- opposes_claim: The segment either implicitly or explicitly indicates that \
the claim is false specific to the given aspect.
- irrelevant_to_claim: The segment does not contain relevant information on \
the claim and the aspect.

Your output should be in JSON format: {{"stance": "..."}}"""


_SUMMARY_TEMPLATE = """\
The claim is: {claim}
The aspect under analysis is: {aspect}: {description}
The following segments all take the '{stance}' stance towards the claim with \
respect to this aspect:
{segments}
Summarize the overarching perspective these segments hold: state the stance \
and the rationale behind it in two or three sentences.
Your output should be in JSON format: {{"summary": "..."}}"""


@dataclass(frozen=True)
class FilterParams:
    delta: float
    window: int
    min_chars: int


@dataclass(frozen=True)
class ConsensusCounts:
    segments: dict[str, int]
    papers: dict[str, int]


# ---------------------------------------------------------------------------
# Claim representation
# ---------------------------------------------------------------------------


def coarse_query_text(label: str, claim: str) -> str:
    return f"{label} with respect to {claim}"


def claim_representation(
    claim: str, coarse_labels: Sequence[str], embedder: Embedder
) -> np.ndarray:
    """Blend of the claim embedding and the mean coarse-aspect embedding."""
    if not coarse_labels:
        raise ClaimLensError("claim representation needs at least one coarse aspect")
    claim_vec = embedder.embed_one(claim)
    child_vecs = embedder.embed_texts(
        [coarse_query_text(label, claim) for label in coarse_labels]
    )
    combined = 0.5 * (claim_vec + np.mean(child_vecs, axis=0))
    return normalize(combined)


# ---------------------------------------------------------------------------
# Relevance boundary
# ---------------------------------------------------------------------------


def relevance_boundary(count: int, judge: Callable[[int], bool], params: FilterParams) -> int:
    """Smallest 0-based rank whose +/- window is mostly irrelevant.

    The relevance profile over the similarity ranking is assumed monotone
    non-increasing, so the first rank where the window's relevant fraction
    drops below delta is found by binary search. Returns ``count`` when no
    window is that sparse (everything relevant) and 0 when even the top
    window is (nothing relevant). Segments ranked below the returned value
    are the retained set.

    A window is judged only until its verdict is settled, so every probe gets
    the full window's verdict in any judging order. The order spends fresh
    judgments where later probes can reuse them: first the ranks already
    asked about (the caller's cache answers those), then the rest by their
    expected reuse, the summed ``2**-level`` of the probes within the next
    three levels of the search whose windows hold them, ties by rank.
    """
    n = params.window
    asked: set[int] = set()

    def window(i: int) -> range:
        return range(max(0, i - n), min(count, i + n + 1))

    def sparse(lo: int, mid: int, hi: int) -> bool:
        later: list[tuple[range, float]] = []
        spans = [(lo, mid), (mid + 1, hi)]
        for level in (1, 2, 3):
            deeper = []
            for a, b in spans:
                if a < b:
                    probe = (a + b) // 2
                    later.append((window(probe), 0.5**level))
                    deeper += [(a, probe), (probe + 1, b)]
            spans = deeper

        def order(j: int) -> tuple[bool, float, int]:
            return j not in asked, -sum(w for ranks, w in later if j in ranks), j

        ranks = sorted(window(mid), key=order)
        size, relevant = len(ranks), 0
        for judged, j in enumerate(ranks):
            # The full count lies between ``relevant`` and ``relevant`` plus the
            # size - judged ranks left, so once both give one verdict it is final.
            if relevant / size >= params.delta or (relevant + size - judged) / size < params.delta:
                break
            asked.add(j)
            if judge(j):
                relevant += 1
        return relevant / size < params.delta

    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) // 2
        if sparse(lo, mid, hi):
            hi = mid
        else:
            lo = mid + 1
    return lo


# ---------------------------------------------------------------------------
# Taxonomy-guided classification (simplified top-down descent)
# ---------------------------------------------------------------------------


def node_profile_text(label: str, description: str, keywords: Sequence[str]) -> str:
    return f"{label}: {description}; keywords: {', '.join(keywords)}"


def classify_segments(
    segment_ids: Sequence[str],
    tree: AspectHierarchy,
    embedder: Embedder,
    index: EmbeddingIndex,
    *,
    relative_threshold: float,
) -> dict[str, list[str]]:
    """Attach each segment to the node(s) where its top-down descent ends.

    At every internal node the segment's similarity to each child profile is
    computed; children within ``relative_threshold`` of the best child are
    explored. Leaves reached collect the segment. A tree with no aspects
    attaches everything at the root.
    """
    node_ids = [nid for nid in tree.sorted_ids() if nid != tree.root]
    nodes = [tree.node(nid) for nid in node_ids]
    profiles = embedder.embed_texts(
        [node_profile_text(n.label, n.description, n.keywords) for n in nodes]
    )
    profile_row = {nid: row for row, nid in enumerate(node_ids)}

    attachments: dict[str, list[str]] = {nid: [] for nid in tree.nodes}
    for segment_id in segment_ids:
        seg_vec = index.get(segment_id)
        frontier = [tree.root]
        terminals: list[str] = []
        while frontier:
            node_id = frontier.pop(0)
            children = tree.node(node_id).children
            if not children:
                terminals.append(node_id)
                continue
            sims = {
                child: max(0.0, float(np.dot(seg_vec, profiles[profile_row[child]])))
                for child in children
            }
            best = max(sims.values())
            frontier.extend(
                child for child in children if sims[child] >= relative_threshold * best
            )
        for node_id in sorted(set(terminals)):
            attachments[node_id].append(segment_id)
    return attachments


# ---------------------------------------------------------------------------
# Stance detection, summaries, consensus
# ---------------------------------------------------------------------------


def detect_stance(
    gateway: LlmGateway,
    tree: AspectHierarchy,
    node_id: str,
    segment: Segment,
) -> str:
    node = tree.node(node_id)
    data = gateway.complete_json(PromptInstance(
        "stance_detect",
        _STANCE_TEMPLATE.format(
            segment=segment.text, aspect=node.label, claim=tree.claim,
            description=node.description, path=tree.path_string(node_id),
        ),
        STANCE_SCHEMA, f"segment={segment.segment_id}, node={node_id}",
    ))
    return data["stance"]


def summarize_perspectives(
    gateway: LlmGateway,
    tree: AspectHierarchy,
    node_id: str,
    buckets: dict[str, list[Segment]],
) -> PerspectiveSet:
    """One summary per non-empty stance bucket; paper ids deduped from provenance."""
    node = tree.node(node_id)
    out = PerspectiveSet()
    for stance in STANCES:
        segments = buckets.get(stance, [])
        bucket = out.bucket(stance)
        bucket.segment_ids = [s.segment_id for s in segments]
        bucket.paper_ids = sorted({s.doc_id for s in segments})
        if not segments:
            continue
        data = gateway.complete_json(PromptInstance(
            "perspective_summarize",
            _SUMMARY_TEMPLATE.format(
                claim=tree.claim, aspect=node.label, description=node.description,
                stance=stance, segments=numbered_listing(s.text for s in segments),
            ),
            SUMMARY_SCHEMA, f"node={node_id}, stance={stance}",
        ))
        bucket.summary = data["summary"]
    return out


def consensus_counts(perspectives: PerspectiveSet) -> ConsensusCounts:
    return ConsensusCounts(
        segments={s: len(perspectives.bucket(s).segment_ids) for s in STANCES},
        papers={s: len(perspectives.bucket(s).paper_ids) for s in STANCES},
    )


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def discover_perspectives(
    gateway: LlmGateway,
    embedder: Embedder,
    index: EmbeddingIndex,
    segments: Mapping[str, Segment],
    tree: AspectHierarchy,
    params: FilterParams,
    *,
    relative_threshold: float,
) -> AspectHierarchy:
    """Run filtering, classification, stance detection, and summarization.

    Mutates and returns the tree: every node ends up with classified
    attached_segments and a (possibly empty) perspective set.
    """
    coarse_labels = [c.label for c in tree.children_of(tree.root)]
    candidates = [
        seg
        for seg in sorted(segments.values(), key=lambda s: s.segment_id)
        if len(seg.text) >= params.min_chars
    ]

    retained: list[Segment] = []
    if candidates and coarse_labels:
        c0 = claim_representation(tree.claim, coarse_labels, embedder)
        sims = {
            seg.segment_id: float(np.dot(index.get(seg.segment_id), c0))
            for seg in candidates
        }
        ordered = sorted(candidates, key=lambda s: (-sims[s.segment_id], s.segment_id))

        def judge_rank(i: int) -> bool:
            seg = ordered[i]
            data = gateway.complete_json(PromptInstance(
                "relevance_judge",
                _RELEVANCE_TEMPLATE.format(
                    segment=seg.text, claim=tree.claim, aspects=", ".join(coarse_labels)
                ),
                YES_NO_SCHEMA, f"segment={seg.segment_id}",
            ))
            return data["answer"] == "Yes"

        judge = functools.cache(judge_rank)
        boundary = relevance_boundary(len(ordered), judge, params)
        retained = ordered[:boundary]
        judged = judge.cache_info()
        gateway.log.record(
            "relevance_filter",
            candidates=len(ordered),
            boundary=boundary,
            fresh_calls=judged.misses,
            cache_hits=judged.hits,
        )

    attachments = classify_segments(
        [s.segment_id for s in retained], tree, embedder, index,
        relative_threshold=relative_threshold,
    )

    for node_id in tree.sorted_ids():
        node = tree.node(node_id)
        node.attached_segments = list(attachments.get(node_id, []))
        buckets: dict[str, list[Segment]] = {s: [] for s in STANCES}
        for segment_id in node.attached_segments:
            segment = segments[segment_id]
            label = detect_stance(gateway, tree, node_id, segment)
            stance = _STANCE_BY_LABEL.get(label)
            if stance is not None:  # irrelevant_to_claim drops the segment
                buckets[stance].append(segment)
        node.perspectives = summarize_perspectives(gateway, tree, node_id, buckets)
    return tree
