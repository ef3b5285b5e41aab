"""Aspect hierarchy construction.

The tree starts as the bare claim (node "0", depth 0). Coarse aspects become
its children, then a breadth-first loop expands the frontier: every node in a
sibling group is keyword-enriched first (sibling keyword sets are an input to
the distractor score), then each node's discriminative segments are ranked
and handed to the LLM to propose between 2 and k subaspects, which join the
queue. Nodes at the configured maximum depth are leaves and are never
enriched or expanded.

Node ids are path slugs ("0", "0.1", "0.1.2") so serialized trees diff
cleanly and sort deterministically. A node's stance buckets (``PerspectiveSet``)
are defined here, beside the tree that serializes them; ``perspective`` fills them.
The coarse-aspect, keyword and subaspect prompts and their reply schemas live
here too, beside the builder that reads the replies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .config import PipelineConfig
from .corpus import Segment
from .embedding import Embedder, EmbeddingIndex
from .errors import ClaimLensError, CorruptArtifact, SchemaViolation
from .llm_gateway import LlmGateway, PromptInstance, numbered_listing, reply_schema
from .ranking import (
    ScoredSegment,
    keyword_query_text,
    node_query_text,
    rank_segments,
)

ROOT_ID = "0"
STANCES = ("support", "neutral", "oppose")


def _strings(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


@dataclass
class StanceBucket:
    summary: str = ""
    segment_ids: list[str] = field(default_factory=list)
    paper_ids: list[str] = field(default_factory=list)


@dataclass
class PerspectiveSet:
    support: StanceBucket = field(default_factory=StanceBucket)
    neutral: StanceBucket = field(default_factory=StanceBucket)
    oppose: StanceBucket = field(default_factory=StanceBucket)

    def bucket(self, stance: str) -> StanceBucket:
        return getattr(self, stance)

    def to_dict(self) -> dict[str, Any]:
        """The stance -> bucket map, fields in order, lists copied."""
        return {
            stance: {"summary": b.summary, "segment_ids": list(b.segment_ids),
                     "paper_ids": list(b.paper_ids)}
            for stance, b in vars(self).items()
        }

    @classmethod
    def from_dict(cls, data: Any) -> "PerspectiveSet":
        """Parse a stance -> bucket map of the types :meth:`to_dict` writes;
        every key is optional. Anything else raises ``CorruptArtifact``."""
        if not (isinstance(data, dict) and set(data) <= set(STANCES)):
            raise CorruptArtifact("perspectives are not a stance map")
        out = cls()
        for stance, raw in data.items():
            if not isinstance(raw, dict) or not isinstance(raw.get("summary", ""), str):
                raise CorruptArtifact(f"{stance} bucket is malformed")
            bucket = out.bucket(stance)
            bucket.summary = raw.get("summary", "")
            for key in ("segment_ids", "paper_ids"):
                ids = raw.get(key, [])
                if not _strings(ids):
                    raise CorruptArtifact(f"{stance} {key} must list ids")
                setattr(bucket, key, list(ids))
        return out


@dataclass
class AspectNode:
    node_id: str
    label: str
    description: str
    keywords: list[str] = field(default_factory=list)
    parent: str | None = None
    children: list[str] = field(default_factory=list)
    depth: int = 0
    attached_segments: list[str] = field(default_factory=list)
    perspectives: PerspectiveSet | None = None

    def to_dict(self) -> dict[str, Any]:
        """The node's fields in order, lists copied, so the dict is a snapshot."""
        data = dict(vars(self))
        for key in ("keywords", "children", "attached_segments"):
            data[key] = list(data[key])
        if self.perspectives is not None:
            data["perspectives"] = self.perspectives.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AspectNode":
        node_id = data["node_id"]  # TypeError first when ``data`` is not an object
        for key in ("label", "description"):
            if not isinstance(data[key], str):
                raise CorruptArtifact(f"node {node_id}: {key} must be a string")
        for key in ("keywords", "attached_segments"):
            if not _strings(data.get(key, [])):
                raise CorruptArtifact(f"node {node_id}: {key} must list strings")
        depth = data["depth"]  # indents the rendered outline, so a float or bool is refused
        if not isinstance(depth, int) or isinstance(depth, bool):
            raise CorruptArtifact(f"node {node_id}: depth must be an integer, got {depth!r}")
        perspectives = data.get("perspectives")
        if perspectives is not None:
            try:
                perspectives = PerspectiveSet.from_dict(perspectives)
            except CorruptArtifact as exc:
                raise CorruptArtifact(f"node {node_id}: {exc}") from exc
        return cls(
            node_id=node_id,
            label=data["label"],
            description=data["description"],
            keywords=list(data.get("keywords", [])),
            parent=data.get("parent"),
            children=list(data.get("children", [])),
            depth=depth,
            attached_segments=list(data.get("attached_segments", [])),
            perspectives=perspectives,
        )


def _path_key(node_id: str) -> tuple[int, ...]:
    return tuple(int(part) for part in node_id.split("."))


class AspectHierarchy:
    """Single-rooted aspect tree with path-slug node ids."""

    def __init__(self, claim: str, max_depth: int):
        self.claim = claim
        self.max_depth = max_depth
        self.nodes: dict[str, AspectNode] = {
            ROOT_ID: AspectNode(node_id=ROOT_ID, label=claim, description="", depth=0)
        }
        self.root = ROOT_ID

    def node(self, node_id: str) -> AspectNode:
        return self.nodes[node_id]

    def add_child(
        self, parent_id: str, label: str, description: str, keywords: Sequence[str]
    ) -> AspectNode:
        parent = self.nodes[parent_id]
        child_id = f"{parent_id}.{len(parent.children) + 1}"
        child = AspectNode(
            node_id=child_id,
            label=label,
            description=description,
            keywords=list(keywords),
            parent=parent_id,
            depth=parent.depth + 1,
        )
        parent.children.append(child_id)
        self.nodes[child_id] = child
        return child

    def sorted_ids(self) -> list[str]:
        return sorted(self.nodes, key=_path_key)

    def children_of(self, node_id: str) -> list[AspectNode]:
        return [self.nodes[c] for c in self.nodes[node_id].children]

    def sibling_ids(self, node_id: str) -> list[str]:
        node = self.nodes[node_id]
        if node.parent is None:
            return []
        return [c for c in self.nodes[node.parent].children if c != node_id]

    def path_labels(self, node_id: str) -> list[str]:
        """Labels from the root claim down to the node, inclusive."""
        labels: list[str] = []
        current: str | None = node_id
        while current is not None:
            node = self.nodes[current]
            labels.append(node.label)
            current = node.parent
        return list(reversed(labels))

    def path_string(self, node_id: str) -> str:
        return " -> ".join(self.path_labels(node_id))

    def validate(self) -> None:
        """Check that every node hangs off the root by exactly one path of
        path-slug ids, with matching parent links and depths within
        ``max_depth``; raises ``CorruptArtifact`` naming the first fault."""
        if self.nodes[self.root].parent is not None:
            raise CorruptArtifact(f"root {self.root} names a parent")
        seen: set[str] = set()
        queue = deque([(self.root, 0)])
        while queue:
            node_id, depth = queue.popleft()
            if node_id in seen:
                raise CorruptArtifact(f"node {node_id} is listed as a child twice")
            seen.add(node_id)
            node = self.nodes[node_id]
            if node.depth != depth or depth > self.max_depth:
                raise CorruptArtifact(
                    f"node {node_id} has depth {node.depth!r}, expected {depth} "
                    f"within max_depth {self.max_depth}"
                )
            for child_id in node.children:
                parent_id, _, last = str(child_id).rpartition(".")
                if parent_id != node_id or not last.isdecimal() or child_id not in self.nodes:
                    raise CorruptArtifact(
                        f"node {node_id} lists child {child_id!r}, which is no node under it"
                    )
                if self.nodes[child_id].parent != node_id:
                    raise CorruptArtifact(f"bad link {node_id} -> {child_id}")
                queue.append((child_id, depth + 1))
        if seen != set(self.nodes):
            raise CorruptArtifact("tree is not connected")

    def to_dict(self, config_fingerprint: str, partial: bool = False) -> dict[str, Any]:
        return {
            "claim": self.claim,
            "config_fingerprint": config_fingerprint,
            "max_depth": self.max_depth,
            "partial": partial,
            "nodes": [self.nodes[nid].to_dict() for nid in self.sorted_ids()],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AspectHierarchy":
        """Rebuild and :meth:`validate` a tree written by :meth:`to_dict`; a
        missing or mistyped key (the root node's included), a text field that
        is not a string or a list of strings, or a node id recorded twice raises
        ``CorruptArtifact`` too."""
        try:
            if not isinstance(data["claim"], str):
                raise CorruptArtifact("claim must be a string")
            if not data["claim"]:
                raise CorruptArtifact("claim is empty")
            tree = cls(data["claim"], data.get("max_depth", 0))
            tree.nodes = {}
            for node_data in data["nodes"]:
                node = AspectNode.from_dict(node_data)
                if node.node_id in tree.nodes:
                    raise CorruptArtifact(f"node {node.node_id} is recorded twice")
                tree.nodes[node.node_id] = node
            tree.validate()
        except (KeyError, TypeError) as exc:
            raise CorruptArtifact(f"missing or mistyped value: {exc!r}") from exc
        return tree


# ---------------------------------------------------------------------------
# Prompts and reply schemas
# ---------------------------------------------------------------------------


_TEXT = {"type": "string", "minLength": 1}


def _keyword_list(min_items: int, max_items: int) -> dict[str, Any]:
    return {"type": "array", "items": _TEXT, "minItems": min_items, "maxItems": max_items}


def aspects_schema(key: str, k_max: int) -> dict[str, Any]:
    """Up to ``k_max`` aspects under ``key``: ``aspects`` or ``subaspects``."""
    aspect = {
        "type": "object",
        "required": ["label", "description", "keywords"],
        "properties": {"label": _TEXT, "description": _TEXT, "keywords": _keyword_list(10, 10)},
    }
    return reply_schema(key, {"type": "array", "maxItems": k_max, "items": aspect})


def keywords_schema(min_items: int, max_items: int) -> dict[str, Any]:
    return reply_schema("keywords", _keyword_list(min_items, max_items))


_COARSE_TEMPLATE = """\
For the claim, {claim}, output the list of up to {k} aspects that would be \
considered when evaluating it. These should be the high-level dimensions along \
which the claim could be validated. For each aspect, provide its label, a \
description of its significance to the claim, and exactly 10 relevant keywords \
ordered from most to least significant.
Your output should be in JSON format:
{{"aspects": [{{"label": "...", "description": "...", "keywords": ["...", "..."]}}]}}"""


_EXTRACT_TEMPLATE = """\
The claim is: {claim}. You are analyzing it with a focus on the aspect \
{aspect}. The aspect, {aspect}, can be described as the following: {description}

Please extract at most {n} keywords related to the aspect {aspect} from the \
following documents:
{contents}
Ensure that the extracted keywords are diverse, specific, and highly relevant \
to the given aspect, ordered from most to least significant. Only output the \
keywords.
Your output should be in JSON format: {{"keywords": ["...", "..."]}}"""


_FILTER_TEMPLATE = """\
Our claim is '{claim}'. With respect to the target aspect '{aspect}', identify \
exactly {k} relevant keywords from the provided list: {candidates}.

{aspect}: {description}

Merge terms with similar meanings, exclude relatively irrelevant ones, and \
output only the {k} final keywords ordered from most to least significant.
Your output should be in JSON format: {{"keywords": ["...", "..."]}}"""


_SUBASPECT_TEMPLATE = """\
Output the list of at minimum 2 and up to {k} subaspects of parent aspect \
{aspect} that would be considered when evaluating the claim, {claim}.
claim: {claim}
parent_aspect: {aspect}; {description}
path_to_parent_aspect: {path}
Ground your subaspects in the following corpus segments:
{segments}
Each subaspect should be a more granular component of the parent aspect, with \
its label, a description of its significance, and exactly 10 relevant keywords \
ordered from most to least significant.
Provide your output in the following JSON format:
{{"subaspects": [{{"label": "...", "description": "...", "keywords": ["...", "..."]}}]}}"""


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


class HierarchyBuilder:
    """Drives coarse discovery, enrichment, ranking, and subaspect expansion."""

    def __init__(
        self,
        gateway: LlmGateway,
        embedder: Embedder,
        index: EmbeddingIndex,
        segments: Mapping[str, Segment],
        config: PipelineConfig,
    ):
        self.gateway = gateway
        self.embedder = embedder
        self.index = index
        self.segments = segments
        self.config = config
        self.log = gateway.log
        self.tree: AspectHierarchy | None = None  # in-progress tree, for salvage
        self._queries: dict[str, np.ndarray] = {}

    def _listing(self, segment_ids: Iterable[str]) -> str:
        """Numbered segment texts for a prompt."""
        return numbered_listing(self.segments[sid].text for sid in segment_ids)

    # --- coarse aspects ---

    def discover_coarse_aspects(self, tree: AspectHierarchy) -> list[AspectNode]:
        k = self.config.k_aspects
        data = self.gateway.complete_json(PromptInstance(
            "coarse_aspects", _COARSE_TEMPLATE.format(claim=tree.claim, k=k),
            aspects_schema("aspects", k), f"claim={tree.claim!r}",
        ))
        aspects = data["aspects"]
        if not aspects:
            raise ClaimLensError(f"no coarse aspects returned for {tree.claim!r}")
        created = [
            tree.add_child(tree.root, a["label"], a["description"], a["keywords"])
            for a in aspects
        ]
        self.log.record("coarse_aspects", count=len(created))
        return created

    # --- keyword enrichment ---

    def node_query(self, tree: AspectHierarchy, node_id: str) -> str:
        node = tree.node(node_id)
        return node_query_text(tree.claim, node.label, node.description, node.keywords)

    def enrich_keywords(self, tree: AspectHierarchy, node_id: str) -> list[str]:
        """Replace a node's keywords with corpus-grounded ones.

        Retrieves the node query's nearest segments, asks for up to
        2 * k_keywords candidate keywords from them, then filters to exactly
        k_keywords. Duplicates in the filtered list are collapsed; fewer than
        k_keywords distinct terms is a contract violation.
        """
        node = tree.node(node_id)
        query_vec = self.embedder.embed_one(self.node_query(tree, node_id))
        pool = self.index.top_k(query_vec, self.config.pool_size)
        contents = self._listing(sid for sid, _ in pool)
        k = self.config.k_keywords
        about = dict(claim=tree.claim, aspect=node.label, description=node.description)
        context = f"aspect={node.label!r}"
        extract = self.gateway.complete_json(PromptInstance(
            "keyword_extract", _EXTRACT_TEMPLATE.format(**about, contents=contents, n=2 * k),
            keywords_schema(1, 2 * k), context,
        ))
        filtered = self.gateway.complete_json(PromptInstance(
            "keyword_filter",
            _FILTER_TEMPLATE.format(**about, candidates=", ".join(extract["keywords"]), k=k),
            keywords_schema(k, k), context,
        ))
        keywords = _dedupe(filtered["keywords"])
        if len(keywords) < self.config.k_keywords:
            raise SchemaViolation(
                f"keyword filter for node {node_id} returned "
                f"{len(keywords)} distinct terms, need {self.config.k_keywords}"
            )
        node.keywords = keywords
        self._queries.pop(node_id, None)
        self.log.record("enrich", node_id=node_id)
        return keywords

    def keyword_queries(self, tree: AspectHierarchy, node_id: str) -> np.ndarray:
        """Ancestry-contextualized keyword queries, embedded as one
        ``(keywords, dim)`` matrix in significance order."""
        if node_id not in self._queries:
            ancestors = tree.path_labels(node_id)
            self._queries[node_id] = self.embedder.embed_texts(
                [keyword_query_text(kw, ancestors) for kw in tree.node(node_id).keywords]
            )
        return self._queries[node_id]

    # --- discriminative ranking ---

    def rank_node_segments(self, tree: AspectHierarchy, node_id: str) -> list[ScoredSegment]:
        query_vec = self.embedder.embed_one(self.node_query(tree, node_id))
        target = self.keyword_queries(tree, node_id)
        siblings = [
            self.keyword_queries(tree, sid)
            for sid in tree.sibling_ids(node_id)
            if tree.node(sid).keywords
        ]
        ranked = rank_segments(self.index, query_vec, target, siblings, self.config)
        self.log.record(
            "rank",
            node_id=node_id,
            kept=len(ranked),
            scores=[dict(vars(s)) for s in ranked],  # fields in order, all immutable
        )
        return ranked

    # --- subaspect discovery ---

    def discover_subaspects(
        self,
        tree: AspectHierarchy,
        node_id: str,
        ranked: Sequence[ScoredSegment],
    ) -> list[AspectNode]:
        node = tree.node(node_id)
        k = self.config.k_subaspects
        data = self.gateway.complete_json(PromptInstance(
            "subaspect_discovery",
            _SUBASPECT_TEMPLATE.format(
                claim=tree.claim, aspect=node.label, description=node.description,
                path=tree.path_string(node_id),
                segments=self._listing(s.segment_id for s in ranked), k=k,
            ),
            aspects_schema("subaspects", k), f"aspect={node.label!r}",
        ))
        subaspects = data["subaspects"]
        if len(subaspects) < 2:
            raise ClaimLensError(
                f"node {node_id} produced {len(subaspects)} subaspects, need >= 2"
            )
        children = [
            tree.add_child(node_id, a["label"], a["description"], a["keywords"])
            for a in subaspects
        ]
        self.log.record("discover", node_id=node_id, children=len(children))
        return children

    # --- full construction ---

    def build(self) -> AspectHierarchy:
        """Breadth-first expansion; nodes at max depth stay leaves."""
        tree = AspectHierarchy(self.config.claim, self.config.max_depth)
        self.tree = tree
        if self.config.max_depth == 0:
            return tree
        coarse = self.discover_coarse_aspects(tree)
        groups: deque[list[str]] = deque([[n.node_id for n in coarse]])
        while groups:
            group = groups.popleft()
            if tree.node(group[0]).depth >= self.config.max_depth:
                continue  # leaves: never enriched or expanded
            for node_id in group:
                self.enrich_keywords(tree, node_id)
            for node_id in group:
                ranked = self.rank_node_segments(tree, node_id)
                tree.node(node_id).attached_segments = [
                    s.segment_id for s in ranked
                ]
                children = self.discover_subaspects(tree, node_id, ranked)
                groups.append([c.node_id for c in children])
        tree.validate()
        return tree


def _dedupe(keywords: Sequence[str]) -> list[str]:
    """Collapse case-insensitive duplicates, keeping first-seen order."""
    seen: set[str] = set()
    out: list[str] = []
    for kw in keywords:
        key = kw.strip().lower()
        if key and key not in seen:
            seen.add(key)
            out.append(kw.strip())
    return out
