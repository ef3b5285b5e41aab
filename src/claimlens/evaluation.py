"""Automatic hierarchy quality metrics and order-swapped pairwise comparison.

Node-wise metrics (relevance, path granularity, uniqueness, segment quality)
are 0/1 judgments averaged over nodes; sibling granularity is judged 1-4 per
sibling set and normalized to [0, 1] as (score - 1) / 3. The root is the
claim itself and is excluded from judgment except in the degenerate
root-only tree. Pairwise comparison judges both presentation orders; a
winner that flips with order is an implicit tie.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Sequence

from .corpus import Segment
from .errors import UsageError
from .hierarchy import AspectHierarchy
from .llm_gateway import LlmGateway, PromptInstance, reply_schema

VERDICTS = ("A_wins", "B_wins", "explicit_tie", "implicit_tie")

WINNER_SCHEMA = reply_schema("winner", {"enum": ["A", "B", "tie"]}, rationale={"type": "string"})


def score_schema(allowed: Sequence[int]) -> dict[str, Any]:
    return reply_schema("score", {"enum": list(allowed)}, rationale={"type": "string"})


@dataclass
class MetricReport:
    node_relevance: float
    path_granularity: float
    sibling_granularity: float | None
    uniqueness: float
    segment_quality: float | None
    per_node: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


_JUDGE_TAIL = (
    " Provide a short rationale.\n"
    'Your output should be in JSON format: {"score": ..., "rationale": "..."}'
)


def _judge(gateway: LlmGateway, text: str, allowed: list[int], context: str) -> int:
    return gateway.complete_json(PromptInstance(
        "eval_judge", text + _JUDGE_TAIL, score_schema(allowed), context
    ))["score"]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _aspect_ids(tree: AspectHierarchy) -> list[str]:
    """Non-root nodes in path order."""
    return [nid for nid in tree.sorted_ids() if nid != tree.root]


# ---------------------------------------------------------------------------
# Node-wise metrics
# ---------------------------------------------------------------------------


def node_relevance(tree: AspectHierarchy, gateway: LlmGateway) -> tuple[float, dict[str, int]]:
    scores: dict[str, int] = {}
    for node_id in _aspect_ids(tree) or [tree.root]:  # the root alone if it is all there is
        prompt = (
            f"Given the claim: {tree.claim}, decide whether this path from the "
            f"aspect tree is relevant to the analysis of the claim: "
            f"{tree.path_string(node_id)}.\n"
            "Score 1 if the aspect is relevant to evaluating the claim, 0 if "
            "it is irrelevant."
        )
        scores[node_id] = _judge(gateway, prompt, [0, 1], f"relevance node={node_id}")
    return _mean(list(scores.values())), scores


def path_granularity(tree: AspectHierarchy, gateway: LlmGateway) -> tuple[float, dict[str, int]]:
    scores: dict[str, int] = {}
    node_ids = _aspect_ids(tree)
    if not node_ids:
        return 1.0, scores
    for node_id in node_ids:
        prompt = (
            f"Given the claim: {tree.claim}, decide whether this path from the "
            f"aspect tree has good granularity: {tree.path_string(node_id)}.\n"
            "Check whether each child node is a more specific subaspect of its "
            "parent. Score 1 if the path is granular, 0 if not."
        )
        scores[node_id] = _judge(gateway, prompt, [0, 1], f"path node={node_id}")
    return _mean(list(scores.values())), scores


def sibling_granularity(
    tree: AspectHierarchy, gateway: LlmGateway
) -> tuple[float | None, dict[str, int]]:
    """Judge each sibling set of size >= 2 on a 1-4 same-specificity scale.

    The aggregate is the mean of (score - 1) / 3; single-child sets are
    skipped since specificity among siblings is undefined for them.
    """
    scores: dict[str, int] = {}
    for node_id in tree.sorted_ids():
        children = tree.children_of(node_id)
        if len(children) < 2:
            continue
        labels = "; ".join(c.label for c in children)
        prompt = (
            f"Given the claim: {tree.claim}, decide whether these sibling "
            f"aspects of parent aspect '{tree.node(node_id).label}' reflect the "
            f"same level of specificity relative to their parent: {labels}.\n"
            "Score 1 to 4: 1 = all at different levels, 2 = some at the same "
            "level, 3 = most at the same level, 4 = all at the same level."
        )
        scores[node_id] = _judge(gateway, prompt, [1, 2, 3, 4], f"siblings of={node_id}")
    if not scores:
        return None, scores
    return _mean([(s - 1) / 3 for s in scores.values()]), scores


def uniqueness(tree: AspectHierarchy, gateway: LlmGateway) -> tuple[float, dict[str, int]]:
    node_ids = _aspect_ids(tree)
    if not node_ids:
        return 1.0, {}
    outline = hierarchy_outline(tree)
    scores: dict[str, int] = {}
    for node_id in node_ids:
        node = tree.node(node_id)
        prompt = (
            "Normally, we want the aspects and sub-aspects to be unique in the "
            f"taxonomy. Given the claim: {tree.claim}, decide whether the "
            f"aspect '{node.label}' (path: {tree.path_string(node_id)}) largely "
            "overlaps with or is almost equivalent to another node in this "
            f"hierarchy:\n{outline}\n"
            "Score 1 if the aspect is unique, 0 if it overlaps."
        )
        scores[node_id] = _judge(gateway, prompt, [0, 1], f"uniqueness node={node_id}")
    return _mean(list(scores.values())), scores


def segment_quality(
    tree: AspectHierarchy,
    gateway: LlmGateway,
    segments: Mapping[str, Segment],
) -> tuple[float | None, dict[str, float]]:
    """Per node, the fraction of attached segments judged relevant to the
    claim and the aspect; absent when no node carries segments. Every
    attached id must be in ``segments``."""
    fractions: dict[str, float] = {}
    for node_id in tree.sorted_ids():
        node = tree.node(node_id)
        if not node.attached_segments:
            continue
        votes = []
        for segment_id in node.attached_segments:
            prompt = (
                f"Given the claim: {tree.claim}, evaluate whether this segment "
                f"is relevant to both the claim and the aspect '{node.label}' "
                f"(path: {tree.path_string(node_id)}).\n"
                f"Segment: {segments[segment_id].text}\n"
                "Score 1 if relevant, 0 if not."
            )
            votes.append(
                _judge(gateway, prompt, [0, 1], f"segment={segment_id} node={node_id}")
            )
        fractions[node_id] = _mean(votes)
    if not fractions:
        return None, fractions
    return _mean(list(fractions.values())), fractions


def evaluate_hierarchy(
    tree: AspectHierarchy,
    gateway: LlmGateway,
    segments: Mapping[str, Segment],
) -> MetricReport:
    rel, rel_nodes = node_relevance(tree, gateway)
    path, path_nodes = path_granularity(tree, gateway)
    sib, sib_sets = sibling_granularity(tree, gateway)
    uniq, uniq_nodes = uniqueness(tree, gateway)
    seg, seg_nodes = segment_quality(tree, gateway, segments)
    return MetricReport(
        node_relevance=rel,
        path_granularity=path,
        sibling_granularity=sib,
        uniqueness=uniq,
        segment_quality=seg,
        per_node={
            "relevance": rel_nodes,
            "path_granularity": path_nodes,
            "sibling_granularity": sib_sets,
            "uniqueness": uniq_nodes,
            "segment_quality": seg_nodes,
        },
    )


def render_metric_table(report: MetricReport) -> str:
    """Human-readable one-row table; all columns scaled by 100."""

    def cell(value: float | None) -> str:
        return "---" if value is None else f"{value * 100:.2f}"

    header = f"{'Rel':>8} {'Path':>8} {'Sib':>8} {'Unique':>8} {'Seg':>8}"
    row = (
        f"{cell(report.node_relevance):>8} {cell(report.path_granularity):>8} "
        f"{cell(report.sibling_granularity):>8} {cell(report.uniqueness):>8} "
        f"{cell(report.segment_quality):>8}"
    )
    return header + "\n" + row + "\n"


# ---------------------------------------------------------------------------
# Pairwise comparison
# ---------------------------------------------------------------------------


def hierarchy_outline(tree: AspectHierarchy) -> str:
    """Indented label outline used inside judge prompts."""
    lines = []
    for node_id in tree.sorted_ids():
        node = tree.node(node_id)
        lines.append("  " * node.depth + f"- {node.label}")
    return "\n".join(lines)


def _pairwise_once(gateway: LlmGateway, first: AspectHierarchy, second: AspectHierarchy) -> str:
    prompt = (
        f"Two aspect hierarchies were constructed to deconstruct the claim: "
        f"{first.claim}.\n"
        f"Hierarchy A:\n{hierarchy_outline(first)}\n\n"
        f"Hierarchy B:\n{hierarchy_outline(second)}\n\n"
        "Decide which hierarchy better captures the aspects one would consider "
        "when evaluating the claim, weighing relevance, granularity, and "
        "uniqueness of the aspects. Answer 'A', 'B', or 'tie'. Provide a short "
        "rationale.\n"
        'Your output should be in JSON format: {"winner": "...", "rationale": "..."}'
    )
    return gateway.complete_json(
        PromptInstance("pairwise_judge", prompt, WINNER_SCHEMA, "pairwise")
    )["winner"]


def pairwise_compare(
    tree_a: AspectHierarchy, tree_b: AspectHierarchy, gateway: LlmGateway
) -> str:
    """Judge A vs. B in both presentation orders and reconcile the verdicts."""
    if tree_a.claim != tree_b.claim:
        raise UsageError("pairwise comparison requires hierarchies of one claim")
    first = _pairwise_once(gateway, tree_a, tree_b)
    second = _pairwise_once(gateway, tree_b, tree_a)
    pref_first = first  # sides presented as (A, B)
    pref_second = {"A": "B", "B": "A", "tie": "tie"}[second]  # presented as (B, A)
    if pref_first == pref_second:
        return {"A": "A_wins", "B": "B_wins", "tie": "explicit_tie"}[pref_first]
    return "implicit_tie"
