import json

import pytest

from claimlens.errors import ProviderUnavailable, SchemaViolation, UsageError
from claimlens.evaluation import (
    evaluate_hierarchy,
    hierarchy_outline,
    node_relevance,
    pairwise_compare,
    path_granularity,
    render_metric_table,
    segment_quality,
    sibling_granularity,
    uniqueness,
)
from claimlens.hierarchy import AspectHierarchy
from claimlens.llm_gateway import LlmGateway, MockChatProvider, OperationLog

from .conftest import make_segments, rule_gateway

CLAIM = "Vaccine Alpha is better than Vaccine Beta"


def sample_tree():
    tree = AspectHierarchy(CLAIM, 2)
    eff = tree.add_child("0", "efficacy", "protection", ["kw"])
    saf = tree.add_child("0", "safety", "risk", ["kw"])
    tree.add_child(eff.node_id, "antibody response", "titers", ["kw"])
    tree.add_child(eff.node_id, "breakthrough infections", "escape", ["kw"])
    tree.add_child(saf.node_id, "safety for adults", "adults", ["kw"])
    tree.add_child(saf.node_id, "safety for children", "children", ["kw"])
    return tree


def constant_judge(score):
    return rule_gateway(lambda task, prompt: json.dumps({"score": score, "rationale": "r"}))


# --- node relevance ---


def test_node_relevance_all_relevant():
    value, per_node = node_relevance(sample_tree(), constant_judge(1))
    assert value == 1.0
    assert len(per_node) == 6  # root excluded


def test_node_relevance_one_negative():
    def judge(task, prompt):
        score = 0 if "safety for children" in prompt else 1
        return json.dumps({"score": score, "rationale": "r"})

    tree = sample_tree()
    value, per_node = node_relevance(tree, rule_gateway(judge))
    assert value == pytest.approx(5 / 6)
    assert per_node["0.2.2"] == 0


def test_node_relevance_root_only_tree_judges_root():
    tree = AspectHierarchy(CLAIM, 0)
    value, per_node = node_relevance(tree, constant_judge(1))
    assert value == 1.0
    assert list(per_node) == ["0"]


# --- path granularity ---


def test_path_granularity_root_only_tree_is_vacuous():
    tree = AspectHierarchy(CLAIM, 0)
    gateway = rule_gateway(lambda t, p: (_ for _ in ()).throw(AssertionError("no calls")))
    assert path_granularity(tree, gateway) == (1.0, {})


def test_path_granularity_all_good():
    value, per_node = path_granularity(sample_tree(), constant_judge(1))
    assert value == 1.0
    assert len(per_node) == 6


def test_path_granularity_detects_flat_child():
    tree = sample_tree()
    tree.add_child("0.1", "efficacy", "same label as parent", ["kw"])

    def judge(task, prompt):
        # strict judge: a path repeating a label is not granular
        path = prompt.split("granularity: ")[1].split(".\n")[0]
        steps = path.split(" -> ")
        score = 0 if len(steps) != len(set(steps)) else 1
        return json.dumps({"score": score, "rationale": "r"})

    value, per_node = path_granularity(tree, rule_gateway(judge))
    assert per_node["0.1.3"] == 0
    assert value == pytest.approx(6 / 7)


def test_path_granularity_single_level_tree():
    tree = AspectHierarchy(CLAIM, 1)
    tree.add_child("0", "efficacy", "d", ["kw"])
    tree.add_child("0", "safety", "d", ["kw"])
    value, per_node = path_granularity(tree, constant_judge(1))
    assert value == 1.0
    assert sorted(per_node) == ["0.1", "0.2"]


# --- sibling granularity ---


def test_sibling_granularity_scale_top():
    value, _ = sibling_granularity(sample_tree(), constant_judge(4))
    assert value == 1.0


def test_sibling_granularity_scale_bottom():
    value, _ = sibling_granularity(sample_tree(), constant_judge(1))
    assert value == 0.0


def test_sibling_granularity_mixed_sets():
    def judge(task, prompt):
        score = 4 if "efficacy" in prompt.split("parent aspect")[1][:40] else 2
        return json.dumps({"score": score, "rationale": "r"})

    tree = AspectHierarchy(CLAIM, 2)
    eff = tree.add_child("0", "efficacy", "d", ["kw"])
    tree.add_child(eff.node_id, "a", "d", ["kw"])
    tree.add_child(eff.node_id, "b", "d", ["kw"])
    # root set: [efficacy] alone is skipped (single child)
    value, per_set = sibling_granularity(tree, rule_gateway(judge))
    assert per_set == {"0.1": 4}
    assert value == 1.0

    tree.add_child("0", "safety", "d", ["kw"])  # root now has 2 children
    value, per_set = sibling_granularity(tree, rule_gateway(judge))
    assert per_set == {"0": 2, "0.1": 4}
    assert value == pytest.approx((1 / 3 + 1.0) / 2)


def test_sibling_granularity_out_of_scale_is_schema_violation():
    with pytest.raises(SchemaViolation):
        sibling_granularity(sample_tree(), constant_judge(7))


def test_sibling_granularity_no_sets():
    tree = AspectHierarchy(CLAIM, 0)
    value, per_set = sibling_granularity(tree, constant_judge(4))
    assert value is None
    assert per_set == {}


# --- uniqueness ---


def test_uniqueness_flags_duplicate_labels():
    tree = sample_tree()
    tree.add_child("0.2", "antibody response", "duplicate of efficacy child", ["kw"])

    def judge(task, prompt):
        label = prompt.split("aspect '")[1].split("'")[0]
        outline = prompt.split("hierarchy:\n")[1].split("\nScore 1")[0]
        count = sum(1 for line in outline.splitlines() if line.strip() == f"- {label}")
        score = 0 if count > 1 else 1
        return json.dumps({"score": score, "rationale": "r"})

    value, per_node = uniqueness(tree, rule_gateway(judge))
    assert per_node["0.1.1"] == 0
    assert per_node["0.2.3"] == 0
    assert value == pytest.approx(5 / 7)


def test_uniqueness_all_distinct():
    value, _ = uniqueness(sample_tree(), constant_judge(1))
    assert value == 1.0


def test_uniqueness_single_node_vacuous():
    tree = AspectHierarchy(CLAIM, 0)
    gateway = rule_gateway(lambda t, p: (_ for _ in ()).throw(AssertionError("no calls")))
    value, per_node = uniqueness(tree, gateway)
    assert value == 1.0
    assert per_node == {}


# --- segment quality ---


def test_segment_quality_fraction():
    tree = sample_tree()
    tree.node("0.1").attached_segments = ["p1#0-0", "p1#1-1", "p2#0-0", "p2#1-1"]
    segments = make_segments(
        {
            "p1#0-0": "good evidence",
            "p1#1-1": "good evidence",
            "p2#0-0": "good evidence",
            "p2#1-1": "off topic noise",
        }
    )

    def judge(task, prompt):
        score = 0 if "off topic noise" in prompt else 1
        return json.dumps({"score": score, "rationale": "r"})

    value, per_node = segment_quality(tree, rule_gateway(judge), segments)
    assert per_node["0.1"] == pytest.approx(0.75)
    assert value == pytest.approx(0.75)


def test_segment_quality_absent_without_segments():
    value, per_node = segment_quality(sample_tree(), constant_judge(1), {})
    assert value is None
    assert per_node == {}


def test_segment_quality_all_relevant():
    tree = sample_tree()
    tree.node("0.1").attached_segments = ["p1#0-0"]
    tree.node("0.2").attached_segments = ["p2#0-0"]
    segments = make_segments({"p1#0-0": "a", "p2#0-0": "b"})
    value, _ = segment_quality(tree, constant_judge(1), segments)
    assert value == 1.0


# --- full report ---


def test_report_table_rendering_and_omission():
    report = evaluate_hierarchy(sample_tree(), constant_judge(1), {})
    assert report.segment_quality is None
    table = render_metric_table(report)
    assert "Rel" in table and "Seg" in table
    assert "100.00" in table
    assert "---" in table  # segment quality omitted


def test_report_reproducible():
    a = evaluate_hierarchy(sample_tree(), constant_judge(1), {}).to_dict()
    b = evaluate_hierarchy(sample_tree(), constant_judge(1), {}).to_dict()
    assert a == b


def test_judge_errors_keep_their_class_and_name_their_locus():
    gateway = LlmGateway(MockChatProvider({}), log=OperationLog())  # no fixtures
    with pytest.raises(SchemaViolation, match=r" \(relevance node=0\.1\)$"):
        node_relevance(sample_tree(), gateway)

    class Down(ProviderUnavailable):
        """A subclass no ``except`` names: the gateway must re-raise it as itself."""

    class DownProvider:
        def complete(self, task, prompt, base_hash):
            raise Down("down")

    gateway = LlmGateway(DownProvider(), log=OperationLog())
    with pytest.raises(Down, match=r"^down \(relevance node=0\.1\)$"):
        node_relevance(sample_tree(), gateway)
    with pytest.raises(Down, match=r"^down \(pairwise\)$"):
        pairwise_compare(sample_tree(), sample_tree(), gateway)


# --- pairwise ---


def winner_gateway(sequence):
    responses = list(sequence)
    state = {"i": 0}

    def fn(task, prompt):
        value = responses[min(state["i"], len(responses) - 1)]
        state["i"] += 1
        return json.dumps({"winner": value, "rationale": "r"})

    return rule_gateway(fn)


def variant_tree():
    tree = AspectHierarchy(CLAIM, 1)
    tree.add_child("0", "economics", "cost", ["kw"])
    return tree


def test_pairwise_consistent_a():
    # judge prefers the A side in both presentations: A, then B(=A presented second)
    assert pairwise_compare(sample_tree(), variant_tree(), winner_gateway(["A", "B"])) == "A_wins"


def test_pairwise_consistent_b():
    assert pairwise_compare(sample_tree(), variant_tree(), winner_gateway(["B", "A"])) == "B_wins"


def test_pairwise_explicit_tie():
    assert (
        pairwise_compare(sample_tree(), variant_tree(), winner_gateway(["tie", "tie"]))
        == "explicit_tie"
    )


def test_pairwise_implicit_tie_on_order_flip():
    # first-presented wins both times -> preference flips with order
    assert (
        pairwise_compare(sample_tree(), variant_tree(), winner_gateway(["A", "A"]))
        == "implicit_tie"
    )


def test_pairwise_self_comparison_is_a_tie():
    def deterministic(task, prompt):
        return json.dumps({"winner": "A", "rationale": "always the first shown"})

    verdict = pairwise_compare(sample_tree(), sample_tree(), rule_gateway(deterministic))
    assert verdict in ("explicit_tie", "implicit_tie")


def test_pairwise_requires_shared_claim():
    other = AspectHierarchy("a different claim", 1)
    with pytest.raises(UsageError):
        pairwise_compare(sample_tree(), other, winner_gateway(["A", "B"]))


def test_outline_indents_by_depth():
    outline = hierarchy_outline(sample_tree())
    lines = outline.splitlines()
    assert lines[0] == f"- {CLAIM}"
    assert lines[1] == "  - efficacy"
    assert lines[2] == "    - antibody response"
