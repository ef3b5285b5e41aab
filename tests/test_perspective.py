import functools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimlens.corpus import Segment
from claimlens.embedding import Embedder, EmbeddingIndex
from claimlens.errors import ClaimLensError, SchemaViolation
from claimlens.hierarchy import AspectHierarchy
from claimlens.llm_gateway import LlmGateway, MockChatProvider, OperationLog
from claimlens.perspective import (
    FilterParams,
    PerspectiveSet,
    claim_representation,
    classify_segments,
    consensus_counts,
    detect_stance,
    discover_perspectives,
    node_profile_text,
    relevance_boundary,
    summarize_perspectives,
)

from . import oracles
from .conftest import build_index, make_segments, rule_gateway

CLAIM = "Vaccine Alpha is better than Vaccine Beta"


class DictEmbedderProvider:
    """Exact vectors for scripted texts; zero-knowledge fallback elsewhere."""

    def __init__(self, table, dim):
        self.table = table
        self.dim = dim

    def embed(self, texts):
        out = []
        for text in texts:
            if text in self.table:
                out.append(list(self.table[text]))
            else:
                vec = [0.0] * self.dim
                vec[hash(text) % 1] = 1.0  # constant fallback: e0
                out.append(vec)
        return out


# --- claim representation ---


def test_claim_representation_equal_terms():
    shared = [0.6, 0.8, 0.0]
    table = {CLAIM: shared, f"efficacy with respect to {CLAIM}": shared,
             f"safety with respect to {CLAIM}": shared}
    embedder = Embedder(DictEmbedderProvider(table, 3))
    c0 = claim_representation(CLAIM, ["efficacy", "safety"], embedder)
    assert np.allclose(c0, np.array(shared) / np.linalg.norm(shared))


def test_claim_representation_single_child():
    table = {CLAIM: [1.0, 0.0], f"safety with respect to {CLAIM}": [0.0, 1.0]}
    embedder = Embedder(DictEmbedderProvider(table, 2))
    c0 = claim_representation(CLAIM, ["safety"], embedder)
    expected = np.array([0.5, 0.5])
    assert np.allclose(c0, expected / np.linalg.norm(expected))


def test_claim_representation_no_children():
    embedder = Embedder(DictEmbedderProvider({}, 2))
    with pytest.raises(ClaimLensError, match="^claim representation needs at least one coarse aspect$"):
        claim_representation(CLAIM, [], embedder)


# --- relevance boundary ---


def step_profile(n_relevant):
    return lambda i: i < n_relevant


def test_boundary_matches_linear_scan_on_step_profile():
    params = FilterParams(delta=0.5, window=10, min_chars=500)
    judge = functools.cache(step_profile(120))
    got = relevance_boundary(200, judge, params)
    expected = oracles.window_scan_boundary(200, step_profile(120), 0.5, 10)
    assert got == expected
    assert abs(got - 120) <= 10


def test_boundary_all_irrelevant():
    params = FilterParams(delta=0.5, window=10, min_chars=500)
    assert relevance_boundary(50, functools.cache(lambda i: False), params) == 0


def test_boundary_all_relevant():
    params = FilterParams(delta=0.5, window=10, min_chars=500)
    assert relevance_boundary(50, functools.cache(lambda i: True), params) == 50


def test_boundary_zero_segments():
    params = FilterParams(delta=0.5, window=10, min_chars=500)
    assert relevance_boundary(0, functools.cache(lambda i: True), params) == 0


def test_boundary_oracle_agreement_random_monotone_profiles():
    rng = random.Random(13)
    for _ in range(20):
        count = rng.randint(100, 800)
        cutoff = rng.randint(0, count)
        window = rng.choice([3, 5, 10])
        delta = rng.choice([0.3, 0.5, 0.7])
        params = FilterParams(delta=delta, window=window, min_chars=500)
        judge = functools.cache(step_profile(cutoff))
        got = relevance_boundary(count, judge, params)
        expected = oracles.window_scan_boundary(
            count, step_profile(cutoff), delta, window
        )
        assert got == expected


@settings(max_examples=300, deadline=None)
@given(
    count=st.integers(min_value=0, max_value=400),
    cutoff_fraction=st.floats(min_value=0.0, max_value=1.0),
    window=st.integers(min_value=1, max_value=15),
    delta=st.floats(min_value=0.01, max_value=0.99),
)
def test_boundary_is_the_window_scan_on_any_monotone_profile(count, cutoff_fraction, window, delta):
    """On a relevance profile that is true for the first ranks and false after,
    the binary search stops where the left-to-right window scan does."""
    cutoff = round(cutoff_fraction * count)
    params = FilterParams(delta=delta, window=window, min_chars=500)
    got = relevance_boundary(count, functools.cache(step_profile(cutoff)), params)
    assert got == oracles.window_scan_boundary(count, step_profile(cutoff), delta, window)


@st.composite
def judge_tables(draw):
    """Relevance by rank: a monotone step, or any table of verdicts."""
    count = draw(st.integers(min_value=0, max_value=300))
    if draw(st.booleans()):
        cutoff = draw(st.integers(min_value=0, max_value=count))
        return [i < cutoff for i in range(count)]
    return draw(st.lists(st.booleans(), min_size=count, max_size=count))


@settings(max_examples=300, deadline=None)
@given(table=judge_tables(), window=st.integers(min_value=1, max_value=15), data=st.data())
def test_settled_windows_give_the_full_window_boundary_from_a_subset_of_its_judgments(
    table, window, data
):
    """Stopping a window once its verdict is settled changes no probe's verdict,
    so the search returns the boundary that judging whole windows gives, monotone
    judge or not, and judges no rank that the whole-window search leaves alone."""
    size = 2 * window + 1
    delta = data.draw(st.one_of(
        st.floats(min_value=0.01, max_value=0.99),
        st.integers(min_value=1, max_value=size - 1).map(lambda k: k / size),  # ties
    ))

    def recording(judged):
        def judge(i):
            judged.add(i)
            return table[i]
        return judge

    full_judged, judged = set(), set()
    expected = oracles.full_window_boundary(len(table), recording(full_judged), delta, window)
    params = FilterParams(delta=delta, window=window, min_chars=500)
    assert relevance_boundary(len(table), functools.cache(recording(judged)), params) == expected
    assert judged <= full_judged


def _fresh_judgments(table, delta, window):
    judge = functools.cache(table.__getitem__)
    boundary = relevance_boundary(len(table), judge, FilterParams(delta, window, 500))
    return boundary, judge.cache_info().misses


def test_reuse_order_judges_fewer_fresh_ranks_than_rank_order_when_all_relevant():
    """Every rank relevant, as on the fixtures: judging each window where later
    probes look asks 25 fresh ranks for the boundary that rank order asks 34 for."""
    table = [True] * 71
    expected, rank_order = oracles.rank_order_settled_boundary(71, table.__getitem__, 0.5, 10)
    assert (expected, len(rank_order)) == (71, 34)
    assert _fresh_judgments(table, 0.5, 10) == (71, 25)


@pytest.mark.parametrize("count", [30, 71, 150, 400])
def test_reuse_order_judges_fewer_fresh_ranks_over_every_step_cutoff(count):
    """Summed over every cutoff of a monotone step, the reuse order asks fewer
    fresh ranks than rank order, for the same boundaries."""
    ours = theirs = 0
    for cutoff in range(count + 1):
        table = [i < cutoff for i in range(count)]
        expected, rank_order = oracles.rank_order_settled_boundary(
            count, table.__getitem__, 0.5, 10
        )
        boundary, fresh = _fresh_judgments(table, 0.5, 10)
        assert boundary == expected
        ours, theirs = ours + fresh, theirs + len(rank_order)
    assert ours < theirs


def test_judgment_economy_and_caching():
    params = FilterParams(delta=0.5, window=10, min_chars=500)
    count = 1500
    judge = functools.cache(step_profile(700))
    relevance_boundary(count, judge, params)
    bound = (2 * params.window + 1) * math.ceil(math.log2(count))
    assert judge.cache_info().misses <= bound
    assert judge.cache_info().misses == judge.cache_info().currsize  # each rank judged once


# --- classification ---


def basis(i, dim=6):
    vec = np.zeros(dim)
    vec[i] = 1.0
    return vec


@pytest.fixture
def fixture_tree_env():
    tree = AspectHierarchy(CLAIM, 2)
    a = tree.add_child("0", "alpha branch", "about alpha", ["a"])
    b = tree.add_child("0", "beta branch", "about beta", ["b"])
    a1 = tree.add_child(a.node_id, "alpha leaf one", "al1", ["a1"])
    a2 = tree.add_child(a.node_id, "alpha leaf two", "al2", ["a2"])
    b1 = tree.add_child(b.node_id, "beta leaf one", "bl1", ["b1"])
    b2 = tree.add_child(b.node_id, "beta leaf two", "bl2", ["b2"])
    profiles = {
        node_profile_text(n.label, n.description, n.keywords): basis(i)
        for i, n in enumerate([a, b, a1, a2, b1, b2])
    }
    embedder = Embedder(DictEmbedderProvider(profiles, 6))
    return tree, embedder, {"a": a, "b": b, "a1": a1, "a2": a2, "b1": b1, "b2": b2}


def test_segment_with_single_branch_vocabulary_attaches_in_that_subtree(fixture_tree_env):
    tree, embedder, nodes = fixture_tree_env
    index = EmbeddingIndex(dim=6, capacity=1)
    vec = 0.9 * basis(0) + 0.436 * basis(2)  # strongly alpha, leaf one flavored
    index.add_batch(["s1"], [vec / np.linalg.norm(vec)])
    got = classify_segments(["s1"], tree, embedder, index, relative_threshold=0.9)
    attached_at = [nid for nid, segs in got.items() if segs]
    assert attached_at == [nodes["a1"].node_id]
    # brute force: the most similar leaf is the attachment point
    leaves = [nodes[k] for k in ("a1", "a2", "b1", "b2")]
    sims = {
        n.node_id: oracles.cosine(index.get("s1").tolist(), basis(i + 2).tolist())
        for i, n in enumerate(leaves)
    }
    assert max(sims, key=sims.get) == nodes["a1"].node_id


def test_segment_equally_similar_to_both_branches_attaches_twice(fixture_tree_env):
    tree, embedder, nodes = fixture_tree_env
    index = EmbeddingIndex(dim=6, capacity=1)
    vec = basis(2) + basis(4)  # alpha leaf one + beta leaf one, nothing else
    index.add_batch(["s1"], [vec / np.linalg.norm(vec)])
    got = classify_segments(["s1"], tree, embedder, index, relative_threshold=0.9)
    attached_at = sorted(nid for nid, segs in got.items() if segs)
    assert attached_at == [nodes["a1"].node_id, nodes["b1"].node_id]


def test_empty_retained_set_attaches_nothing(fixture_tree_env):
    tree, embedder, _ = fixture_tree_env
    index = EmbeddingIndex(dim=6, capacity=1)
    index.add_batch(["s1"], [basis(0)])
    got = classify_segments([], tree, embedder, index, relative_threshold=0.9)
    assert all(not segs for segs in got.values())


def test_rootonly_tree_attaches_at_root():
    tree = AspectHierarchy(CLAIM, 0)
    embedder = Embedder(DictEmbedderProvider({}, 4))
    index = EmbeddingIndex(dim=4, capacity=1)
    index.add_batch(["s1"], [np.array([1.0, 0.0, 0.0, 0.0])])
    got = classify_segments(["s1"], tree, embedder, index, relative_threshold=0.9)
    assert got["0"] == ["s1"]


# --- stance detection ---


def stance_gateway(default):
    return LlmGateway(
        MockChatProvider({"stance_detect": {"default": json.dumps(default)}}),
        log=OperationLog(),
    )


def orientation_tree():
    tree = AspectHierarchy(CLAIM, 1)
    tree.add_child("0", "safety", "risk profile", ["adverse"])
    return tree


def test_detect_stance_roundtrip():
    tree = orientation_tree()
    seg = Segment("p1#0-0", "p1", 0, 0, "Alpha was safer.")
    gateway = stance_gateway({"stance": "supports_claim"})
    assert detect_stance(gateway, tree, "0.1", seg) == "supports_claim"


def test_detect_stance_rejects_unknown_label():
    tree = orientation_tree()
    seg = Segment("p1#0-0", "p1", 0, 0, "Alpha was safer.")
    gateway = stance_gateway({"stance": "mostly_true"})
    with pytest.raises(SchemaViolation):
        detect_stance(gateway, tree, "0.1", seg)


# --- summaries and consensus ---


def summarize_gateway():
    return LlmGateway(
        MockChatProvider(
            {"perspective_summarize": {"default": json.dumps({"summary": "canned view"})}}
        ),
        log=OperationLog(),
    )


def seg(segment_id, doc_id, text="text"):
    return Segment(segment_id, doc_id, 0, 0, text)


def test_summaries_dedupe_paper_ids():
    tree = orientation_tree()
    buckets = {
        "support": [seg("p1#0-0", "p1"), seg("p1#1-1", "p1"), seg("p2#0-0", "p2")],
        "neutral": [],
        "oppose": [],
    }
    pset = summarize_perspectives(summarize_gateway(), tree, "0.1", buckets)
    assert pset.support.paper_ids == ["p1", "p2"]
    assert pset.support.summary == "canned view"
    assert pset.neutral.summary == ""
    assert pset.neutral.segment_ids == []


def test_same_paper_may_appear_in_support_and_oppose():
    tree = orientation_tree()
    buckets = {
        "support": [seg("p1#0-0", "p1")],
        "neutral": [],
        "oppose": [seg("p1#3-4", "p1")],
    }
    pset = summarize_perspectives(summarize_gateway(), tree, "0.1", buckets)
    assert pset.support.paper_ids == ["p1"]
    assert pset.oppose.paper_ids == ["p1"]


def test_consensus_counts_paper_ratio():
    pset = PerspectiveSet.from_dict(
        {
            "support": {"summary": "s", "segment_ids": [f"s{i}" for i in range(12)],
                        "paper_ids": [f"p{i}" for i in range(8)]},
            "neutral": {"summary": "n", "segment_ids": ["x"], "paper_ids": ["p90"]},
            "oppose": {"summary": "o", "segment_ids": ["y"], "paper_ids": ["p91"]},
        }
    )
    counts = consensus_counts(pset)
    assert counts.papers == {"support": 8, "neutral": 1, "oppose": 1}
    assert counts.segments == {"support": 12, "neutral": 1, "oppose": 1}


def test_consensus_counts_granularity_distinction():
    pset = PerspectiveSet.from_dict(
        {
            "support": {"summary": "s", "segment_ids": [f"p1#{i}-{i}" for i in range(5)],
                        "paper_ids": ["p1"]},
            "neutral": {"summary": "", "segment_ids": [], "paper_ids": []},
            "oppose": {"summary": "", "segment_ids": [], "paper_ids": []},
        }
    )
    counts = consensus_counts(pset)
    assert counts.segments["support"] == 5
    assert counts.papers["support"] == 1


def test_consensus_counts_empty():
    counts = consensus_counts(PerspectiveSet())
    assert counts.segments == {"support": 0, "neutral": 0, "oppose": 0}
    assert counts.papers == {"support": 0, "neutral": 0, "oppose": 0}


# --- end-to-end perspective discovery ---


SEGMENT_TEXTS = {
    "p1#0-0": "Alpha showed stronger antibody response and efficacy overall.",
    "p1#1-1": "Alpha fared worse on adverse safety outcomes in trials.",
    "p2#0-0": "Safety monitoring found mild adverse events for both vaccines.",
    "p2#1-1": "Efficacy data indicate stronger protection from Alpha.",
    "p3#0-0": "Magnet coils and voltage regulators in the laboratory basement.",
    "p4#0-0": "Adverse reactions were stronger with Alpha in elderly safety data.",
}


def perspective_rules(task, prompt):
    if task == "relevance_judge":
        answer = "No" if "Magnet" in prompt or "magnet" in prompt else "Yes"
        return json.dumps({"answer": answer})
    if task == "stance_detect":
        if "magnet" in prompt.lower():
            return json.dumps({"stance": "irrelevant_to_claim"})
        if "worse" in prompt:
            return json.dumps({"stance": "opposes_claim"})
        if "stronger" in prompt:
            return json.dumps({"stance": "supports_claim"})
        return json.dumps({"stance": "neutral_to_claim"})
    if task == "perspective_summarize":
        return json.dumps({"summary": "summarized stance"})
    raise AssertionError(f"unexpected task {task}")


@pytest.fixture
def perspective_env(embedder):
    tree = AspectHierarchy(CLAIM, 1)
    tree.add_child("0", "efficacy", "antibody response and protection",
                   ["efficacy", "antibody", "protection"])
    tree.add_child("0", "safety", "adverse events and reactions",
                   ["safety", "adverse", "reactions"])
    segments = make_segments(SEGMENT_TEXTS)
    index = build_index(embedder, list(segments.values()))
    return tree, segments, index


def test_discover_perspectives_partitions_stances(perspective_env, embedder):
    tree, segments, index = perspective_env
    gateway = rule_gateway(perspective_rules)
    params = FilterParams(delta=0.5, window=2, min_chars=0)
    tree = discover_perspectives(
        gateway, embedder, index, segments, tree, params, relative_threshold=0.9
    )

    for node_id in tree.sorted_ids():
        node = tree.node(node_id)
        assert node.perspectives is not None
        pset = node.perspectives
        buckets = [set(pset.bucket(s).segment_ids) for s in ("support", "neutral", "oppose")]
        # pairwise disjoint
        assert not (buckets[0] & buckets[1])
        assert not (buckets[0] & buckets[2])
        assert not (buckets[1] & buckets[2])
        bucketed = buckets[0] | buckets[1] | buckets[2]
        assert bucketed <= set(node.attached_segments)
        # union is everything attached minus the irrelevant ones
        for segment_id in node.attached_segments:
            dropped = segment_id not in bucketed
            assert dropped == ("magnet" in segments[segment_id].text.lower())


def test_discover_perspectives_each_pair_judged_once(perspective_env, embedder):
    tree, segments, index = perspective_env
    gateway = rule_gateway(perspective_rules)
    params = FilterParams(delta=0.5, window=2, min_chars=0)
    tree = discover_perspectives(
        gateway, embedder, index, segments, tree, params, relative_threshold=0.9
    )
    stance_calls = [
        r for r in gateway.log.records
        if r["kind"] == "llm_call" and r["task"] == "stance_detect"
    ]
    total_attachments = sum(
        len(tree.node(n).attached_segments) for n in tree.sorted_ids()
    )
    assert len(stance_calls) == total_attachments


def test_discover_perspectives_all_irrelevant_leaves_empty_sets(perspective_env, embedder):
    tree, segments, index = perspective_env

    def all_no(task, prompt):
        if task == "relevance_judge":
            return json.dumps({"answer": "No"})
        raise AssertionError("nothing else should be called")

    gateway = rule_gateway(all_no)
    params = FilterParams(delta=0.5, window=2, min_chars=0)
    tree = discover_perspectives(
        gateway, embedder, index, segments, tree, params, relative_threshold=0.9
    )
    for node_id in tree.sorted_ids():
        node = tree.node(node_id)
        assert node.attached_segments == []
        pset = node.perspectives
        for stance in ("support", "neutral", "oppose"):
            assert pset.bucket(stance).segment_ids == []
            assert pset.bucket(stance).summary == ""


def test_segment_of_exactly_min_chars_is_a_candidate(perspective_env, embedder):
    tree, segments, index = perspective_env
    floor = len(SEGMENT_TEXTS["p1#1-1"])
    kept = sorted(sid for sid, text in SEGMENT_TEXTS.items() if len(text) >= floor)
    assert "p1#1-1" in kept and len(kept) < len(SEGMENT_TEXTS)
    gateway = rule_gateway(perspective_rules)
    params = FilterParams(delta=0.5, window=2, min_chars=floor)
    discover_perspectives(gateway, embedder, index, segments, tree, params, relative_threshold=0.9)
    [record] = [r for r in gateway.log.records if r["kind"] == "relevance_filter"]
    assert record["candidates"] == len(kept)


def test_min_chars_floor_excludes_short_segments(perspective_env, embedder):
    tree, segments, index = perspective_env
    gateway = rule_gateway(perspective_rules)
    params = FilterParams(delta=0.5, window=2, min_chars=10_000)
    tree = discover_perspectives(
        gateway, embedder, index, segments, tree, params, relative_threshold=0.9
    )
    assert all(not tree.node(n).attached_segments for n in tree.sorted_ids())
    assert [r for r in gateway.log.records if r["kind"] == "llm_call"] == []
