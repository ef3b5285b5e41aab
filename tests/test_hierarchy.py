import dataclasses
import json

import pytest

from claimlens.errors import (
    CorruptArtifact,
    EmptyAspectList,
    EmptyIndex,
    SchemaViolation,
    TooFewSubaspects,
)
from claimlens.hierarchy import AspectHierarchy, HierarchyBuilder, PerspectiveSet
from claimlens.llm_gateway import LlmGateway, MockChatProvider, OperationLog

from .conftest import DATA_DIR, build_index, make_segments

CLAIM = "Vaccine Alpha is better than Vaccine Beta"

PAPER_STYLE_KEYWORDS = [
    "neutralization", "immune stimulation", "post-dose antibody response",
    "waning immunity", "titer levels", "booster response", "seroconversion",
    "variant coverage", "protection duration", "dose sparing",
]


def kws(prefix, n=10):
    return [f"{prefix} kw{i}" for i in range(n)]


def aspects_payload():
    return {
        "aspects": [
            {"label": "efficacy", "description": "how well each works", "keywords": kws("eff")},
            {"label": "safety", "description": "adverse event profile", "keywords": kws("saf")},
            {"label": "distribution", "description": "logistics of delivery", "keywords": kws("dis")},
        ]
    }


def default_script(subaspect_labels=("first branch", "second branch")):
    return {
        "coarse_aspects": {"default": json.dumps(aspects_payload())},
        "keyword_extract": {"default": json.dumps({"keywords": kws("cand", 20)})},
        "keyword_filter": {
            "default": json.dumps({"keywords": PAPER_STYLE_KEYWORDS})
        },
        "subaspect_discovery": {
            "default": json.dumps(
                {
                    "subaspects": [
                        {"label": label, "description": f"{label} detail", "keywords": kws(label)}
                        for label in subaspect_labels
                    ]
                }
            )
        },
    }


SEGMENT_TEXTS = {
    f"p{i}#0-0": text
    for i, text in enumerate(
        [
            "Neutralization assays showed stronger antibody response for Alpha.",
            "Adverse events were mild for both vaccines across adult cohorts.",
            "Cold chain logistics favored Beta in remote regions.",
            "Immune stimulation persisted longer after the Alpha booster.",
            "Myocarditis rates in children were comparable between vaccines.",
            "Supply capacity constrained Alpha rollout in the first quarter.",
            "Waning immunity was slower for Alpha in elderly patients.",
            "Storage temperature requirements complicated Alpha distribution.",
        ]
    )
}


@pytest.fixture
def env(embedder, small_config):
    segments = make_segments(SEGMENT_TEXTS)
    index = build_index(embedder, list(segments.values()))
    return embedder, index, segments, small_config


def make_builder(env, script):
    embedder, index, segments, config = env
    gateway = LlmGateway(MockChatProvider(script), log=OperationLog())
    return HierarchyBuilder(gateway, embedder, index, segments, config)


# --- coarse aspects ---


def test_coarse_aspects_attach_to_root(env):
    builder = make_builder(env, default_script())
    tree = AspectHierarchy(CLAIM, max_depth=2)
    created = builder.discover_coarse_aspects(tree)
    assert [n.label for n in created] == ["efficacy", "safety", "distribution"]
    assert [n.node_id for n in created] == ["0.1", "0.2", "0.3"]
    assert all(n.depth == 1 and n.parent == "0" for n in created)
    assert tree.node("0").children == ["0.1", "0.2", "0.3"]


def test_zero_aspects_is_empty_aspect_list(env):
    script = default_script()
    script["coarse_aspects"] = {"default": json.dumps({"aspects": []})}
    builder = make_builder(env, script)
    with pytest.raises(EmptyAspectList):
        builder.discover_coarse_aspects(AspectHierarchy(CLAIM, 2))


def test_seven_keywords_is_schema_violation(env):
    payload = aspects_payload()
    payload["aspects"][0]["keywords"] = payload["aspects"][0]["keywords"][:7]
    script = default_script()
    script["coarse_aspects"] = {"default": json.dumps(payload)}
    builder = make_builder(env, script)
    with pytest.raises(SchemaViolation):
        builder.discover_coarse_aspects(AspectHierarchy(CLAIM, 2))


# --- enrichment ---


def test_enrich_replaces_keywords_in_significance_order(env):
    builder = make_builder(env, default_script())
    tree = AspectHierarchy(CLAIM, 2)
    builder.discover_coarse_aspects(tree)
    got = builder.enrich_keywords(tree, "0.1")
    assert got == PAPER_STYLE_KEYWORDS
    assert tree.node("0.1").keywords == PAPER_STYLE_KEYWORDS
    assert got[:2] == ["neutralization", "immune stimulation"]


def test_enrich_prompt_carries_node_query_fields(env):
    builder = make_builder(env, default_script())
    tree = AspectHierarchy(CLAIM, 2)
    builder.discover_coarse_aspects(tree)
    query = builder.node_query(tree, "0.2")
    assert query.startswith(f"Claim: {CLAIM}; Aspect: safety: adverse event profile")
    assert "saf kw0" in query


def test_enrich_collapses_duplicates_and_rejects_shortfall(env):
    script = default_script()
    dupes = ["alpha response"] * 5 + ["beta response"] * 5
    script["keyword_filter"] = {"default": json.dumps({"keywords": dupes})}
    builder = make_builder(env, script)
    tree = AspectHierarchy(CLAIM, 2)
    builder.discover_coarse_aspects(tree)
    with pytest.raises(SchemaViolation, match="distinct"):
        builder.enrich_keywords(tree, "0.1")


def test_enrich_empty_index(env, embedder, small_config):
    from claimlens.embedding import EmbeddingIndex

    _, _, segments, config = env
    gateway = LlmGateway(MockChatProvider(default_script()), log=OperationLog())
    builder = HierarchyBuilder(
        gateway, embedder, EmbeddingIndex(dim=256, capacity=0), segments, config
    )
    tree = AspectHierarchy(CLAIM, 2)
    builder.discover_coarse_aspects(tree)
    with pytest.raises(EmptyIndex):
        builder.enrich_keywords(tree, "0.1")


# --- subaspect discovery ---


def _enriched_tree(builder):
    tree = AspectHierarchy(CLAIM, 2)
    builder.discover_coarse_aspects(tree)
    for node_id in ("0.1", "0.2", "0.3"):
        builder.enrich_keywords(tree, node_id)
    return tree


def test_discover_subaspects_links_children(env):
    builder = make_builder(
        env, default_script(("safety for children", "safety for adults", "safety for elderly"))
    )
    tree = _enriched_tree(builder)
    ranked = builder.rank_node_segments(tree, "0.2")
    children = builder.discover_subaspects(tree, "0.2", ranked)
    assert [c.label for c in children] == [
        "safety for children", "safety for adults", "safety for elderly",
    ]
    assert [c.node_id for c in children] == ["0.2.1", "0.2.2", "0.2.3"]
    assert all(c.depth == 2 and c.parent == "0.2" for c in children)


def test_single_subaspect_is_too_few(env):
    builder = make_builder(env, default_script(("only child",)))
    tree = _enriched_tree(builder)
    ranked = builder.rank_node_segments(tree, "0.1")
    with pytest.raises(TooFewSubaspects):
        builder.discover_subaspects(tree, "0.1", ranked)


def test_too_many_subaspects_is_schema_violation(env):
    labels = tuple(f"branch {i}" for i in range(4))  # k_subaspects == 3
    builder = make_builder(env, default_script(labels))
    tree = _enriched_tree(builder)
    ranked = builder.rank_node_segments(tree, "0.1")
    with pytest.raises(SchemaViolation):
        builder.discover_subaspects(tree, "0.1", ranked)


# --- full build ---


def test_build_depth_zero_is_root_only(env):
    embedder, index, segments, config = env
    config.max_depth = 0
    builder = make_builder((embedder, index, segments, config), default_script())
    tree = builder.build()
    assert list(tree.nodes) == ["0"]
    assert [r for r in builder.gateway.log.records if r["kind"] == "llm_call"] == []


def test_build_depth_one_is_root_plus_coarse(env):
    embedder, index, segments, config = env
    config.max_depth = 1
    builder = make_builder((embedder, index, segments, config), default_script())
    tree = builder.build()
    assert tree.sorted_ids() == ["0", "0.1", "0.2", "0.3"]
    assert [r for r in builder.gateway.log.records if r["kind"] == "enrich"] == []
    assert [r for r in builder.gateway.log.records if r["kind"] == "rank"] == []


def test_build_shape_and_keyword_counts(env):
    builder = make_builder(env, default_script())
    tree = builder.build()
    tree.validate()
    config = builder.config
    for node in tree.nodes.values():
        assert node.depth <= config.max_depth
        if node.children:
            assert 2 <= len(node.children) <= config.k_subaspects
        if node.depth < config.max_depth and node.node_id != "0":
            assert len(node.keywords) == config.k_keywords


def test_expanded_nodes_have_ranked_segments(env):
    builder = make_builder(env, default_script())
    tree = builder.build()
    for node in tree.nodes.values():
        if node.children and node.node_id != "0":
            assert node.attached_segments
            assert len(node.attached_segments) <= builder.config.k_segments


def test_siblings_enriched_before_any_sibling_ranked(env):
    builder = make_builder(env, default_script())
    tree = builder.build()
    log = builder.gateway.log.records
    enriched_at = {
        r["node_id"]: i for i, r in enumerate(log) if r["kind"] == "enrich"
    }
    for i, record in enumerate(log):
        if record["kind"] != "rank":
            continue
        for sibling in tree.sibling_ids(record["node_id"]):
            assert enriched_at[sibling] < i


def test_build_deterministic(env):
    embedder, index, segments, config = env
    tree_a = make_builder((embedder, index, segments, config), default_script()).build()
    tree_b = make_builder((embedder, index, segments, config), default_script()).build()
    assert tree_a.to_dict("fp") == tree_b.to_dict("fp")


# --- serialization ---


def test_roundtrip_and_sorted_ids():
    tree = AspectHierarchy(CLAIM, 3)
    for i in range(11):
        tree.add_child("0", f"aspect {i}", "d", kws(f"a{i}"))
    ids = tree.sorted_ids()
    assert ids[1] == "0.1"
    assert ids.index("0.9") < ids.index("0.10")  # numeric path order
    data = tree.to_dict("fp")
    clone = AspectHierarchy.from_dict(data)
    assert clone.to_dict("fp") == data
    # A tree with perspectives parses them into typed sets and writes them back.
    golden = json.loads((DATA_DIR / "golden" / "hierarchy_perspectives.json").read_text())
    clone = AspectHierarchy.from_dict(golden)
    assert all(isinstance(n.perspectives, PerspectiveSet) for n in clone.nodes.values())
    assert clone.to_dict(golden["config_fingerprint"]) == golden


@pytest.mark.parametrize("golden", ["hierarchy.json", "hierarchy_perspectives.json"])
def test_node_dict_is_asdict_in_field_order_and_a_snapshot(golden):
    tree = AspectHierarchy.from_dict(json.loads((DATA_DIR / "golden" / golden).read_text()))
    for node in tree.nodes.values():
        data = node.to_dict()
        assert json.dumps(data) == json.dumps(dataclasses.asdict(node))
        data["keywords"].append("changed")
        data["attached_segments"].clear()
        if data["perspectives"] is not None:
            data["perspectives"]["support"]["segment_ids"].append("changed")
        assert json.dumps(node.to_dict()) == json.dumps(dataclasses.asdict(node))


def test_path_helpers():
    tree = AspectHierarchy(CLAIM, 3)
    child = tree.add_child("0", "safety", "d", [])
    grand = tree.add_child(child.node_id, "safety for adults", "d", [])
    assert tree.path_labels(grand.node_id) == [CLAIM, "safety", "safety for adults"]
    assert tree.path_string(grand.node_id) == (
        f"{CLAIM} -> safety -> safety for adults"
    )
    other = tree.add_child("0", "efficacy", "d", [])
    assert tree.sibling_ids(child.node_id) == [other.node_id]
    assert tree.sibling_ids("0") == []


def test_root_that_names_a_parent_is_refused():
    # A root that is its own parent would loop path_labels forever.
    data = json.loads((DATA_DIR / "golden" / "hierarchy_perspectives.json").read_text())
    data["nodes"][0]["parent"] = "0"
    with pytest.raises(CorruptArtifact, match="root 0 names a parent"):
        AspectHierarchy.from_dict(data)
