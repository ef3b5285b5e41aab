"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one `[criterion N] PASS/FAIL` line (visible with `pytest -v
-s` or in the captured output of a failing run).
"""

import functools
import json
import math
import random
import shutil
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from claimlens.cli import main
from claimlens.config import PipelineConfig
from claimlens.corpus import extract_terms, sentences_of, segment_document
from claimlens.embedding import EmbeddingIndex
from claimlens.evaluation import evaluate_hierarchy, pairwise_compare, render_metric_table
from claimlens.hierarchy import AspectHierarchy
from claimlens.perspective import FilterParams, PerspectiveSet, relevance_boundary
from claimlens.ranking import batch_target_scores, rank_segments

from . import oracles
from .conftest import DATA_DIR, make_two_topic_doc, rule_gateway
from .fixture_config import make_fixture_config

GOLDEN = DATA_DIR / "golden"


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s >= {budget_s}s"
    except BaseException:
        print(f"[criterion {number}] FAIL: {label}")
        raise
    print(f"[criterion {number}] PASS: {label} ({time.monotonic() - start:.2f}s)")


# ---------------------------------------------------------------------------
# 1. Zipf-weighted mean anchors
# ---------------------------------------------------------------------------


def _keywords_at(cosines) -> np.ndarray:
    """Keyword rows whose cosines against the segment e1 are exactly ``cosines``."""
    return np.array([[c, math.sqrt(1.0 - c * c)] for c in cosines])


def test_criterion_1_weighted_mean_anchors():
    with criterion(1, "weighted-mean worked examples", budget_s=1.0):
        e1 = np.array([[1.0, 0.0]])
        assert batch_target_scores(e1, _keywords_at([0.7, 0.8, 0.7]))[0] == pytest.approx(
            0.7272, abs=1e-4
        )
        # Head-only case per the formula as defined: (0.9/1) / (1 + 1/2 + 1/3).
        assert batch_target_scores(e1, _keywords_at([0.9, 0.0, 0.0]))[0] == pytest.approx(
            0.49091, abs=1e-5
        )


# ---------------------------------------------------------------------------
# 2. Ranking oracle suite
# ---------------------------------------------------------------------------


def _unit(rng: random.Random, dim: int) -> np.ndarray:
    vec = np.array([abs(rng.gauss(0.0, 1.0)) + 0.05 for _ in range(dim)])
    return vec / np.linalg.norm(vec)


def _instance(rng: random.Random, n_segments: int, dim: int = 6):
    ids = [f"s{i:04d}" for i in range(n_segments)]
    vectors = [_unit(rng, dim) for _ in range(n_segments)]
    index = EmbeddingIndex(dim=dim, capacity=n_segments)
    index.add_batch(ids, vectors)
    query = _unit(rng, dim)

    def kwset(count: int) -> np.ndarray:
        return np.array([_unit(rng, dim) for _ in range(count)])

    target = kwset(rng.randint(1, 10))
    siblings = [kwset(rng.randint(1, 10)) for _ in range(rng.randint(0, 4))]
    params = PipelineConfig(
        beta=rng.choice([0.5, 1.0, 2.0]),
        gamma=rng.choice([0.5, 1.0, 3.0]),
        pool_size=rng.randint(2, n_segments + 5),
        k_segments=rng.randint(1, 15),
        epsilon=1e-6,
    )
    return index, ids, vectors, query, target, siblings, params


def _sizes(rng: random.Random, count: int):
    sizes = []
    for i in range(count):
        if i % 33 == 0:
            sizes.append(rng.randint(250, 500))
        elif i % 8 == 0:
            sizes.append(rng.randint(80, 250))
        else:
            sizes.append(rng.randint(3, 80))
    return sizes


def test_criterion_2_ranking_matches_oracle_on_1000_instances():
    with criterion(2, "1000-instance ranking oracle equivalence", budget_s=30.0):
        rng = random.Random(20_2024)
        for n_segments in _sizes(rng, 1000):
            index, ids, vectors, query, target, siblings, params = _instance(
                rng, n_segments
            )
            got = rank_segments(index, query, target, siblings, params)
            expected = oracles.rank_pool(
                ids,
                [v.tolist() for v in vectors],
                query.tolist(),
                target.tolist(),
                [sib.tolist() for sib in siblings],
                params.pool_size,
                params.k_segments,
                params.beta,
                params.gamma,
                params.epsilon,
            )
            assert [s.segment_id for s in got] == [row[0] for row in expected]
            for s, row in zip(got, expected):
                assert abs(s.target - row[1]) < 1e-12
                assert abs(s.distractor - row[2]) < 1e-12
                assert abs(s.score - row[3]) < 1e-12


# ---------------------------------------------------------------------------
# 3. Argsort invariance under beta/gamma scaling
# ---------------------------------------------------------------------------


def test_criterion_3_argsort_invariance():
    with criterion(3, "beta/gamma scaling leaves order unchanged", budget_s=5.0):
        rng = random.Random(33)
        for trial in range(100):
            index, _, _, query, target, siblings, params = _instance(
                rng, rng.randint(3, 60)
            )
            base = rank_segments(index, query, target, siblings, params)
            c = rng.choice([1e-3, 0.5, 2.0, 17.0, 4096.0])
            if trial % 2 == 0:
                scaled = PipelineConfig(
                    beta=params.beta * c, gamma=params.gamma,
                    pool_size=params.pool_size, k_segments=params.k_segments,
                    epsilon=params.epsilon,
                )
            else:
                scaled = PipelineConfig(
                    beta=params.beta, gamma=params.gamma * c,
                    pool_size=params.pool_size, k_segments=params.k_segments,
                    epsilon=params.epsilon,
                )
            got = rank_segments(index, query, target, siblings, scaled)
            assert [s.segment_id for s in got] == [s.segment_id for s in base]


# ---------------------------------------------------------------------------
# 4. Binary-search relevance filter vs window-scan oracle
# ---------------------------------------------------------------------------


def test_criterion_4_relevance_boundary_oracle_and_call_bound():
    with criterion(4, "relevance boundary equals window-scan oracle", budget_s=10.0):
        rng = random.Random(44)
        for _ in range(50):
            size = rng.randint(100, 2000)
            cutoff = rng.randint(0, size)
            window = rng.choice([5, 10, 15])
            delta = rng.choice([0.3, 0.5, 0.7])
            params = FilterParams(delta=delta, window=window, min_chars=500)
            judge = functools.cache(lambda i, cutoff=cutoff: i < cutoff)
            got = relevance_boundary(size, judge, params)
            expected = oracles.window_scan_boundary(
                size, lambda i: i < cutoff, delta, window
            )
            assert got == expected
            assert judge.cache_info().misses <= (2 * window + 1) * math.ceil(math.log2(size))


# ---------------------------------------------------------------------------
# 5. End-to-end determinism and structure
# ---------------------------------------------------------------------------


def _run_pipeline(tmp: Path, tag: str) -> Path:
    out = tmp / tag
    config = make_fixture_config(DATA_DIR, out)
    cfg_path = tmp / f"{tag}.json"
    cfg_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    assert main(["ingest", "--config", str(cfg_path)]) == 0
    assert main(["build", "--config", str(cfg_path)]) == 0
    return out


def _structural_checks(data: dict, k_keywords: int, max_depth: int) -> None:
    nodes = {n["node_id"]: n for n in data["nodes"]}
    root = nodes["0"]
    assert root["parent"] is None
    # connectivity and acyclicity via BFS over child links
    seen = set()
    queue = deque(["0"])
    while queue:
        node_id = queue.popleft()
        assert node_id not in seen, "cycle detected"
        seen.add(node_id)
        node = nodes[node_id]
        assert node["depth"] <= max_depth
        for child_id in node["children"]:
            child = nodes[child_id]
            assert child["parent"] == node_id
            assert child["depth"] == node["depth"] + 1
            queue.append(child_id)
    assert seen == set(nodes), "tree is disconnected"
    for node_id, node in nodes.items():
        if node["children"]:
            assert 2 <= len(node["children"]) <= 5
        if node_id != "0":  # the root is the claim and carries no keywords
            assert len(node["keywords"]) == k_keywords


def test_criterion_5_end_to_end_determinism(tmp_path):
    with criterion(5, "byte-identical hierarchy across 3 runs + structure", budget_s=60.0):
        golden_bytes = (GOLDEN / "hierarchy.json").read_bytes()
        outputs = [
            (_run_pipeline(tmp_path, f"run{i}") / "hierarchy.json").read_bytes()
            for i in range(3)
        ]
        for got in outputs:
            assert got == golden_bytes
        config = make_fixture_config(DATA_DIR, tmp_path / "unused")
        data = json.loads(golden_bytes.decode("utf-8"))
        assert data["partial"] is False
        assert len(data["nodes"][0]["children"]) == 3
        _structural_checks(data, config.k_keywords, config.max_depth)


# ---------------------------------------------------------------------------
# 6. Perspective integrity on the fixture run
# ---------------------------------------------------------------------------


def test_criterion_6_perspective_integrity():
    with criterion(6, "stance partition + paper overlap on fixture run", budget_s=10.0):
        data = json.loads((GOLDEN / "hierarchy_perspectives.json").read_text())
        overlap_papers = set()
        dropped_total = 0
        for node in data["nodes"]:
            pset = PerspectiveSet.from_dict(node["perspectives"])
            support = set(pset.support.segment_ids)
            neutral = set(pset.neutral.segment_ids)
            oppose = set(pset.oppose.segment_ids)
            assert not support & neutral
            assert not support & oppose
            assert not neutral & oppose
            bucketed = support | neutral | oppose
            attached = set(node["attached_segments"])
            assert bucketed <= attached
            dropped_total += len(attached - bucketed)
            overlap_papers |= set(pset.support.paper_ids) & set(pset.oppose.paper_ids)
            bucket_paper_total = 0
            all_papers = set()
            for stance in ("support", "neutral", "oppose"):
                bucket = pset.bucket(stance)
                assert bucket.paper_ids == sorted(
                    {sid.split("#")[0] for sid in bucket.segment_ids}
                )
                bucket_paper_total += len(bucket.paper_ids)
                all_papers |= set(bucket.paper_ids)
            # conservation: overlap can only inflate the per-bucket total
            assert bucket_paper_total >= len(all_papers)
        assert overlap_papers, "no paper holds both support and oppose on one node"
        assert dropped_total > 0, "irrelevant exclusion never exercised"


# ---------------------------------------------------------------------------
# 7. Evaluation metrics and pairwise verdicts
# ---------------------------------------------------------------------------


def test_criterion_7_metrics_and_pairwise(tmp_path, capsys):
    with criterion(7, "metric report golden + all four pairwise verdicts", budget_s=5.0):
        out = tmp_path / "out"
        config = make_fixture_config(DATA_DIR, out)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        golden_tree = str(GOLDEN / "hierarchy_perspectives.json")
        # segment texts for the quality metric
        shutil.copytree(DATA_DIR / "transcript", tmp_path / "transcript")
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        assert main(["evaluate", "--config", str(cfg_path), golden_tree]) == 0
        assert (out / "metrics.json").read_bytes() == (GOLDEN / "metrics.json").read_bytes()
        assert (out / "metrics.txt").read_bytes() == (GOLDEN / "metrics.txt").read_bytes()

        # normalization convention: mean of (score - 1) / 3 over sibling sets
        metrics = json.loads((out / "metrics.json").read_text())
        sib_scores = metrics["per_node"]["sibling_granularity"].values()
        expected_sib = sum((s - 1) / 3 for s in sib_scores) / len(sib_scores)
        assert metrics["sibling_granularity"] == pytest.approx(expected_sib, abs=1e-12)

        # omission: a hierarchy without segments reports no segment quality
        tree = AspectHierarchy.from_dict(json.loads(Path(golden_tree).read_text()))
        for node in tree.nodes.values():
            node.attached_segments = []
        gateway = rule_gateway(
            lambda task, prompt: json.dumps({"score": 1, "rationale": "r"})
        )
        report = evaluate_hierarchy(tree, gateway, {})
        assert report.segment_quality is None
        assert "---" in render_metric_table(report)

        # all four verdict types, including the order-flip implicit tie
        def winner_sequence(answers):
            state = {"i": 0}

            def fn(task, prompt):
                value = answers[min(state["i"], len(answers) - 1)]
                state["i"] += 1
                return json.dumps({"winner": value})

            return rule_gateway(fn)

        other = AspectHierarchy(tree.claim, 1)
        other.add_child("0", "economics", "cost burden", ["kw"])
        cases = {
            ("A", "B"): "A_wins",
            ("B", "A"): "B_wins",
            ("tie", "tie"): "explicit_tie",
            ("A", "A"): "implicit_tie",
        }
        for answers, verdict in cases.items():
            assert pairwise_compare(tree, other, winner_sequence(list(answers))) == verdict


# ---------------------------------------------------------------------------
# 8. Topical segmenter vs exhaustive boundary oracle
# ---------------------------------------------------------------------------


def test_criterion_8_segmenter_boundary_oracle():
    with criterion(8, "two-topic boundary matches exhaustive oracle >= 19/20", budget_s=10.0):
        rng = random.Random(88)
        params = PipelineConfig(max_segments_per_doc=2)
        hits = 0
        for trial in range(20):
            doc = make_two_topic_doc(
                f"doc{trial}", rng, first=rng.randint(4, 10), second=rng.randint(4, 10)
            )
            segments = segment_document(doc, params)
            counts = [dict(extract_terms(s)) for s in sentences_of(doc)]
            rank = oracles.rank_matrix(oracles.similarity_matrix(counts), 11)
            expected = oracles.best_single_boundary(rank, 2)
            if len(segments) == 2 and segments[1].start == expected:
                hits += 1
        assert hits >= 19, f"only {hits}/20 boundaries matched the oracle"

        # tiling invariant on random documents, default parameters
        for trial in range(10):
            doc = make_two_topic_doc(
                f"tile{trial}", rng, first=rng.randint(1, 12), second=rng.randint(0, 12)
            )
            segments = segment_document(doc, PipelineConfig())
            spans = [(s.start, s.end) for s in segments]
            assert spans[0][0] == 0
            for (_, b), (c, _) in zip(spans, spans[1:]):
                assert c == b + 1
            assert spans[-1][1] == len(sentences_of(doc)) - 1
