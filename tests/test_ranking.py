import math
import random

import numpy as np
import pytest

from claimlens.config import PipelineConfig
from claimlens.embedding import EmbeddingIndex
from claimlens.errors import EmptyKeywordSet
from claimlens.ranking import (
    batch_distractor_scores,
    batch_target_scores,
    discriminativeness,
    keyword_query_text,
    node_query_text,
    rank_segments,
)

from . import oracles


def _angled(c: float) -> np.ndarray:
    return np.array([c, math.sqrt(1.0 - c * c)])


def queries_at(cosines) -> np.ndarray:
    """Keyword query rows whose cosine against e1 is exactly the given value."""
    return np.array([_angled(c) for c in cosines])


E1 = np.array([1.0, 0.0])


# --- Zipf-weighted mean, through the target score of e1 ---


def test_zipf_mean_worked_example():
    assert batch_target_scores(E1[None], queries_at([0.7, 0.8, 0.7]))[0] == pytest.approx(
        0.727272727, abs=1e-6
    )


def test_zipf_mean_constant():
    for c in (0.0, 0.25, 1.0):
        assert batch_target_scores(E1[None], queries_at([c] * 7))[0] == pytest.approx(c)


def test_zipf_mean_head_heavy():
    # (0.9/1) / (1 + 1/2 + 1/3) computed directly
    assert batch_target_scores(E1[None], queries_at([0.9, 0.0, 0.0]))[0] == pytest.approx(
        0.490909090, abs=1e-6
    )


def test_zipf_mean_order_sensitive():
    assert batch_target_scores(E1[None], queries_at([1.0, 0.0]))[0] > batch_target_scores(
        E1[None], queries_at([0.0, 1.0])
    )[0]


# --- target score ---


def test_target_score_worked_example():
    assert batch_target_scores(E1[None], queries_at([0.7, 0.8, 0.7]))[0] == pytest.approx(
        0.727272727, abs=1e-6
    )


def test_target_score_identity():
    assert batch_target_scores(E1[None], queries_at([1.0, 1.0, 1.0]))[0] == pytest.approx(1.0)


def test_target_score_clamps_negative_similarity():
    queries = np.array([[-1.0, 0.0], [0.0, 1.0]])
    assert batch_target_scores(E1[None], queries)[0] == 0.0


def test_target_score_empty_keywords():
    with pytest.raises(EmptyKeywordSet):
        batch_target_scores(E1[None], np.empty((0, 2)))


# --- distractor score ---


def test_distractor_single_sibling_mean_equals_max():
    sibling = [queries_at([0.4])]
    assert batch_distractor_scores(E1[None], sibling)[0] == pytest.approx(0.4)


def test_distractor_two_siblings():
    siblings = [queries_at([0.2]), queries_at([0.6])]
    # 0.5 * mean(0.2, 0.6) + 0.5 * max(0.2, 0.6)
    assert batch_distractor_scores(E1[None], siblings)[0] == pytest.approx(0.5)


def test_distractor_no_siblings():
    assert batch_distractor_scores(E1[None], [])[0] == 0.0


# --- discriminativeness ---


def test_discriminativeness_ratio():
    assert discriminativeness(0.8, 0.4, PipelineConfig()) == pytest.approx(2.0)


def test_discriminativeness_epsilon_floor():
    score = discriminativeness(0.5, 0.0, PipelineConfig(epsilon=1e-6))
    assert score == pytest.approx(5e5)
    assert math.isfinite(score)


def test_discriminativeness_scaling():
    assert discriminativeness(0.3, 0.3, PipelineConfig(beta=2.0)) == pytest.approx(2.0)


def test_discriminativeness_no_sibling_is_target():
    assert discriminativeness(0.73, None, PipelineConfig(beta=9.0)) == 0.73


# --- query text construction ---


def test_keyword_query_text_lists_ancestors_root_first():
    text = keyword_query_text("cold chain", ["claim X", "distribution"])
    assert text == "cold chain with respect to claim X, distribution"


def test_node_query_text_format():
    text = node_query_text("claim X", "safety", "risk profile", ["kw1", "kw2"])
    assert text == "Claim: claim X; Aspect: safety: risk profile; Aspect Keywords: kw1, kw2"


# --- rank_segments ---


def _random_unit(rng, dim):
    vec = np.array([abs(rng.gauss(0, 1)) + 0.05 for _ in range(dim)])
    return vec / np.linalg.norm(vec)


def _random_instance(rng, dim=8, max_segments=60):
    n = rng.randint(3, max_segments)
    ids = [f"s{i:04d}" for i in range(n)]
    vectors = [_random_unit(rng, dim) for _ in range(n)]
    index = EmbeddingIndex(dim=dim, capacity=n)
    index.add_batch(ids, vectors)
    query = _random_unit(rng, dim)

    def kwset(count):
        return np.array([_random_unit(rng, dim) for _ in range(count)])

    target = kwset(rng.randint(1, 10))
    siblings = [kwset(rng.randint(1, 10)) for _ in range(rng.randint(0, 4))]
    params = PipelineConfig(
        beta=rng.choice([0.5, 1.0, 2.0]),
        gamma=rng.choice([0.5, 1.0, 3.0]),
        pool_size=rng.randint(2, n + 10),
        k_segments=rng.randint(1, 12),
        epsilon=1e-6,
    )
    return index, ids, vectors, query, target, siblings, params


def _oracle_rows(ids, vectors, query, target, siblings, params):
    return oracles.rank_pool(
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


def test_rank_segments_matches_brute_force_oracle():
    rng = random.Random(101)
    for _ in range(25):
        index, ids, vectors, query, target, siblings, params = _random_instance(rng)
        got = rank_segments(index, query, target, siblings, params)
        expected = _oracle_rows(ids, vectors, query, target, siblings, params)
        assert [s.segment_id for s in got] == [row[0] for row in expected]
        for s, row in zip(got, expected):
            assert s.target == pytest.approx(row[1], abs=1e-12)
            assert s.distractor == pytest.approx(row[2], abs=1e-12)
            assert s.score == pytest.approx(row[3], abs=1e-12)


def test_segment_matching_target_only_ranks_first():
    # One segment aligned with every target query and orthogonal to the
    # sibling set; the others flipped. Brute force agrees it wins.
    dim = 4
    index = EmbeddingIndex(dim=dim, capacity=3)
    on_aspect = np.array([1.0, 0.0, 0.0, 0.0])
    off_aspect = np.array([0.0, 1.0, 0.0, 0.0])
    mixed = np.array([0.5, 0.5, 0.0, 0.0]) / np.linalg.norm([0.5, 0.5, 0.0, 0.0])
    index.add_batch(["on"], [on_aspect])
    index.add_batch(["off"], [off_aspect])
    index.add_batch(["mixed"], [mixed])
    target = np.array([[1.0, 0.0, 0.0, 0.0]])
    sibling = [np.array([[0.0, 1.0, 0.0, 0.0]])]
    params = PipelineConfig(pool_size=3, k_segments=3)
    got = rank_segments(index, np.array([1.0, 1.0, 1.0, 1.0]) / 2.0, target, sibling, params)
    assert got[0].segment_id == "on"
    rows = _oracle_rows(
        ["on", "off", "mixed"], [on_aspect, off_aspect, mixed],
        np.array([0.5, 0.5, 0.5, 0.5]), target, sibling, params,
    )
    assert rows[0][0] == "on"


def test_constant_distractor_preserves_target_order():
    # All segments share one off-axis coordinate (constant sibling pull), so
    # ranking must equal the target-only ranking.
    rng = random.Random(7)
    dim = 5
    index = EmbeddingIndex(dim=dim, capacity=12)
    ids = []
    for i in range(12):
        raw = np.array([abs(rng.gauss(0, 1)) for _ in range(3)] + [0.0, 0.0])
        raw = 0.6 * raw / np.linalg.norm(raw)
        vec = raw + np.array([0.0, 0.0, 0.0, 0.8, 0.0])
        sid = f"s{i:02d}"
        index.add_batch([sid], [vec / np.linalg.norm(vec)])
        ids.append(sid)
    target = np.array([_random_unit(rng, dim) for _ in (1, 2)])
    siblings = [np.array([[0.0, 0.0, 0.0, 1.0, 0.0]])]
    params = PipelineConfig(pool_size=12, k_segments=12)
    with_sibling = rank_segments(index, _random_unit(rng, dim), target, siblings, params)
    # distractor is not exactly constant (unit renormalization), but close;
    # compare against target ordering instead
    target_only = sorted(with_sibling, key=lambda s: (-s.target, s.segment_id))
    assert [s.segment_id for s in with_sibling] == [s.segment_id for s in target_only]


def test_pool_larger_than_corpus_uses_whole_corpus():
    rng = random.Random(3)
    index = EmbeddingIndex(dim=4, capacity=5)
    for i in range(5):
        index.add_batch([f"s{i}"], [_random_unit(rng, 4)])
    params = PipelineConfig(pool_size=50, k_segments=50)
    target = np.array([_random_unit(rng, 4)])
    got = rank_segments(index, _random_unit(rng, 4), target, [], params)
    assert len(got) == 5


def test_argsort_invariance_under_beta_gamma_scaling():
    rng = random.Random(55)
    for _ in range(10):
        index, ids, vectors, query, target, siblings, params = _random_instance(rng)
        if not siblings:
            siblings = [np.array([_random_unit(rng, 8)])]
        base = rank_segments(index, query, target, siblings, params)
        for c in (0.01, 3.0, 250.0):
            scaled_beta = PipelineConfig(
                beta=params.beta * c, gamma=params.gamma,
                pool_size=params.pool_size, k_segments=params.k_segments,
                epsilon=params.epsilon,
            )
            scaled = rank_segments(index, query, target, siblings, scaled_beta)
            assert [s.segment_id for s in scaled] == [s.segment_id for s in base]
            for a, b in zip(scaled, base):
                assert a.score == pytest.approx(b.score * c, rel=1e-9)


def test_target_monotone_in_single_similarity():
    rng = random.Random(9)
    for _ in range(50):
        sims = [rng.random() for _ in range(rng.randint(1, 10))]
        base = batch_target_scores(E1[None], queries_at(sims))[0]
        i = rng.randrange(len(sims))
        bumped = list(sims)
        bumped[i] = min(1.0, bumped[i] + rng.random() * (1 - bumped[i]))
        assert batch_target_scores(E1[None], queries_at(bumped))[0] >= base - 1e-15


def test_distractor_monotone_in_sibling_similarity():
    # Orthogonal sibling axes let each clamped similarity be set directly by
    # one coordinate (the scorer works on raw dot products), so bumping one
    # coordinate raises exactly one sibling similarity.
    rng = random.Random(19)
    siblings = [
        np.array([[1.0, 0.0, 0.0]]),
        np.array([[0.0, 1.0, 0.0]]),
    ]
    for _ in range(100):
        seg = np.array([rng.random(), rng.random(), rng.random()])
        base = batch_distractor_scores(seg[None], siblings)[0]
        i = rng.randrange(2)
        bumped = seg.copy()
        bumped[i] = min(1.0, bumped[i] + rng.random() * (1.0 - bumped[i]))
        assert batch_distractor_scores(bumped[None], siblings)[0] >= base - 1e-12


def test_scores_are_nonnegative_and_finite():
    rng = random.Random(77)
    for _ in range(10):
        index, _, _, query, target, siblings, params = _random_instance(rng)
        for s in rank_segments(index, query, target, siblings, params):
            assert 0.0 <= s.target <= 1.0
            assert 0.0 <= s.distractor <= 1.0
            assert s.score >= 0.0
            assert math.isfinite(s.score)
