import hashlib
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimlens.embedding import (
    Embedder,
    EmbeddingIndex,
    HashedBowEmbedder,
    _tokens,
    normalize,
)
from claimlens.errors import (
    CorruptArtifact,
    DimensionMismatch,
    EmptyIndex,
    ProviderUnavailable,
    ZeroVector,
)

from . import oracles


class ListProvider:
    def __init__(self, vectors):
        self.vectors = vectors

    def embed(self, texts):
        return self.vectors[: len(texts)]


# --- embed_texts ---


def test_mock_provider_deterministic(embedder):
    a, b = embedder.embed_texts(["same text", "same text"])
    assert np.array_equal(a, b)
    again = embedder.embed_one("same text")
    assert np.array_equal(a, again)


def test_distinct_texts_not_identical(embedder):
    a, b = embedder.embed_texts(["aaa", "zzz"])
    assert float(a @ b) < 1.0


def test_vectors_unit_norm(embedder):
    vectors = embedder.embed_texts(["one two three", "four five", "six"])
    for vec in vectors:
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9


def test_mixed_dims_rejected():
    embedder = Embedder(ListProvider([[1.0, 0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        embedder.embed_texts(["a", "b"])


def test_wrong_count_rejected():
    embedder = Embedder(ListProvider([[1.0, 0.0]]))
    with pytest.raises(ProviderUnavailable):
        embedder.embed_texts(["a", "b"])


class ReplyProvider:
    def __init__(self, reply):
        self.reply = reply

    def embed(self, texts):
        return self.reply


@pytest.mark.parametrize(
    "reply, error",
    [
        ([[1.0, 0.0, 0.0], [1.0, 0.0]], DimensionMismatch),
        ([[[1.0, 0.0]], [[0.0, 1.0]]], DimensionMismatch),
        ([1.0, 0.0], DimensionMismatch),
        ([[1.0, "abc"], [0.0, 1.0]], ProviderUnavailable),
        ([[1.0, {"x": 1}], [0.0, 1.0]], ProviderUnavailable),
        ([[1.0, [2.0]], [0.0, 1.0]], ProviderUnavailable),
        ("abc", ProviderUnavailable),
        (5, ProviderUnavailable),
        ([[1.0, 0.0]], ProviderUnavailable),
        ([[float("nan"), 1.0], [0.0, 1.0]], ProviderUnavailable),
        ([[1.0, float("inf")], [0.0, 1.0]], ProviderUnavailable),
        ([[None, 1.0], [0.0, 1.0]], ProviderUnavailable),
        ([[0.0, 0.0], [0.0, 1.0]], ZeroVector),
        ([["1.5", 2.0], [0.0, 1.0]], ProviderUnavailable),
        ([[" 3 ", 4.0], [0.0, 1.0]], ProviderUnavailable),
        ([[True, 1.0], [0.0, 1.0]], ProviderUnavailable),
    ],
    ids=[
        "ragged",
        "nested_rows",
        "flat",
        "string_value",
        "object_value",
        "list_value",
        "string_reply",
        "number_reply",
        "too_few_rows",
        "nan",
        "inf",
        "null",
        "zero_row",
        "numeric_string",
        "padded_numeric_string",
        "boolean",
    ],
)
def test_malformed_reply_is_a_typed_error(reply, error):
    with pytest.raises(error):
        Embedder(ReplyProvider(reply)).embed_texts(["a", "b"])


def test_embed_texts_is_the_normalized_hashed_counts():
    texts = [f"alpha beta token{i % 5} gamma alpha {'x' * i}" for i in range(40)] + ["?!"]
    counts = HashedBowEmbedder(dim=64, seed=3).embed(texts)
    matrix = Embedder(HashedBowEmbedder(dim=64, seed=3)).embed_texts(texts)
    assert isinstance(counts, np.ndarray) and counts.shape == matrix.shape == (41, 64)
    assert all(normalize(row).tobytes() == vec.tobytes() for row, vec in zip(counts, matrix))


def test_empty_text_rejected(embedder):
    with pytest.raises(ValueError):
        embedder.embed_texts([""])


def test_seed_changes_layout():
    a = Embedder(HashedBowEmbedder(dim=64, seed=0)).embed_one("token soup")
    b = Embedder(HashedBowEmbedder(dim=64, seed=1)).embed_one("token soup")
    assert not np.array_equal(a, b)


# --- cosine: EmbeddingIndex.similarities is the one implementation ---


def _cosines(stored, query):
    index = EmbeddingIndex(dim=len(query), capacity=len(stored))
    index.add_batch([f"s{i}" for i in range(len(stored))], stored)
    return index.similarities(np.asarray(query, dtype=np.float64)).tolist()


def test_cosine_identity():
    v = np.array([1.0, 2.0, 3.0])
    assert _cosines([v], 2.5 * v) == [pytest.approx(1.0)]


def test_cosine_orthogonal():
    assert _cosines([np.array([1.0, 0.0])], [0.0, 1.0]) == [0.0]


def test_cosine_antipodal():
    v = np.array([0.4, -0.3, 0.1])
    assert _cosines([v, -v], v) == [pytest.approx(1.0), pytest.approx(-1.0)]


def test_cosine_zero_vector():
    with pytest.raises(ZeroVector):
        _cosines([np.array([1.0, 0.0, 0.0])], np.zeros(3))


# --- index / top_k ---


def _angled(c: float) -> np.ndarray:
    return np.array([c, math.sqrt(1.0 - c * c)])


def test_top_k_known_similarities():
    index = EmbeddingIndex(dim=2, capacity=3)
    index.add_batch(["s1"], [_angled(0.9)])
    index.add_batch(["s2"], [_angled(0.5)])
    index.add_batch(["s3"], [_angled(0.1)])
    got = index.top_k(np.array([1.0, 0.0]), 2)
    assert [sid for sid, _ in got] == ["s1", "s2"]
    assert got[0][1] == pytest.approx(0.9)
    assert got[1][1] == pytest.approx(0.5)


def test_top_k_larger_than_index():
    index = EmbeddingIndex(dim=2, capacity=2)
    index.add_batch(["s1"], [_angled(0.9)])
    index.add_batch(["s2"], [_angled(0.5)])
    got = index.top_k(np.array([1.0, 0.0]), 10)
    assert len(got) == 2


def test_top_k_tie_broken_by_id():
    index = EmbeddingIndex(dim=2, capacity=2)
    index.add_batch(["zz"], [_angled(0.5)])
    index.add_batch(["aa"], [_angled(0.5)])
    got = index.top_k(np.array([1.0, 0.0]), 2)
    assert [sid for sid, _ in got] == ["aa", "zz"]


def test_top_k_empty_index():
    with pytest.raises(EmptyIndex):
        EmbeddingIndex(dim=2, capacity=0).top_k(np.array([1.0, 0.0]), 1)


def test_duplicate_id_rejected():
    index = EmbeddingIndex(dim=2, capacity=2)
    index.add_batch(["s1"], [_angled(0.9)])
    with pytest.raises(ValueError, match="'s1' indexed twice"):
        index.add_batch(["s1"], [_angled(0.5)])


def test_top_k_matches_full_sort_oracle():
    rng = random.Random(42)
    rows = []
    index = EmbeddingIndex(dim=16, capacity=10_000)
    for i in range(10_000):
        vec = np.array([rng.gauss(0, 1) for _ in range(16)])
        vec = vec / np.linalg.norm(vec)
        sid = f"seg{i:05d}"
        index.add_batch([sid], [vec])
        rows.append((sid, vec))
    query = normalize(np.array([rng.gauss(0, 1) for _ in range(16)]))
    sims = {sid: float(np.clip(np.dot(vec, query), -1, 1)) for sid, vec in rows}
    oracle = sorted(sims.items(), key=lambda kv: (-kv[1], kv[0]))
    for k in (1, 7, 100, 10_000, 20_000):
        got = index.top_k(query, k)
        expected = oracle[: min(k, len(oracle))]
        assert [sid for sid, _ in got] == [sid for sid, _ in expected]
        assert np.allclose(
            [s for _, s in got], [s for _, s in expected], atol=1e-12, rtol=0
        )


# --- persistence ---


def test_save_load_roundtrip_and_byte_identity(tmp_path, embedder):
    texts = [f"text number {i} about magnets {i % 7}" for i in range(150)]
    vectors = embedder.embed_texts(texts)
    ids = [f"s{i}" for i in range(150)]
    index = EmbeddingIndex(dim=vectors[0].shape[0], capacity=150)
    for start in range(0, 150, 64):  # three batches into one reservation
        index.add_batch(ids[start : start + 64], vectors[start : start + 64])

    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    stamp = {"config_fingerprint": "abc123", "embedder": "hashed", "store_sha256": "0" * 64}
    index.save(str(dir_a), stamp)
    loaded, manifest = EmbeddingIndex.load(str(dir_a))
    assert {key: manifest[key] for key in stamp} == stamp
    assert loaded.ids == index.ids == ids
    for sid, vec in zip(ids, vectors):
        assert loaded.get(sid).tobytes() == vec.tobytes()
    query = embedder.embed_one("magnets 3")
    assert loaded.top_k(query, 20) == index.top_k(query, 20)
    loaded.save(str(dir_b), stamp)

    assert (dir_a / "vectors.bin").read_bytes() == (dir_b / "vectors.bin").read_bytes()
    assert (dir_a / "index_manifest.json").read_text() == (
        dir_b / "index_manifest.json"
    ).read_text()
    assert json.loads((dir_a / "index_manifest.json").read_text())["segment_ids"] == ids


def test_add_batch_fills_a_reservation_in_place_and_refuses_a_batch_past_it(
    tmp_path, embedder
):
    texts = [f"field note {i} on basalt {i % 5}" for i in range(150)]
    vectors = embedder.embed_texts(texts)
    ids = [f"s{i}" for i in range(150)]
    saved = set()
    for capacity in (150, 200):
        index = EmbeddingIndex(vectors.shape[1], capacity=capacity)
        first = index._matrix
        for start in range(0, 150, 64):
            index.add_batch(ids[start : start + 64], vectors[start : start + 64])
            assert index._matrix is first
        assert index.ids == ids
        assert all(index.get(sid).tobytes() == vec.tobytes() for sid, vec in zip(ids, vectors))
        index.save(str(tmp_path / str(capacity)), {})
        saved.add((tmp_path / str(capacity) / "vectors.bin").read_bytes())
        saved.add((tmp_path / str(capacity) / "index_manifest.json").read_bytes())
    assert len(saved) == 2  # one vectors.bin and one manifest, whatever the reservation
    # Batches end at rows 64 and 128: a reservation of 100 refuses the second whole.
    index = EmbeddingIndex(vectors.shape[1], capacity=100)
    index.add_batch(ids[:64], vectors[:64])
    with pytest.raises(ValueError, match="128 rows overflow the 100 reserved"):
        index.add_batch(ids[64:128], vectors[64:128])
    assert index.ids == ids[:64]
    index.add_batch(ids[64:100], vectors[64:100])  # none of the refused ids was registered
    assert index.ids == ids[:100]


def test_top_k_ties_straddling_kth_rank_come_by_id():
    # Rows 0-3 beat the tied block; ten identical rows, added in scrambled id
    # order, straddle every k from 5 to 13; two rows trail behind.
    index = EmbeddingIndex(dim=2, capacity=16)
    for i in range(4):
        index.add_batch([f"top{i}"], [_angled(0.9 - 0.01 * i)])
    tied = [f"tie{i:02d}" for i in range(10)]
    random.Random(1).shuffle(tied)
    for sid in tied:
        index.add_batch([sid], [_angled(0.5)])
    index.add_batch(["low0"], [_angled(0.2)])
    index.add_batch(["low1"], [_angled(0.1)])
    query = np.array([1.0, 0.0])
    full = [f"top{i}" for i in range(4)] + sorted(tied) + ["low0", "low1"]
    for k in range(1, len(index) + 3):
        got = index.top_k(query, k)
        assert [sid for sid, _ in got] == full[:k]
    assert index.top_k(query, len(index)) == index.top_k(query, len(index) + 5)


def test_top_k_all_rows_identical():
    index = EmbeddingIndex(dim=2, capacity=5)
    ids = [f"s{i}" for i in (3, 1, 4, 0, 2)]
    index.add_batch(ids, [_angled(0.7)] * len(ids))
    for k in (1, 3, 5, 9):
        got = index.top_k(np.array([1.0, 0.0]), k)
        assert [sid for sid, _ in got] == sorted(ids)[:k]


def test_query_dimension_mismatch_is_typed():
    index = EmbeddingIndex(dim=2, capacity=1)
    index.add_batch(["s1"], [_angled(0.9)])
    with pytest.raises(DimensionMismatch):
        index.similarities(np.ones(3))
    with pytest.raises(DimensionMismatch):
        index.top_k(np.ones(3), 1)
    with pytest.raises(DimensionMismatch):
        index.top_k(np.ones((2, 1)), 1)


def test_add_batch_with_bad_row_adds_nothing():
    index = EmbeddingIndex(dim=2, capacity=3)
    index.add_batch(["s0"], [_angled(0.9)])
    with pytest.raises(DimensionMismatch):
        index.add_batch(["s1", "s2"], [_angled(0.5), np.ones(3)])
    with pytest.raises(ValueError):
        index.add_batch(["s3", "s3"], [_angled(0.5), _angled(0.4)])
    with pytest.raises(ZeroVector):
        index.add_batch(["s4", "s5"], [_angled(0.5), np.zeros(2)])
    with pytest.raises(DimensionMismatch):  # three ids, one vector
        index.add_batch(["s6", "s7", "s8"], [_angled(0.5)])
    with pytest.raises(DimensionMismatch):  # one 4-dim vector is not two 2-dim rows
        index.add_batch(["s6", "s7"], [np.array([0.6, 0.8, 1.0, 0.0])])
    with pytest.raises(DimensionMismatch):
        index.add_batch(["s6", "s7"], np.array([0.6, 0.8, 1.0, 0.0]))
    assert index.ids == ["s0"]
    index.add_batch(["s1", "s2"], [_angled(0.5), np.array([3.0, 4.0])])
    assert index.ids == ["s0", "s1", "s2"]
    assert np.array_equal(index.get("s2"), np.array([0.6, 0.8]))


def _restamp_vectors(directory, raw):
    """Write ``raw`` as ``vectors.bin`` and record its SHA-256 in the manifest, so a
    load reaches the checks of the rows themselves."""
    raw.tofile(directory / "vectors.bin")
    digest = hashlib.sha256(raw).hexdigest()
    _edit_manifest(directory, lambda m: m.update(vectors_sha256=digest))


def test_load_renormalizes_only_rows_off_unit_length(tmp_path):
    index = EmbeddingIndex(dim=2, capacity=2)
    index.add_batch(["a", "b"], [_angled(0.3), _angled(0.8)])
    index.save(str(tmp_path), {})
    raw = np.fromfile(tmp_path / "vectors.bin", dtype="<f8")
    raw[2:4] *= 5.0  # row "b" no longer unit length
    _restamp_vectors(tmp_path, raw)
    loaded, _ = EmbeddingIndex.load(str(tmp_path))
    assert loaded.get("a").tobytes() == index.get("a").tobytes()
    assert abs(np.linalg.norm(loaded.get("b")) - 1.0) <= 1e-12


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
def test_load_rejects_a_row_with_a_non_finite_norm(tmp_path, value):
    index = EmbeddingIndex(dim=2, capacity=2)
    index.add_batch(["a", "b"], [_angled(0.3), _angled(0.8)])
    index.save(str(tmp_path), {})
    raw = np.fromfile(tmp_path / "vectors.bin", dtype="<f8")
    raw[2] = value
    _restamp_vectors(tmp_path, raw)
    with pytest.raises(CorruptArtifact, match="row 1 has a non-finite norm"):
        EmbeddingIndex.load(str(tmp_path))
    with pytest.raises(ValueError, match="row 0 has a non-finite norm"):
        EmbeddingIndex(dim=2, capacity=1).add_batch(["b"], [raw[2:4]])


def _edit_manifest(directory, edit):
    path = directory / "index_manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def test_save_records_the_sha256_of_the_vector_bytes(tmp_path):
    index = EmbeddingIndex(dim=2, capacity=2)
    index.add_batch(["a", "b"], [_angled(0.3), _angled(0.8)])
    index.save(str(tmp_path), {"store_sha256": "0" * 64})
    manifest = json.loads((tmp_path / "index_manifest.json").read_text())
    assert list(manifest) == ["dim", "count", "store_sha256", "vectors_sha256", "segment_ids"]
    expected = hashlib.sha256((tmp_path / "vectors.bin").read_bytes()).hexdigest()
    assert manifest["vectors_sha256"] == expected


def test_load_views_the_one_buffer_it_read_as_the_matrix(tmp_path):
    index = EmbeddingIndex(dim=2, capacity=2)
    index.add_batch(["a", "b"], [_angled(0.3), _angled(0.8)])
    index.save(str(tmp_path), {})
    loaded, _ = EmbeddingIndex.load(str(tmp_path))
    matrix = loaded._matrix
    assert matrix.flags.writeable and not matrix.flags.owndata
    assert matrix.base.nbytes == matrix.nbytes  # a view of the buffer read, not a copy


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw[[1, 0]], "not the one its manifest records under vectors sha256"),
        (lambda raw: (raw.view("<u8") ^ np.array([[0, 0], [0, 1]], "<u8")).view("<f8"),
         "vectors sha256"),
    ],
    ids=["swapped_rows", "last_bit_flipped"],
)
def test_load_refuses_vectors_the_manifest_does_not_record(tmp_path, edit, message):
    index = EmbeddingIndex(dim=2, capacity=2)
    index.add_batch(["a", "b"], [_angled(0.3), _angled(0.8)])
    index.save(str(tmp_path), {})
    raw = np.fromfile(tmp_path / "vectors.bin", dtype="<f8").reshape(2, 2)
    edit(raw).astype("<f8").tofile(tmp_path / "vectors.bin")
    with pytest.raises(CorruptArtifact, match=message) as info:
        EmbeddingIndex.load(str(tmp_path))
    assert "re-run `claimlens ingest`" in str(info.value)


def test_load_refuses_a_manifest_without_a_vectors_sha256(tmp_path):
    index = EmbeddingIndex(dim=2, capacity=2)
    index.add_batch(["a", "b"], [_angled(0.3), _angled(0.8)])
    index.save(str(tmp_path), {})
    _edit_manifest(tmp_path, lambda m: m.pop("vectors_sha256"))
    message = "records no vectors sha256: re-run `claimlens ingest`"
    with pytest.raises(CorruptArtifact, match=message):
        EmbeddingIndex.load(str(tmp_path))


def test_load_rejects_duplicate_ids_in_manifest(tmp_path):
    index = EmbeddingIndex(dim=2, capacity=2)
    index.add_batch(["a", "b"], [_angled(0.3), _angled(0.8)])
    index.save(str(tmp_path), {})
    _edit_manifest(tmp_path, lambda m: m["segment_ids"].__setitem__(1, "a"))
    with pytest.raises(CorruptArtifact, match="'a'"):
        EmbeddingIndex.load(str(tmp_path))


def test_load_rejects_manifest_id_count_mismatch(tmp_path):
    index = EmbeddingIndex(dim=2, capacity=2)
    index.add_batch(["a", "b"], [_angled(0.3), _angled(0.8)])
    index.save(str(tmp_path), {})
    _edit_manifest(tmp_path, lambda m: m["segment_ids"].pop())
    with pytest.raises(DimensionMismatch, match="lists 1 segment ids, expected 2"):
        EmbeddingIndex.load(str(tmp_path))


def test_memoized_embedder_matches_fresh_instance():
    texts = [f"alpha beta token{i % 5} gamma alpha" for i in range(40)]
    warm = HashedBowEmbedder(dim=64, seed=3)
    warm.embed(texts)  # fill the memo
    again = warm.embed(list(reversed(texts)))[::-1]
    assert np.array_equal(again, HashedBowEmbedder(dim=64, seed=3).embed(texts))


def _reference_rows(texts, dim, seed):
    return np.array(oracles.hashed_bow_rows(texts, dim, seed)).reshape(len(texts), dim)


_RNG = random.Random(11)
_WORDS = ["alpha", "beta", "Gamma", "delta", "x1", "trial", "dose"]
_BATCH_64 = ["?!"] + [
    " ".join(_RNG.choice(_WORDS) for _ in range(_RNG.randint(1, 12))) + " alpha alpha."
    for _ in range(63)
]


@pytest.mark.parametrize(
    "texts",
    [["?!"], ["dose dose trial dose"], _BATCH_64],
    ids=["one_without_tokens", "one_with_repeats", "batch_of_64"],
)
def test_batch_bincount_matches_per_row_reference(texts):
    for dim, seed in [(64, 3), (7, 0)]:
        got = HashedBowEmbedder(dim=dim, seed=seed).embed(texts)
        assert got.dtype == np.float64 and got.shape == (len(texts), dim)
        assert got.tobytes() == _reference_rows(texts, dim, seed).tobytes()


# Words that repeat across texts, texts with no token at all (whose whole text
# is the one token), and case and non-ASCII letters that lowercasing changes.
_EMBED_TEXTS = st.lists(
    st.sampled_from(["alpha", "Beta", "dose", "x1", "2024", "İ", "Ünï", "ÉÀ", "?!", "", " ", "a.b"]),
    max_size=8,
).map(" ".join)


@settings(max_examples=100, deadline=None)
@given(
    batches=st.lists(st.lists(_EMBED_TEXTS, min_size=1, max_size=70), min_size=1, max_size=3),
    dim=st.sampled_from([1, 7, 256]),
    seed=st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
@example(batches=[["ÉÀ ?!", "dose Dose"], ["dose ÉÀ"]], dim=256, seed=0)
def test_embed_matches_the_per_token_reference(batches, dim, seed):
    """Bit-identical rows from a cold memo and from one warmed by earlier batches."""
    warm = HashedBowEmbedder(dim=dim, seed=seed)
    for texts in batches:
        expected = _reference_rows(texts, dim, seed).tobytes()
        assert HashedBowEmbedder(dim=dim, seed=seed).embed(texts).tobytes() == expected
        assert warm.embed(texts).tobytes() == expected


# Any code point, lone surrogates included, mixed with the characters whose
# lowercase or encoding could fool a byte tokenizer: KELVIN SIGN (lowercases to
# ASCII "k"), U+0130 (to "i" and a combining dot), sharp s, fullwidth digits.
_ANY_TEXT = st.lists(
    st.one_of(
        st.text(st.characters(exclude_categories=())),
        st.sampled_from(["\u212a", "\u0130", "\u00df", "\uff11\uff12", "\ud800", "\udfff",
                         "K\u212aelvin", "x1 Y2", "\x00\x7f\x80", "\u0085\u2028"]),
    ),
    max_size=6,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(text=_ANY_TEXT)
@example(text="\u212a\u0130\u00df \uff11\uff12 \ud800ab\udfffc9")
def test_byte_tokens_are_the_regex_runs_of_the_lowercased_text(text):
    expected = [run.encode("ascii") for run in re.findall(r"[a-z0-9]+", text.lower())]
    assert _tokens(text) == expected


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(_ANY_TEXT, min_size=1, max_size=6),
       seed=st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_embed_is_the_per_token_formula_on_any_text(texts, seed):
    """A text with no token is hashed whole, and one holding a lone surrogate then
    fails to encode in both."""
    try:
        expected = _reference_rows(texts, 64, seed).tobytes()
    except UnicodeEncodeError:
        with pytest.raises(UnicodeEncodeError):
            HashedBowEmbedder(dim=64, seed=seed).embed(texts)
        return
    assert HashedBowEmbedder(dim=64, seed=seed).embed(texts).tobytes() == expected
