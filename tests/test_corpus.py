import hashlib
import json
import os
import random
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimlens.config import PipelineConfig
from claimlens.corpus import (
    _SEGMENT_FIELDS,
    _STACK_CELLS,
    Document,
    Segment,
    SegmentStore,
    _rank_transform,
    _similarity_matrix,
    _stem,
    choose_boundaries,
    extract_terms,
    load_corpus,
    read_segments,
    segment_corpus,
    segment_document,
    sentences_of,
    split_sentences,
    store_line_prefix,
    write_segments,
)
from claimlens.errors import (
    CorruptArtifact, DuplicateDocId, EmptyDocument, MissingField, UnreadableFile,
)

from .conftest import DATA_DIR, TOPIC_A, TOPIC_B, make_sentence, make_two_topic_doc
from . import oracles


def write_corpus(tmp_path, records):
    path = tmp_path / "corpus.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return str(path)


# --- loading ---


def test_load_corpus_roundtrip(tmp_path):
    path = write_corpus(
        tmp_path,
        [
            {"doc_id": "p1", "title": "one", "text": "Alpha beta."},
            {"doc_id": "p2", "title": "two", "text": "Gamma delta."},
        ],
    )
    docs = load_corpus(path)
    assert [d.doc_id for d in docs] == ["p1", "p2"]
    assert docs[0].text == "Alpha beta."


def test_load_corpus_missing_field(tmp_path):
    path = write_corpus(tmp_path, [{"doc_id": "p1", "title": "one"}])
    with pytest.raises(MissingField) as err:
        load_corpus(path)
    assert "p1" in str(err.value)
    assert "text" in str(err.value)


_MISSING = object()


@pytest.mark.parametrize("name", ["doc_id", "title", "text"])
@pytest.mark.parametrize(
    "value", [_MISSING, "", "   ", "\u00a0", "\u3000\n", 5, None],
    ids=["missing", "empty", "spaces", "nbsp", "ideographic_space", "int", "null"],
)
def test_load_corpus_names_the_line_doc_id_and_blank_or_mistyped_field(tmp_path, name, value):
    bad = {"doc_id": "p2", "title": "two", "text": "Two."}
    if value is _MISSING:
        del bad[name]
    else:
        bad[name] = value
    path = write_corpus(tmp_path, [{"doc_id": "p1", "title": "one", "text": "One."}, bad])
    with pytest.raises(MissingField) as err:
        load_corpus(path)
    doc_id = bad.get("doc_id", "")
    assert str(err.value) == (
        f"corpus file {path}: record at line 2 (doc_id={doc_id!r}) is missing field {name!r}"
    )


def test_load_corpus_keeps_fields_with_surrounding_whitespace(tmp_path):
    record = {"doc_id": " p1\u00a0", "title": "\u3000one", "text": "\tOne.\n"}
    path = write_corpus(tmp_path, [record])
    assert load_corpus(path) == [Document(" p1\u00a0", "\u3000one", "\tOne.\n")]


def test_load_corpus_duplicate_doc_id(tmp_path):
    path = write_corpus(
        tmp_path,
        [
            {"doc_id": "p1", "title": "a", "text": "One."},
            {"doc_id": "p1", "title": "b", "text": "Two."},
        ],
    )
    with pytest.raises(DuplicateDocId, match="p1"):
        load_corpus(path)


def test_load_corpus_bad_line_names_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "p1", "title": "a", "text": "One."}\nnot json\n')
    with pytest.raises(UnreadableFile, match="line 2"):
        load_corpus(str(path))


def test_load_corpus_keeps_unicode_line_separators_inside_a_record(tmp_path):
    text = "First line\u2028still the first record\u0085and the same. Second sentence."
    path = tmp_path / "corpus.jsonl"
    record = json.dumps({"doc_id": "p1", "title": "t", "text": text}, ensure_ascii=False)
    path.write_text(record + "\n", encoding="utf-8")
    assert len(record.splitlines()) == 3  # str.splitlines would cut the record
    docs = load_corpus(str(path))
    assert [(d.doc_id, d.text) for d in docs] == [("p1", text)]


def test_load_corpus_missing_file(tmp_path):
    with pytest.raises(UnreadableFile):
        load_corpus(str(tmp_path / "nope.jsonl"))


def test_segment_store_roundtrip(tmp_path):
    segs = segment_document(make_two_topic_doc("p1", random.Random(5), first=7, second=6), PipelineConfig())
    assert len(segs) > 1
    path = tmp_path / "segments.jsonl"
    write_segments(segs, str(path))
    assert read_segments(str(path)) == segs


def test_segment_store_record_keys_are_the_segment_fields_in_order(tmp_path):
    path = tmp_path / "segments.jsonl"
    write_segments([Segment("p1#0-1", "p1", 0, 1, "One. Two.")], str(path))
    record = json.loads(path.read_text().splitlines()[0])
    assert list(record) == list(_SEGMENT_FIELDS) == [f.name for f in fields(Segment)]
    assert list(_SEGMENT_FIELDS.values()) == [str, str, int, int, str]


def _store(tmp_path, n=4):
    """A written store of ``n`` segments of growing text, and its segments."""
    segs = [Segment(f"p{i}#0-{i}", f"p{i}", 0, i, "word " * (i + 1)) for i in range(n)]
    path = tmp_path / "segments.jsonl"
    write_segments(segs, str(path))
    return path, segs


def test_write_segments_returns_the_sha256_of_the_bytes_written(tmp_path):
    path, segs = _store(tmp_path)
    digest = write_segments(segs, str(path))
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert SegmentStore(str(path), [s.segment_id for s in segs], 0).sha256 == digest


def test_segment_store_decodes_each_record_it_is_asked_for(tmp_path):
    path, segs = _store(tmp_path)
    store = SegmentStore(str(path), [s.segment_id for s in segs], 0)
    assert list(store) == [s.segment_id for s in segs] and len(store) == 4
    assert store["p2#0-2"] == segs[2] and "p2#0-2" in store and "p9#0-0" not in store
    assert dict(store) == {s.segment_id: s for s in segs}
    with pytest.raises(KeyError):
        store["p9#0-0"]


def test_segment_store_leaves_out_lines_shorter_than_min_bytes(tmp_path):
    path, segs = _store(tmp_path)
    lengths = [len(line) for line in path.read_bytes().split(b"\n")[:-1]]
    store = SegmentStore(str(path), [s.segment_id for s in segs], min_bytes=lengths[2])
    assert list(store) == ["p2#0-2", "p3#0-3"]
    assert store["p3#0-3"] == segs[3] and "p1#0-1" not in store


@pytest.mark.parametrize(
    "edit",
    [
        lambda ids: ids[::-1],
        lambda ids: ids[:-1],
        lambda ids: ids + ["p4#0-4"],
        lambda ids: ids[:2] + ["p2#0-"] + ids[3:],
    ],
    ids=["reversed", "one_too_few", "one_too_many", "id_a_prefix_of_the_stored_one"],
)
def test_segment_store_refuses_ids_not_in_store_order(tmp_path, edit):
    path, segs = _store(tmp_path)
    message = "does not list the ids of segment store .* in store order"
    with pytest.raises(CorruptArtifact, match=message):
        SegmentStore(str(path), edit([s.segment_id for s in segs]), 0)


def _corrupt_line_3(path, edit):
    lines = path.read_text().splitlines()
    lines[2] = edit(lines[2])
    path.write_text("\n".join(lines) + "\n")


def _edit_record(edit):
    def rewrite(line):
        record = json.loads(line)
        edit(record)
        return json.dumps(record)

    return rewrite


def _mistyped(name):
    return f"line 3 has a missing or mistyped '{name}'"


# Each corrupted line 3 keeps its id first, so the store still lists its ids in order.
CORRUPT_RECORDS = [
    (lambda line: line[:40], UnreadableFile, "line 3 is not valid JSON"),
    (_edit_record(lambda r: r.pop("text")), CorruptArtifact, _mistyped("text")),
    (_edit_record(lambda r: r.update(start="0")), CorruptArtifact, _mistyped("start")),
    (_edit_record(lambda r: r.update(start=False)), CorruptArtifact, _mistyped("start")),
    (_edit_record(lambda r: r.update(end=True)), CorruptArtifact, _mistyped("end")),
    (lambda line: line[:-1] + ', "doc_id": 7}', CorruptArtifact, _mistyped("doc_id")),
]
CORRUPT_IDS = ["truncated_line", "no_text", "string_start", "bool_start", "bool_end", "repeated_key"]


@pytest.mark.parametrize("edit, error, message", CORRUPT_RECORDS, ids=CORRUPT_IDS)
def test_segment_store_checks_a_record_when_it_is_looked_up(tmp_path, edit, error, message):
    path, segs = _store(tmp_path)
    _corrupt_line_3(path, edit)
    store = SegmentStore(str(path), [s.segment_id for s in segs], 0)
    assert store["p3#0-3"] == segs[3]
    with pytest.raises(error, match=f"segment store {path}: {message}"):
        store["p2#0-2"]


@pytest.mark.parametrize(
    "edit, error, message",
    CORRUPT_RECORDS + [(lambda line: "[1, 2]", CorruptArtifact, _mistyped("segment_id"))],
    ids=CORRUPT_IDS + ["not_an_object"],
)
def test_read_segments_refuses_a_corrupt_record(tmp_path, edit, error, message):
    path, _ = _store(tmp_path)
    _corrupt_line_3(path, edit)
    with pytest.raises(error, match=f"segment store {path}: {message}"):
        read_segments(str(path))


def test_segment_store_refuses_a_record_whose_id_is_repeated_under_another_value(tmp_path):
    path, segs = _store(tmp_path)
    _corrupt_line_3(path, lambda line: line[:-1] + ', "segment_id": "p0#0-0"}')
    store = SegmentStore(str(path), [s.segment_id for s in segs], 0)
    with pytest.raises(CorruptArtifact, match="line 3 holds 'p0#0-0', not 'p2#0-2'"):
        store["p2#0-2"]


# Ids and texts with quotes, backslashes, control characters, non-ASCII
# letters, astral characters and the separators JSON leaves unescaped.
_STORE_TEXT = st.text(
    st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "é", "Ω", "\u2028",
                     "\u2029", "\U0001f600", "a", " ", "#", "/"]),
    min_size=1, max_size=12,
)
_STORE_SEGMENTS = st.lists(
    st.builds(Segment, _STORE_TEXT, _STORE_TEXT, st.integers(0, 10**6), st.integers(0, 10**6),
              _STORE_TEXT),
    max_size=6,
    unique_by=lambda seg: seg.segment_id,
)


@settings(max_examples=100, deadline=None)
@given(segments=_STORE_SEGMENTS)
def test_store_lines_are_json_dumps_and_decode_as_read_segments_reads_them(segments):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "segments.jsonl")
        write_segments(segments, path)
        with open(path, "rb") as fh:
            data = fh.read()
        expected = "".join(json.dumps(vars(seg), ensure_ascii=True) + "\n" for seg in segments)
        assert data == expected.encode("ascii")
        assert all(line.startswith(store_line_prefix(seg.segment_id).encode("ascii"))
                   for line, seg in zip(data.splitlines(), segments))
        store = SegmentStore(path, [seg.segment_id for seg in segments], 0)
        assert [store[seg.segment_id] for seg in segments] == read_segments(path) == segments


# --- sentence splitting ---


def test_split_sentences_basic():
    assert split_sentences("One two. Three four! Five six?") == [
        "One two.",
        "Three four!",
        "Five six?",
    ]


def test_split_sentences_abbreviation_guard():
    got = split_sentences("Dr. Smith ran the trial. It failed, e.g. in adults.")
    assert got == ["Dr. Smith ran the trial.", "It failed, e.g. in adults."]


# Terminals, closers, whitespace and the guarded cases: abbreviations, initials,
# decimals, and bare "J"/"etc" that a later "!" or "?" must not guard.
# Words of 7+ letters or digits skip the abbreviation walk; the shorter words and
# those holding a period or another mark reach it.
SPLITTER_PIECES = [".", "!", "?", '"', "'", ")", "]", " ", "  ", "\n", "\t",
                   "e.g.", "Dr.", " J. ", "1.5", "word", "Alpha", "J", "etc",
                   "approx.", "Approx.", "U.S.", "etc..", "e.g.,", "Approximately",
                   "seventh", "Kitchens", "2024123", "(approx", "\u0130"]


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(SPLITTER_PIECES), max_size=40).map("".join))
def test_split_sentences_reassembles_the_normalized_text(text):
    sentences = split_sentences(text)
    assert " ".join(sentences) == " ".join(text.split())
    assert all(s and s == s.strip() for s in sentences)


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(SPLITTER_PIECES), max_size=40).map("".join))
@example(text="Kitchens. approx. 5 U.S. Approx. 2024123. etc.. so e.g., (approx. Approximately.")
def test_split_sentences_cuts_where_the_character_scan_does(text):
    assert split_sentences(text) == oracles.split_sentences(text)


def test_split_sentences_whitespace_normalized():
    assert split_sentences("One   two.\n\nThree  four.") == ["One two.", "Three four."]


# --- topical segmentation ---


def test_segment_document_rejects_empty_document():
    with pytest.raises(EmptyDocument):
        segment_document(Document("d", "t", "   "), PipelineConfig())


def test_two_topic_document_splits_at_topic_shift():
    rng = random.Random(7)
    doc = make_two_topic_doc("d", rng, first=5, second=5)
    segs = segment_document(doc, PipelineConfig())
    assert len(segs) == 2
    assert (segs[0].start, segs[0].end) == (0, 4)
    assert (segs[1].start, segs[1].end) == (5, 9)
    # chosen boundary equals the exhaustive single-boundary density maximum
    sentences = sentences_of(doc)
    counts = [dict(extract_terms(s)) for s in sentences]
    rank = oracles.rank_matrix(oracles.similarity_matrix(counts), 11)
    assert oracles.best_single_boundary(rank, 2) == 5


def test_single_sentence_document():
    doc = Document("d", "t", "Only one sentence here.")
    segs = segment_document(doc, PipelineConfig())
    assert [(s.start, s.end) for s in segs] == [(0, 0)]


def test_identical_sentences_stay_one_segment():
    doc = Document("d", "t", " ".join(["The same sentence again."] * 10))
    segs = segment_document(doc, PipelineConfig())
    assert len(segs) == 1
    assert (segs[0].start, segs[0].end) == (0, 9)


def test_first_boundary_matches_oracle_on_random_two_topic_docs():
    # The first greedy insertion ranges over exactly the single-boundary
    # candidates the oracle enumerates, so capping at two segments isolates it.
    rng = random.Random(11)
    config = PipelineConfig(max_segments_per_doc=2)
    for trial in range(5):
        first = rng.randint(4, 9)
        second = rng.randint(4, 9)
        doc = make_two_topic_doc(f"d{trial}", rng, first=first, second=second)
        segs = segment_document(doc, config)
        sentences = sentences_of(doc)
        counts = [dict(extract_terms(s)) for s in sentences]
        rank = oracles.rank_matrix(oracles.similarity_matrix(counts), 11)
        expected = oracles.best_single_boundary(rank, 2)
        assert len(segs) == 2
        assert segs[1].start == expected == first


def _fixture_documents():
    return load_corpus(str(DATA_DIR / "corpus.jsonl"))


def _similarity_of(doc):
    terms = [extract_terms(s) for s in sentences_of(doc)]
    return _similarity_matrix(terms, np.empty((len(terms), len(terms))))


def test_rank_transform_agrees_with_oracle():
    for doc in [make_two_topic_doc("d", random.Random(3)), *_fixture_documents()]:
        counts = [dict(extract_terms(s)) for s in sentences_of(doc)]
        sim = _similarity_of(doc)
        for mask in (1, 3, 5, 11):
            expected = oracles.rank_matrix(oracles.similarity_matrix(counts), mask)
            assert _rank_transform(sim[None], mask)[0].tolist() == expected


def _graded_similarity(rng, n):
    """Symmetric matrix on a coarse grid of values, so the mask holds ties."""
    values = [[rng.randint(0, 8) / 8 for _ in range(n)] for _ in range(n)]
    return [[max(values[i][j], values[j][i]) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("mask", [1, 3, 5, 11])
def test_rank_transform_exactly_equals_oracle(mask):
    # A stack of graded matrices per size: every slice is ranked as if alone.
    rng = random.Random(mask)
    for n in list(range(1, 41)) + [150]:
        sims = [_graded_similarity(rng, n) for _ in range(3 if n < 150 else 1)]
        ranks = _rank_transform(np.array(sims), mask)
        assert ranks.dtype == np.float64
        assert ranks.shape == (len(sims), n, n)
        for sim, rank in zip(sims, ranks):
            assert rank.tolist() == oracles.rank_matrix(sim, mask)


def _long_paper(n, seed):
    """A paper of ``n`` sentences in blocks of up to seven, each block on one of
    three topics that share a few words, as the long-papers benchmark builds them."""
    rng = random.Random(seed)
    topics = [TOPIC_A, TOPIC_B, TOPIC_A[::2] + TOPIC_B[::2]]
    shared = ["study", "trial", "result", "effect"]
    sentences = []
    while len(sentences) < n:
        vocab = rng.choice(topics) + shared
        sentences += [make_sentence(rng, vocab) for _ in range(min(7, n - len(sentences)))]
    return Document("long", "a long paper", " ".join(sentences))


def test_similarity_matrix_is_exactly_symmetric():
    # The rank transform counts each mirrored pair of mask offsets once, which
    # holds only for an exactly symmetric matrix.
    long_paper = _long_paper(300, 21)
    assert len(sentences_of(long_paper)) == 300
    for doc in [*_fixture_documents(), long_paper]:
        sim = _similarity_of(doc)
        assert sim.shape == (len(sentences_of(doc)),) * 2
        assert np.array_equal(sim, sim.T)


def _grid_matrix(seed):
    """A symmetric matrix on a grid of thirds to tenths, or its rank transform,
    with size, grid and mask drawn from ``seed``. Most grids are not binary
    fractions, so the order in which block masses are added can decide a tie."""
    rng = random.Random(seed)
    n = rng.randint(4, 30)
    levels = rng.choice([3, 5, 7, 8, 10])
    values = [[rng.randint(0, levels) / levels for _ in range(n)] for _ in range(n)]
    sim = [[max(values[i][j], values[j][i]) for j in range(n)] for i in range(n)]
    if seed % 2:
        return sim
    return _rank_transform(np.array([sim]), rng.choice([3, 5, 11]))[0].tolist()


# Every cut ties: a constant matrix, and two equal blocks whose cuts tie across segments.
_TIED_MATRICES = [
    [[0.0] * 12] * 12,
    [[0.5] * 12] * 12,
    [[float((i < 6) == (j < 6)) for j in range(12)] for i in range(12)],
]
# Seeds whose matrices, under a gain threshold of 0, change their boundaries
# when a trial's mass is added in another order.
_ORDER_SENSITIVE_SEEDS = [1449, 1875, 3512, 6940, 10733]


@pytest.mark.parametrize(
    "min_len, max_segments, min_gain",
    [(1, 50, 0.0), (2, 50, 0.05), (2, 4, 0.0), (3, 8, 0.01), (4, 2, 0.2), (1, 3, 0.05)],
)
def test_choose_boundaries_equals_the_cut_by_cut_search(min_len, max_segments, min_gain):
    config = PipelineConfig(
        min_segment_sentences=min_len, max_segments_per_doc=max_segments,
        min_density_gain=min_gain,
    )
    # One stack per size: its matrices stop at different steps, and each must
    # get the boundaries it gets on its own.
    seeds = [*range(40), *_ORDER_SENSITIVE_SEEDS]
    stacks: dict[int, list] = {}
    for rank in [*_TIED_MATRICES, *map(_grid_matrix, seeds)]:
        stacks.setdefault(len(rank), []).append(rank)
    uneven = 0
    for ranks in stacks.values():
        expected = [
            oracles.greedy_boundaries(rank, min_len, max_segments, min_gain) for rank in ranks
        ]
        assert choose_boundaries(np.array(ranks), config) == expected
        uneven += len(set(map(len, expected))) > 1
    assert uneven > 0


def test_choose_boundaries_equals_the_cut_by_cut_search_on_fixture_documents():
    configs = [PipelineConfig(), PipelineConfig(min_segment_sentences=1, min_density_gain=0.0)]
    for doc in _fixture_documents():
        sim = _similarity_of(doc)
        for config in configs:
            ranks = _rank_transform(sim[None], config.rank_mask)
            expected = oracles.greedy_boundaries(
                ranks[0].tolist(), config.min_segment_sentences, config.max_segments_per_doc,
                config.min_density_gain,
            )
            assert choose_boundaries(ranks, config) == [expected]


_CORPUS_CONFIGS = [PipelineConfig(), PipelineConfig(min_segment_sentences=1, min_density_gain=0.0)]


@pytest.mark.parametrize("config", _CORPUS_CONFIGS)
def test_segment_corpus_segments_each_document_as_alone(config):
    docs = [*_fixture_documents(), *(_long_paper(n, n) for n in (150, 150, 200, 40))]
    assert segment_corpus(docs, config) == [segment_document(doc, config) for doc in docs]


@pytest.mark.parametrize("config", _CORPUS_CONFIGS)
def test_segment_corpus_splits_a_length_past_one_stack(config):
    docs = [Document(f"d{i}", "t", _long_paper(21, i).text) for i in range(300)]
    assert {len(sentences_of(doc)) for doc in docs} == {21}
    assert len(docs) * 21 * 21 > _STACK_CELLS
    alone = [segment_document(doc, config) for doc in docs]
    assert len(set(map(len, alone))) > 1
    assert segment_corpus(docs, config) == alone


@pytest.mark.parametrize(
    "n, params",
    [
        (3, PipelineConfig(min_segment_sentences=2)),
        (5, PipelineConfig(min_segment_sentences=3)),
        (9, PipelineConfig(min_segment_sentences=5)),
        (12, PipelineConfig(max_segments_per_doc=1)),
    ],
)
def test_document_without_admissible_cut_is_one_segment(n, params):
    rng = random.Random(n)
    doc = make_two_topic_doc("d", rng, first=n - n // 2, second=n // 2)
    sentences = sentences_of(doc)
    assert len(sentences) == n
    segs = segment_document(doc, params)
    assert [(s.start, s.end) for s in segs] == [(0, n - 1)]
    assert segs[0].text == " ".join(sentences)
    # The short-circuit agrees with the full search on the full rank matrix.
    sim = _similarity_matrix([extract_terms(s) for s in sentences], np.empty((n, n)))
    assert choose_boundaries(_rank_transform(sim[None], params.rank_mask), params) == [[]]


@pytest.mark.parametrize("min_len", [2, 3, 5])
def test_document_of_exactly_two_minimum_segments_is_still_cut(min_len):
    # The short-circuit stops one sentence short: at n == 2 * min_len the
    # single admissible cut is tried and taken at the topic shift.
    doc = make_two_topic_doc("d", random.Random(min_len), first=min_len, second=min_len)
    segs = segment_document(doc, PipelineConfig(min_segment_sentences=min_len))
    assert [(s.start, s.end) for s in segs] == [(0, min_len - 1), (min_len, 2 * min_len - 1)]


def _assert_tiling(doc, segments):
    spans = [(s.start, s.end) for s in segments]
    assert spans[0][0] == 0
    for (a, b), (c, _) in zip(spans, spans[1:]):
        assert c == b + 1
    n_sentences = len(sentences_of(doc))
    assert spans[-1][1] == n_sentences - 1
    assert len({s.segment_id for s in segments}) == len(segments)


def test_tiling_invariant_random_documents():
    rng = random.Random(23)
    for trial in range(10):
        n = rng.randint(1, 30)
        vocab = TOPIC_A if trial % 2 else TOPIC_A + TOPIC_B
        text = " ".join(make_sentence(rng, vocab) for _ in range(n))
        doc = Document(f"d{trial}", "t", text)
        _assert_tiling(doc, segment_document(doc, PipelineConfig()))


SENTENCES = st.lists(st.sampled_from(TOPIC_A + TOPIC_B), min_size=1, max_size=8).map(
    lambda words: " ".join(words).capitalize() + "."
)


@settings(max_examples=100, deadline=None)
@given(
    sentences=st.lists(SENTENCES, min_size=1, max_size=30),
    min_len=st.integers(1, 4),
    cap=st.integers(1, 12),
)
def test_segments_tile_the_document_within_the_cap(sentences, min_len, cap):
    doc = Document("d", "t", " ".join(sentences))
    config = PipelineConfig(min_segment_sentences=min_len, max_segments_per_doc=cap)
    segments = segment_document(doc, config)
    _assert_tiling(doc, segments)
    assert " ".join(s.text for s in segments) == doc.text
    assert len(segments) <= cap


def test_segmentation_deterministic():
    rng = random.Random(5)
    doc = make_two_topic_doc("d", rng, first=7, second=6)
    config = PipelineConfig()
    assert segment_document(doc, config) == segment_document(doc, config)


# Stems ending in doubled letters and "y", then the suffixes ``_stem`` strips.
_STEM_WORDS = st.tuples(
    st.text(alphabet="abeilnorstuy", max_size=7),
    st.sampled_from(["", "s", "ss", "sses", "ies", "ational", "ization", "fulness", "iveness",
                     "ousness", "ing", "edly", "ed", "ly", "ment", "ness", "tion", "ity", "y"]),
).map("".join)


@settings(max_examples=500, deadline=None)
@given(word=_STEM_WORDS)
def test_memoized_stem_is_the_plain_stem(word):
    plain = _stem.__wrapped__(word)
    assert _stem(word) == plain
    assert _stem(word) == plain  # the second call is served from the memo
