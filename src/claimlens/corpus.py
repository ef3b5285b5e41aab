"""Corpus ingestion and topical segmentation.

Documents are split into sentences with a rule-based splitter, then each
document is partitioned into contiguous topical segments. The main segmenter
is a divisive one in the style of C99 (Choi 2000, "Advances in domain
independent linear text segmentation", NAACL): it builds a sentence-pair
cosine similarity matrix over stemmed term vectors, applies a local rank
transform with a square mask, and greedily inserts boundaries that maximize
inside density, stopping once the relative density gain drops below a
threshold. The similarity matrix is exactly symmetric, so the rank transform
compares each mirrored pair of mask offsets, (di, dj) and (dj, di), once and
counts the result with its transpose.

Documents of equal sentence count are segmented as one stack: one rank
transform and one boundary search, which scores every cut of every document
in one array expression per insertion step, with the same result each
document gets on its own.

All functions here are pure: same document and parameters always produce the
same segment list, so documents can be processed in parallel safely.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import re
from collections import Counter
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import Any, get_type_hints

import numpy as np

from .artifacts import decode_line, read_jsonl, reading, replacing
from .config import PipelineConfig
from .errors import CorruptArtifact, UsageError

# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    text: str


@dataclass(frozen=True)
class Segment:
    segment_id: str
    doc_id: str
    start: int
    end: int  # inclusive sentence index
    text: str


# ---------------------------------------------------------------------------
# Corpus loading
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = ("doc_id", "title", "text")


def load_corpus(path: str) -> list[Document]:
    """Read a JSONL corpus file (doc_id / title / text per line).

    Documents come back in file order. A record with a missing or blank
    field, a repeated doc_id, or an unparseable line is rejected with an
    error naming the offending record; so is a file that holds no record.
    """
    documents: list[Document] = []
    first_line: dict[str, int] = {}
    for lineno, record in read_jsonl(path, "corpus file"):
        if not isinstance(record, dict):
            raise UsageError(f"corpus file {path}: line {lineno} is not a JSON object")
        doc_id, title, text = record.get("doc_id"), record.get("title"), record.get("text")
        # For a str, ``v and not v.isspace()`` is ``v.strip()`` without the copy; the
        # loop only names the first field that fails.
        if not (type(doc_id) is str and type(title) is str and type(text) is str
                and doc_id and title and text
                and not (doc_id.isspace() or title.isspace() or text.isspace())):
            for name in _REQUIRED_FIELDS:
                value = record.get(name)
                if not isinstance(value, str) or not value.strip():
                    raise UsageError(
                        f"corpus file {path}: record at line {lineno} "
                        f"(doc_id={record.get('doc_id', '')!r}) "
                        f"is missing field {name!r}"
                    )
        if doc_id in first_line:
            raise UsageError(
                f"corpus file {path}: doc_id {doc_id!r} at line {lineno} repeats "
                f"the doc_id of line {first_line[doc_id]}"
            )
        first_line[doc_id] = lineno
        documents.append(Document(doc_id, title, text))
    if not documents:
        raise UsageError(f"corpus file {path} holds no documents")
    return documents


# One segment store record per line: the fields of ``Segment``, in its order,
# as ``json.dumps(vars(segment), ensure_ascii=True)`` writes them.
_SEGMENT_TYPES = get_type_hints(Segment)
_SEGMENT_FIELDS = {f.name: _SEGMENT_TYPES[f.name] for f in fields(Segment)}
_WRITE_BLOCK = 1024  # store lines per write and hash update


def store_line_prefix(segment_id: str) -> str:
    """How the store line of ``segment_id`` begins: its first key, its value and a comma."""
    return '{"segment_id": ' + encode_basestring_ascii(segment_id) + ","


def _store_line(seg: Segment) -> str:
    text = encode_basestring_ascii
    return (f'{store_line_prefix(seg.segment_id)} "doc_id": {text(seg.doc_id)}, '
            f'"start": {seg.start}, "end": {seg.end}, "text": {text(seg.text)}}}\n')


def write_segments(segments: Sequence[Segment], path: str) -> str:
    """Write the segment store, one line per segment in order, and return the
    hex SHA-256 of the bytes written, hashed as they are written."""
    digest = hashlib.sha256()
    with replacing(path) as fh:
        for i in range(0, len(segments), _WRITE_BLOCK):
            block = "".join(map(_store_line, segments[i : i + _WRITE_BLOCK])).encode("ascii")
            digest.update(block)
            fh.write(block)
    return digest.hexdigest()


def _segment_of(rec: Any, lineno: int, path: str) -> Segment:
    """The segment of one decoded store record; a missing or mistyped key (a
    boolean is not an ``int``) raises ``CorruptArtifact`` naming the line."""
    try:
        seg = Segment(rec["segment_id"], rec["doc_id"], rec["start"], rec["end"], rec["text"])
        valid = (type(seg.segment_id) is str and type(seg.doc_id) is str
                 and type(seg.start) is int and type(seg.end) is int and type(seg.text) is str)
    except (KeyError, TypeError):
        valid = False
    if not valid:
        name = next(name for name, kind in _SEGMENT_FIELDS.items()
                    if not isinstance(rec, dict) or type(rec.get(name)) is not kind)
        raise CorruptArtifact(
            f"segment store {path}: line {lineno} has a missing or mistyped {name!r}"
        )
    return seg


def read_segments(path: str) -> list[Segment]:
    """Every segment of a store written by :func:`write_segments`. A line that does
    not parse raises ``UsageError``; a record with a missing or mistyped key
    raises ``CorruptArtifact``. Both name the line."""
    return [_segment_of(rec, lineno, path) for lineno, rec in read_jsonl(path, "segment store")]


class SegmentStore(Mapping[str, Segment]):
    """A segment store read once, keyed by ``ids``, the embedding index's ids in
    row order, for a stage that uses few of its records.

    The bytes are read and hashed (``sha256``) once and split into lines. Line
    *i* must begin with ``store_line_prefix(ids[i])``, so the store is checked to
    hold ``ids`` in that order without a record being decoded. A record is
    decoded and checked as :func:`read_segments` checks it the first time it is
    looked up. Lines shorter than ``min_bytes`` are left out of the mapping: an ASCII
    store line that short cannot hold a text of ``min_bytes`` characters.
    """

    def __init__(self, path: str, ids: Sequence[str], min_bytes: int):
        with reading(path, "segment store", "rb") as fh:
            data = fh.read()
        self.path = path
        self.sha256 = hashlib.sha256(data).hexdigest()
        lines = data.split(b"\n")
        if not lines[-1]:
            lines.pop()
        prefixes = (store_line_prefix(sid).encode("ascii") for sid in ids)
        if len(lines) != len(ids) or not all(map(bytes.startswith, lines, prefixes)):
            raise CorruptArtifact(
                f"the embedding index does not list the ids of segment store {path} "
                "in store order: re-run `claimlens ingest`"
            )
        self._lines = lines
        self._rows = {sid: row for row, sid in enumerate(ids) if len(lines[row]) >= min_bytes}
        self._decoded: dict[str, Segment] = {}

    def __getitem__(self, segment_id: str) -> Segment:
        seg = self._decoded.get(segment_id)
        if seg is None:
            row = self._rows[segment_id]
            rec = decode_line(self._lines[row], "segment store", self.path, row + 1)
            seg = _segment_of(rec, row + 1, self.path)
            if seg.segment_id != segment_id:
                raise CorruptArtifact(
                    f"segment store {self.path}: line {row + 1} holds {seg.segment_id!r}, "
                    f"not {segment_id!r}"
                )
            self._decoded[segment_id] = seg
        return seg

    def __contains__(self, segment_id: object) -> bool:
        return segment_id in self._rows

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


# ---------------------------------------------------------------------------
# Sentence splitting
# ---------------------------------------------------------------------------

# Guard list: a period after one of these does not end a sentence.
_ABBREVIATIONS = {
    "dr", "mr", "mrs", "ms", "prof", "sr", "jr", "st",
    "fig", "figs", "eq", "eqs", "sec", "ch", "vol", "no", "pp",
    "e.g", "i.e", "etc", "vs", "cf", "ca", "al", "approx", "resp",
}
# A word longer than this, all letters and digits, is neither an initial nor one of
# them: lowercasing never shortens a word.
_LONGEST_GUARDED = max(map(len, _ABBREVIATIONS))

# A terminal, then any run of terminals and closers, then a space or the end.
# The run is greedy and its lookahead can only hold after a maximal run.
_SENTENCE_END = re.compile(r"[.!?][.!?\"')\]]*(?= |$)")


def split_sentences(text: str) -> list[str]:
    """Rule-based sentence splitting on terminal punctuation plus whitespace.

    Whitespace is normalized first; an abbreviation guard list keeps
    "Dr. Smith" and "e.g. this" inside one sentence. Deterministic and
    dependency-free by design.
    """
    text = " ".join(text.split())
    sentences: list[str] = []
    start = 0
    for run in _SENTENCE_END.finditer(text):
        dot = run.start()
        if text[dot] == ".":
            word = text[text.rfind(" ", 0, dot) + 1 : dot]
            if (len(word) <= _LONGEST_GUARDED or not word.isalnum()) and _guarded(text, dot):
                continue
        piece = text[start : run.end()].strip()
        if piece:
            sentences.append(piece)
        start = run.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def _guarded(text: str, dot: int) -> bool:
    """True when the token ending at `dot` is a known abbreviation or initial."""
    k = dot - 1
    while k >= 0 and (text[k].isalnum() or text[k] == "."):
        k -= 1
    word = text[k + 1 : dot]
    if not word or not word[0].isalpha():
        return False
    if len(word) == 1:  # single-letter initial, "J. Smith"
        return True
    return word.lower().rstrip(".") in _ABBREVIATIONS or word.lower() in _ABBREVIATIONS


def sentences_of(doc: Document) -> list[str]:
    pieces = split_sentences(doc.text)
    if not pieces:
        raise UsageError(f"document {doc.doc_id!r} has no sentences")
    return pieces


# ---------------------------------------------------------------------------
# Terms: stopword filtering + light suffix stemming
# ---------------------------------------------------------------------------

_STOPWORDS = frozenset(
    """a about above after again against all am an and any are as at be because
    been before being below between both but by can did do does doing down
    during each few for from further had has have having he her here hers
    herself him himself his how i if in into is it its itself just me more
    most my myself nor not of off on once only or other our ours ourselves
    out over own same she should so some such than that the their theirs them
    themselves then there these they this those through to too under until up
    very was we were what when where which while who whom why will with you
    your yours yourself yourselves""".split()
)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@functools.cache
def _stem(word: str) -> str:
    """Small deterministic suffix stripper in the Porter tradition, memoized
    per word (``_stem.__wrapped__`` is the plain function).

    Reproducibility matters more than linguistic accuracy here, so this
    handles the common inflectional endings only.
    """
    if len(word) <= 3:
        return word
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-3] + "i"
    if word.endswith("ss"):
        return word
    if word.endswith("s") and len(word) > 4:
        word = word[:-1]
    for suffix in ("ational", "ization", "fulness", "iveness", "ousness"):
        if word.endswith(suffix) and len(word) > len(suffix) + 2:
            return word[: -len(suffix)]
    for suffix in ("ing", "edly", "ed", "ly", "ment", "ness", "tion", "ity"):
        if word.endswith(suffix) and len(word) - len(suffix) >= 3:
            stem = word[: -len(suffix)]
            if len(stem) >= 2 and stem[-1] == stem[-2]:  # "running" -> "run"
                stem = stem[:-1]
            return stem
    if word.endswith("y") and len(word) > 4:
        return word[:-1] + "i"
    return word


def extract_terms(text: str) -> Counter:
    """Stemmed, stopword-filtered token multiset for one sentence."""
    tokens = _TOKEN_RE.findall(text.lower())
    return Counter(map(_stem, itertools.filterfalse(_STOPWORDS.__contains__, tokens)))


# ---------------------------------------------------------------------------
# Divisive topical segmentation
# ---------------------------------------------------------------------------


def _similarity_matrix(term_counts: list[Counter], out: np.ndarray) -> np.ndarray:
    """The sentence-pair cosine matrix of ``term_counts``, written into the
    ``(n, n)`` array ``out`` (a slice of a stack), which is returned."""
    vocab: dict[str, int] = {}
    columns = [vocab.setdefault(term, len(vocab)) for counts in term_counts for term in counts]
    n = len(term_counts)
    if not vocab:
        out[...] = 0.0
        return out
    rows = np.repeat(np.arange(n), list(map(len, term_counts)))
    counts = np.fromiter(
        itertools.chain.from_iterable(c.values() for c in term_counts), float, len(columns)
    )
    # The squared counts are integers, so each row's sum of them is exact in any
    # order: these are the row norms of the count matrix, bit for bit. A row
    # without terms stays zero.
    norms = np.sqrt(np.bincount(rows, weights=counts * counts, minlength=n))
    unit = np.zeros((n, len(vocab)))
    unit[rows, columns] = counts / norms[rows]
    product = unit @ unit.T
    # The smaller of each mirrored pair makes the matrix exactly symmetric
    # whatever the BLAS, as the rank transform needs (a masked mirror of one
    # triangle costs several times more). Then quantize in place so the strict
    # comparisons in the rank transform cannot flip on last-ulp differences
    # between BLAS implementations.
    np.minimum(product, product.T, out=out)
    np.clip(out, 0.0, 1.0, out=out)
    return np.round(out, 9, out=out)


def _rank_transform(sims: np.ndarray, mask: int) -> np.ndarray:
    """Replace each cell of every symmetric matrix in the ``(B, n, n)`` stack
    ``sims`` by the fraction of its mask neighborhood it beats.

    The square mask is clipped at matrix edges; the center cell is excluded
    from the neighbor count. Each mask offset is one whole-stack comparison
    against a copy with every matrix NaN-padded on its own: NaN never compares
    below a cell, so offsets that fall off a matrix count for nothing, and the
    clipped neighbor count is ``span_i * span_j - 1`` with ``span`` the
    clipped window length. Because each matrix and its padding are symmetric,
    the count for offset (dj, di) is the transpose of the count for (di, dj):
    each mirrored pair of offsets is compared once and counted with its
    transpose, and only the offsets on the mask's diagonal count alone (65
    comparisons instead of 120 for the default mask of 11). The counts are
    integers, so each matrix's ranks are the ones it gets in a stack of one.
    """
    count, n = sims.shape[:2]
    radius = max(0, min(mask // 2, n - 1))
    width = 2 * radius + 1
    padded = np.full((count, n + 2 * radius, n + 2 * radius), np.nan)
    padded[:, radius : radius + n, radius : radius + n] = sims
    # Counts and window sizes are at most width^2, which fits a small
    # unsigned type (uint8 for the default mask of 11); float64 counters
    # would each take as much memory as the similarity matrices. Each
    # comparison writes its booleans into a uint8 array, so adding it to a
    # uint8 count needs no cast.
    small = np.min_scalar_type(width**2)
    above = np.zeros(sims.shape, dtype=small)  # offsets above the mask's diagonal, di < dj
    beaten = np.empty(sims.shape, dtype=np.uint8)
    hit = beaten.view(bool)
    for di in range(width):
        for dj in range(di + 1, width):
            np.less(padded[:, di : di + n, dj : dj + n], sims, out=hit)
            above += beaten
    lower = above + above.transpose(0, 2, 1)
    for d in range(width):
        if d != radius:
            np.less(padded[:, d : d + n, d : d + n], sims, out=hit)
            lower += beaten
    del padded, beaten, hit, above
    idx = np.arange(n)
    span = (np.minimum(n, idx + radius + 1) - np.maximum(0, idx - radius)).astype(small)
    neighbors = span[:, None] * span[None, :] - 1
    # A cell without neighbors (a mask of 1, or a single sentence) beats none.
    return lower / np.maximum(neighbors, 1)


def choose_boundaries(ranks: np.ndarray, config: PipelineConfig) -> list[list[int]]:
    """Greedy divisive boundary placement maximizing inside density, run in
    lockstep on every rank matrix of the ``(B, n, n)`` stack ``ranks``.

    Density is the total rank mass inside the diagonal segment blocks divided
    by their total area. Each step inserts the single boundary giving the
    largest density, the first such cut in segment and cut order on a tie;
    insertion stops when the relative gain falls below the threshold, no
    admissible split remains, or the segment cap is reached. Returns, per
    matrix, the sorted list of boundary start indices (excluding 0).

    Every cut 1..n-1 lies in exactly one current segment, so one step scores
    every cut of every matrix in one array expression, and cut order is
    segment and cut order. A trial's mass is ``(mass_before + left) + right``,
    then each later segment's mass is added one at a time, left to right in
    segment order (a masked add, so a cut adds only the segments after its
    own), so every density, and so every tie, is the one the trial
    segmentation gives when scored on its own.
    """
    count, n = ranks.shape[:2]
    min_len = config.min_segment_sentences
    # 2D prefix sums per matrix, a cumsum along each axis, so any diagonal
    # block sum is O(1).
    size = n + 1
    prefix = np.empty((count, size, size))
    prefix[:, 0] = prefix[:, 1:, 0] = 0.0
    inner = prefix[:, 1:, 1:]
    np.add.accumulate(ranks, axis=1, out=inner)
    np.add.accumulate(inner, axis=2, out=inner)
    flat = prefix.reshape(-1)
    rows = np.arange(count)
    base = rows[:, None] * (size * size)  # where each matrix's prefix begins in ``flat``
    cuts = np.arange(1, n)
    cut_rows = base + cuts * size
    at_cut = flat[cut_rows + cuts]  # corner[c] = prefix[c, c] for each cut c
    # Per cut of each matrix: the first sentence of the segment holding it, one
    # past its last, and its order among the segments.
    starts = np.zeros((count, n - 1), dtype=np.intp)
    stops = starts + n
    order = np.zeros((count, n - 1), dtype=np.intp)
    slots = min(config.max_segments_per_doc, n)
    slot = np.arange(slots)
    masses = np.zeros((count, slots))  # each segment's mass, in segment order
    masses[:, 0] = prefix[:, n, n]  # one segment, the whole matrix
    mass_before = np.zeros((count, slots))
    area = np.full((count, 1), n * n)  # the segments' total area, an exact integer
    current = masses[:, 0] / (n * n)
    active = np.ones(count, dtype=bool)
    for step in range(1, slots):  # ``step`` segments in every active matrix
        before, after = cuts - starts, stops - cuts  # the lengths the cut leaves
        admissible = (before >= min_len) & (after >= min_len)
        # The rank mass of the block [a, z) x [a, z) is
        # corner[z] - prefix[a, z] - prefix[z, a] + corner[a]; the cut leaves
        # [start, cut) on its left and [cut, stop) on its right.
        start_rows, stop_rows = base + starts * size, base + stops * size
        left = (at_cut - flat[start_rows + cuts] - flat[cut_rows + starts]
                + flat[start_rows + starts])
        right = (flat[stop_rows + stops] - flat[cut_rows + stops] - flat[stop_rows + cuts]
                 + at_cut)
        np.add.accumulate(masses[:, : step - 1], axis=1, out=mass_before[:, 1:step])
        mass = mass_before[rows[:, None], order] + left
        mass += right
        for later in range(1, step):
            np.add(mass, masses[:, later, None], out=mass, where=order < later)
        # (before + after)^2 becomes before^2 + after^2: the area falls by 2 * before * after.
        density = mass / (area - 2 * before * after)
        density[~admissible] = -np.inf
        best_cut = density.argmax(axis=1)
        at = (rows, best_cut)
        best = density[at]
        gain = np.divide(best - current, current, out=np.where(best > 0, np.inf, 0.0),
                         where=current > 0)
        active &= (best > -np.inf) & (gain >= config.min_density_gain)
        if not active.any():
            break
        # Split the chosen segment of each active matrix at its best cut.
        live = active[:, None]
        cut, split = best_cut[:, None] + 1, order[at][:, None]
        held = live & (starts == starts[at][:, None])  # the cuts of the chosen segment
        later = cuts >= cut
        np.copyto(stops, cut, where=held & ~later)
        np.copyto(starts, cut, where=held & later)
        order += live & later
        inserted = np.where(slot > split, masses[:, slot - 1], masses)
        inserted[rows, split[:, 0]] = left[at]
        inserted[rows, split[:, 0] + 1] = right[at]
        np.copyto(masses, inserted, where=live)
        area[active] -= 2 * (before[at] * after[at])[active, None]
        current = np.where(active, best, current)
    found: list[list[int]] = [[] for _ in range(count)]
    matrix, column = np.nonzero(starts == cuts)  # the cuts that begin a segment
    for row, boundary in zip(matrix.tolist(), cuts[column].tolist()):
        found[row].append(boundary)
    return found


_STACK_CELLS = 1 << 16  # matrix cells per stack, so a document of 256 sentences or more goes alone


def segment_corpus(documents: Sequence[Document], config: PipelineConfig) -> list[list[Segment]]:
    """Partition each document into topical segments that tile its sentences,
    under the segmentation fields of ``config``; one segment list per document.

    Documents of equal sentence count are segmented as one stack of at most
    ``_STACK_CELLS`` matrix cells: one rank transform and one boundary search
    per stack, with the result each document gets on its own. A stack is
    segmented as soon as it is full, so only the documents of unfilled stacks
    wait with their sentences.
    """
    segmented: list[list[Segment]] = []
    waiting: dict[int, list[tuple[int, list[str]]]] = {}  # by sentence count

    def segment_stack(stack: list[tuple[int, list[str]]]) -> None:
        n = len(stack[0][1])
        sims = np.empty((len(stack), n, n))
        for sim, (_, pieces) in zip(sims, stack):
            _similarity_matrix([extract_terms(s) for s in pieces], sim)
        ranks = _rank_transform(sims, config.rank_mask)
        for (k, pieces), cuts in zip(stack, choose_boundaries(ranks, config)):
            segmented[k] = [_make_segment(documents[k], pieces, a, b - 1)
                            for a, b in itertools.pairwise([0, *cuts, len(pieces)])]

    for k, doc in enumerate(documents):
        pieces = sentences_of(doc)
        n = len(pieces)
        # No admissible cut: the segmenter would return the whole document, so
        # skip the similarity and rank matrices altogether.
        if n == 1 or n < 2 * config.min_segment_sentences or config.max_segments_per_doc < 2:
            segmented.append([_make_segment(doc, pieces, 0, n - 1)])
            continue
        segmented.append([])
        stack = waiting.setdefault(n, [])
        stack.append((k, pieces))
        if len(stack) >= max(1, _STACK_CELLS // (n * n)):
            segment_stack(waiting.pop(n))
    for stack in waiting.values():
        segment_stack(stack)
    return segmented


def segment_document(doc: Document, config: PipelineConfig) -> list[Segment]:
    """Partition one document into topical segments: :func:`segment_corpus` of it."""
    return segment_corpus([doc], config)[0]


def _make_segment(
    doc: Document, sentences: list[str], start: int, end: int
) -> Segment:
    text = " ".join(sentences[start : end + 1])
    return Segment(
        segment_id=f"{doc.doc_id}#{start}-{end}",
        doc_id=doc.doc_id,
        start=start,
        end=end,
        text=text,
    )
