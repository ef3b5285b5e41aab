"""Independent brute-force reference implementations used only by tests.

Everything here is pure Python (standard library only) and deliberately
shares no code with the package: these are the second route of every
dual-route check.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
import struct
from typing import Callable, Sequence


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    num = math.fsum(x * y for x, y in zip(a, b))
    da = math.sqrt(math.fsum(x * x for x in a))
    db = math.sqrt(math.fsum(y * y for y in b))
    return num / (da * db)


def zipf_mean(values: Sequence[float]) -> float:
    num = math.fsum(v / (r + 1) for r, v in enumerate(values))
    den = math.fsum(1.0 / (r + 1) for r in range(len(values)))
    return num / den


def target(segment: Sequence[float], queries: Sequence[Sequence[float]]) -> float:
    sims = [min(1.0, max(0.0, cosine(segment, q))) for q in queries]
    return zipf_mean(sims)


def distractor(
    segment: Sequence[float], sibling_sets: Sequence[Sequence[Sequence[float]]]
) -> float:
    if not sibling_sets:
        return 0.0
    scores = [target(segment, queries) for queries in sibling_sets]
    return 0.5 * (math.fsum(scores) / len(scores)) + 0.5 * max(scores)


def rank_pool(
    ids: Sequence[str],
    vectors: Sequence[Sequence[float]],
    query: Sequence[float],
    target_queries: Sequence[Sequence[float]],
    sibling_sets: Sequence[Sequence[Sequence[float]]],
    pool_size: int,
    k_segments: int,
    beta: float,
    gamma: float,
    epsilon: float,
) -> list[tuple[str, float, float, float]]:
    """Full brute force: pool selection by query similarity, then scoring.

    Returns (segment_id, target, distractor, score) rows in final rank order.
    """
    by_query = sorted(
        ((cosine(vec, query), sid, vec) for sid, vec in zip(ids, vectors)),
        key=lambda row: (-row[0], row[1]),
    )
    pool = by_query[:pool_size]
    rows = []
    for _, sid, vec in pool:
        t = target(vec, target_queries)
        if sibling_sets:
            d = distractor(vec, sibling_sets)
            score = (beta * t) / (gamma * max(d, epsilon))
        else:
            d = 0.0
            score = t
        rows.append((sid, t, d, score))
    rows.sort(key=lambda row: (-row[3], row[0]))
    return rows[:k_segments]


def window_scan_boundary(
    count: int, relevant: Callable[[int], bool], delta: float, window: int
) -> int:
    """Left-to-right scan for the first rank whose window falls below delta."""
    for i in range(count):
        lo, hi = max(0, i - window), min(count - 1, i + window)
        hits = sum(1 for j in range(lo, hi + 1) if relevant(j))
        if hits / (hi - lo + 1) < delta:
            return i
    return count


def full_window_boundary(
    count: int, relevant: Callable[[int], bool], delta: float, window: int
) -> int:
    """Binary search for the first sparse window, judging every rank of each
    window it probes."""
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) // 2
        first, last = max(0, mid - window), min(count - 1, mid + window)
        hits = sum(1 for j in range(first, last + 1) if relevant(j))
        if hits / (last - first + 1) < delta:
            hi = mid
        else:
            lo = mid + 1
    return lo


def rank_order_settled_boundary(
    count: int, relevant: Callable[[int], bool], delta: float, window: int
) -> tuple[int, set[int]]:
    """Binary search that judges each probed window in rank order, left to
    right, only until its verdict is settled. Returns the boundary and the set
    of ranks it judged."""
    judged: set[int] = set()
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) // 2
        first, last = max(0, mid - window), min(count - 1, mid + window)
        size, hits = last - first + 1, 0
        for j in range(first, last + 1):
            if hits / size >= delta or (hits + last + 1 - j) / size < delta:
                break
            judged.add(j)
            hits += relevant(j)
        if hits / size < delta:
            hi = mid
        else:
            lo = mid + 1
    return lo, judged


# --- segmentation: similarity, rank transform, single-boundary search ---


def _sentence_cosine(u: dict[str, int], v: dict[str, int]) -> float:
    shared = set(u) & set(v)
    num = math.fsum(u[t] * v[t] for t in shared)
    du = math.sqrt(math.fsum(c * c for c in u.values()))
    dv = math.sqrt(math.fsum(c * c for c in v.values()))
    if du == 0.0 or dv == 0.0:
        return 0.0
    # Same 1e-9 quantization contract as the segmenter's similarity matrix.
    return round(min(1.0, max(0.0, num / (du * dv))), 9)


def similarity_matrix(term_counts: Sequence[dict[str, int]]) -> list[list[float]]:
    n = len(term_counts)
    return [
        [_sentence_cosine(term_counts[i], term_counts[j]) for j in range(n)]
        for i in range(n)
    ]


def rank_matrix(sim: list[list[float]], mask: int) -> list[list[float]]:
    n = len(sim)
    radius = mask // 2
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            lower = 0
            total = 0
            for a in range(max(0, i - radius), min(n, i + radius + 1)):
                for b in range(max(0, j - radius), min(n, j + radius + 1)):
                    if a == i and b == j:
                        continue
                    total += 1
                    if sim[a][b] < sim[i][j]:
                        lower += 1
            out[i][j] = lower / total if total else 0.0
    return out


def _block(rank: list[list[float]], a: int, b: int) -> float:
    return math.fsum(rank[i][j] for i in range(a, b + 1) for j in range(a, b + 1))


def best_single_boundary(rank: list[list[float]], min_len: int) -> int | None:
    """Exhaustive search over single split points maximizing inside density."""
    n = len(rank)
    best_cut = None
    best_density = -1.0
    for cut in range(min_len, n - min_len + 1):
        mass = _block(rank, 0, cut - 1) + _block(rank, cut, n - 1)
        area = cut * cut + (n - cut) * (n - cut)
        density = mass / area
        if density > best_density:
            best_density = density
            best_cut = cut
    return best_cut


def greedy_boundaries(
    rank: list[list[float]], min_len: int, max_segments: int, min_gain: float
) -> list[int]:
    """The segmenter's greedy boundary search, one trial segmentation per cut.

    Each step tries every admissible cut of every segment, in segment then
    cut order, and keeps the first of the highest densities. The block sums
    come from 2D prefix sums accumulated down the columns, then along the
    rows; a trial's mass adds its segments' masses one by one in segment
    order. Both are the order in which the segmenter adds the same floats, so
    its boundaries must equal these exactly, ties included.
    """
    n = len(rank)
    down = list(zip(*(itertools.accumulate(column) for column in zip(*rank))))
    prefix = [[0.0] * (n + 1)] + [[0.0, *itertools.accumulate(row)] for row in down]

    def inside(a: int, b: int) -> float:
        return prefix[b + 1][b + 1] - prefix[a][b + 1] - prefix[b + 1][a] + prefix[a][a]

    def density(segs: list[tuple[int, int]]) -> float:
        mass = 0.0
        for a, b in segs:
            mass += inside(a, b)
        return mass / sum((b - a + 1) ** 2 for a, b in segs)

    segments = [(0, n - 1)]
    current = density(segments)
    while len(segments) < max_segments:
        best: tuple[float, int, int] | None = None
        for idx, (a, b) in enumerate(segments):
            for cut in range(a + min_len, b - min_len + 2):
                trial = segments[:idx] + [(a, cut - 1), (cut, b)] + segments[idx + 1 :]
                d = density(trial)
                if best is None or d > best[0]:
                    best = (d, idx, cut)
        if best is None:
            break
        d, idx, cut = best
        if current > 0:
            gain = (d - current) / current
        else:
            gain = math.inf if d > 0 else 0.0
        if gain < min_gain:
            break
        a, b = segments[idx]
        segments[idx : idx + 1] = [(a, cut - 1), (cut, b)]
        current = d
    return [a for a, _ in segments[1:]]


# --- sentence splitting: the character-by-character scan ---

_ABBREVIATIONS = {
    "dr", "mr", "mrs", "ms", "prof", "sr", "jr", "st",
    "fig", "figs", "eq", "eqs", "sec", "ch", "vol", "no", "pp",
    "e.g", "i.e", "etc", "vs", "cf", "ca", "al", "approx", "resp",
}


def _guarded(text: str, dot: int) -> bool:
    k = dot - 1
    while k >= 0 and (text[k].isalnum() or text[k] == "."):
        k -= 1
    word = text[k + 1 : dot]
    if not word or not word[0].isalpha():
        return False
    if len(word) == 1:
        return True
    return word.lower().rstrip(".") in _ABBREVIATIONS or word.lower() in _ABBREVIATIONS


def split_sentences(text: str) -> list[str]:
    """Walk the normalized text one character at a time: a terminal starts a
    run of terminals and closers, and the run ends a sentence when a space or
    the end follows it and it is not a guarded period."""
    text = " ".join(text.split())
    sentences: list[str] = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] in ".!?":
            j = i + 1
            while j < n and text[j] in ".!?\"')]":
                j += 1
            at_boundary = j >= n or text[j] == " "
            if at_boundary and not (text[i] == "." and _guarded(text, i)):
                piece = text[start:j].strip()
                if piece:
                    sentences.append(piece)
                start = j
            i = j
        else:
            i += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


# --- hashed bag-of-words embedding ---


def hashed_bow_rows(texts: Sequence[str], dim: int, seed: int) -> list[list[float]]:
    """Token counts per text, one token at a time: each ``[a-z0-9]+`` run of the
    lowercased text (the whole text when there is none) adds 1 to the bucket its
    keyed blake2b digest picks."""
    key = struct.pack("<q", seed)
    rows = []
    for text in texts:
        row = [0.0] * dim
        for token in re.findall(r"[a-z0-9]+", text.lower()) or [text]:
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key).digest()
            row[int.from_bytes(digest, "little") % dim] += 1.0
        rows.append(row)
    return rows
