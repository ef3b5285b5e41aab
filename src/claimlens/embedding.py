"""Text embeddings, a segment vector index, and cosine top-k queries.

A batch of vectors is one ``(n, dim)`` float64 matrix with unit-length rows,
from the embedder through the index to ranking. Two providers are
built in: an HTTP endpoint speaking ``{"texts": [...]} -> {"vectors": [...]}``
and a deterministic local hashed bag-of-words embedder so the whole pipeline
runs offline. The index is write-once / read-many.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import struct
from typing import Any, Protocol, Sequence

import numpy as np

from .artifacts import read_json, reading, replacing, write_json
from .errors import (
    CorruptArtifact,
    DimensionMismatch,
    EmptyIndex,
    ProviderUnavailable,
    ZeroVector,
)
from .http_provider import HttpJsonProvider

_NORM_TOL = 1e-9

# Every byte but an ASCII lowercase letter or digit becomes a space. A non-ASCII
# character encodes to bytes of 0x80 and above only, so no byte of one survives.
_TOKEN_BYTES = bytes(b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789" else 0x20
                     for b in range(256))


def _tokens(text: str) -> list[bytes]:
    """The ``[a-z0-9]+`` runs of the lowercased text, as bytes, found without a
    regex. ``surrogatepass`` encodes a lone surrogate, which no run holds, to
    high bytes that become spaces."""
    return text.lower().encode("utf-8", "surrogatepass").translate(_TOKEN_BYTES).split()


class EmbeddingProvider(Protocol):
    def embed(self, texts: Sequence[str]) -> Any:
        """One row of numbers per text: an ``(n, dim)`` matrix or nested lists."""


# ---------------------------------------------------------------------------
# Providers
# ---------------------------------------------------------------------------


class HashedBowEmbedder:
    """Deterministic local embedder: token-hash buckets over a fixed dim.

    Tokens are the ``[a-z0-9]+`` runs of the lowercased text (the whole text
    when there is none), hashed as UTF-8 with keyed blake2b so the layout
    depends only on (token, seed); identical text always yields an identical
    vector, on any platform. Each distinct token is hashed once per instance,
    from a copy of one keyed hash state, and its bucket remembered, so the
    memo grows with the vocabulary seen. Intended for tests and offline runs,
    not semantic quality.
    """

    def __init__(self, dim: int, seed: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self._keyed = hashlib.blake2b(digest_size=8, key=struct.pack("<q", seed))
        self._buckets: dict[bytes, int] = {}

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """Token counts, one ``dim``-wide row per text: one ``bincount`` over
        ``row * dim + bucket`` for the whole batch, hashing only new tokens."""
        memo = self._buckets
        rows = [_tokens(text) or [text.encode("utf-8")] for text in texts]
        tokens = list(itertools.chain.from_iterable(rows))
        for token in set(tokens).difference(memo):
            state = self._keyed.copy()
            state.update(token)
            memo[token] = int.from_bytes(state.digest(), "little") % self.dim
        cells = np.repeat(np.arange(len(rows)) * self.dim, list(map(len, rows)))
        cells += np.fromiter(map(memo.__getitem__, tokens), dtype=cells.dtype, count=len(tokens))
        counts = np.bincount(cells, minlength=len(texts) * self.dim)
        return counts.reshape(len(texts), self.dim).astype(np.float64)


class HttpEmbeddingProvider(HttpJsonProvider):
    """Remote embeddings endpoint; token comes from the environment."""

    kind = "embedding"
    api_key_env = "CLAIMLENS_EMBED_API_KEY"
    reply_key = "vectors"

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        payload: dict = {"texts": list(texts)}
        if self.model:
            payload["model"] = self.model
        return self._post(payload)


# ---------------------------------------------------------------------------
# Embedding operations
# ---------------------------------------------------------------------------


class Embedder:
    """Normalizing front-end over a provider: enforces dims and unit norms."""

    def __init__(self, provider: EmbeddingProvider):
        self.provider = provider

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        """Unit-length embeddings as one ``(len(texts), dim)`` matrix. A reply
        that is not one finite, non-zero row of numbers per text raises a
        typed error."""
        if not texts:
            return np.empty((0, 0))
        for t in texts:
            if not isinstance(t, str) or not t:
                raise ValueError("texts must be non-empty strings")
        raw = self.provider.embed(texts)
        try:
            matrix = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            rows = raw if isinstance(raw, list) else []
            if len({len(row) for row in rows if isinstance(row, (list, np.ndarray))}) > 1:
                raise DimensionMismatch("provider returned rows of different dims") from exc
            raise ProviderUnavailable(f"provider returned a non-number: {exc}") from exc
        count = len(matrix) if matrix.ndim else 0
        if count != len(texts):
            raise ProviderUnavailable(
                f"provider returned {count} vectors for {len(texts)} texts"
            )
        if matrix.ndim != 2:
            raise DimensionMismatch("provider returned a non-flat vector")
        # numpy reads "1.5" and True as numbers, but a JSON reply holding them is malformed.
        for value in () if isinstance(raw, np.ndarray) else (v for row in raw for v in row):
            if isinstance(value, (str, bool)):
                raise ProviderUnavailable(f"provider returned a non-number: {value!r}")
        if not np.isfinite(matrix).all():
            raise ProviderUnavailable("provider returned non-finite values")
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        if not norms.all():
            raise ZeroVector("cannot normalize a zero vector")
        return matrix / norms

    def embed_one(self, text: str) -> np.ndarray:
        return self.embed_texts([text])[0]


def normalize(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroVector("cannot normalize a zero vector")
    return vec / norm


# ---------------------------------------------------------------------------
# Index
# ---------------------------------------------------------------------------


class EmbeddingIndex:
    """In-memory map of segment_id -> unit vector with exact top-k search.

    Vectors live in the first ``len(self)`` rows of one contiguous float64
    matrix of ``capacity`` rows, reserved up front and filled with no copy; a
    batch past the reservation is a ``ValueError``.
    """

    def __init__(self, dim: int, capacity: int):
        self.dim = dim
        self._ids: list[str] = []
        self._rows: dict[str, int] = {}
        self._matrix = np.empty((capacity, dim))

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    def add_batch(self, ids: Sequence[str], vectors: Any) -> None:
        """Append one row of ``vectors``, an ``(len(ids), dim)`` matrix, per id,
        renormalizing any row not of unit length. The batch is checked whole
        before the index changes, so a bad batch adds nothing."""
        try:
            block = np.array(vectors, dtype=np.float64)
        except ValueError as exc:
            raise DimensionMismatch(f"vectors do not form one matrix: {exc}") from exc
        if block.shape != (len(ids), self.dim):
            raise DimensionMismatch(f"vectors of shape {block.shape} for {len(ids)} ids")
        _unit_rows(block)
        start, end = len(self._ids), len(self._ids) + len(ids)
        if end > len(self._matrix):
            raise ValueError(f"{end} rows overflow the {len(self._matrix)} reserved")
        self._register(ids)
        self._matrix[start:end] = block

    def _register(self, ids: Sequence[str]) -> None:
        """Give each id the next row, rejecting one already indexed or repeated."""
        fresh: dict[str, int] = {}
        for segment_id in ids:
            if segment_id in self._rows or segment_id in fresh:
                raise ValueError(f"segment {segment_id!r} indexed twice")
            fresh[segment_id] = len(self._ids) + len(fresh)
        self._rows.update(fresh)
        self._ids.extend(ids)

    def get(self, segment_id: str) -> np.ndarray:
        return self._matrix[self._rows[segment_id]]

    def _dense(self) -> np.ndarray:
        return self._matrix[: len(self._ids)]

    def similarities(self, query: np.ndarray) -> np.ndarray:
        """Cosine of the (unit) query against every stored vector, index order."""
        if len(self) == 0:
            raise EmptyIndex("index holds no vectors")
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dim,):
            raise DimensionMismatch(
                f"query dim {q.shape} does not match index dim {self.dim}"
            )
        sims = self._dense() @ normalize(q)
        return np.clip(sims, -1.0, 1.0)

    def top_k(self, query: np.ndarray, k: int) -> list[tuple[str, float]]:
        """Top-k entries by descending similarity, ties by ascending id.

        Only rows at or above the k-th largest similarity are sorted, so every
        row tied with the k-th value competes on id.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        sims = self.similarities(query)
        ids = self._ids
        if k < len(sims):
            kth = sims[np.argpartition(-sims, k - 1)[k - 1]]
            rows = np.flatnonzero(sims >= kth)
            ids = [ids[row] for row in rows.tolist()]
            sims = sims[rows]
        ranked = sorted(zip(ids, sims.tolist()), key=lambda item: (-item[1], item[0]))
        return ranked[:k]

    # --- persistence: flat binary vectors + sidecar id manifest ---

    def save(self, directory: str, stamp: dict[str, str]) -> None:
        """Write ``vectors.bin``, streamed from the matrix, then the manifest naming its
        rows; the manifest records the keys of ``stamp`` as given and the SHA-256 of
        the vector bytes as ``vectors_sha256``."""
        vectors = np.ascontiguousarray(self._dense(), dtype="<f8")
        with replacing(os.path.join(directory, "vectors.bin")) as fh:
            vectors.tofile(fh)
        manifest = {
            "dim": self.dim,
            "count": len(self._ids),
            **stamp,
            "vectors_sha256": hashlib.sha256(vectors).hexdigest(),
            "segment_ids": self._ids,
        }
        write_json(os.path.join(directory, "index_manifest.json"), manifest)

    @classmethod
    def load(cls, directory: str) -> tuple["EmbeddingIndex", dict[str, Any]]:
        """Read an index written by :meth:`save`, with its manifest. ``vectors.bin`` is
        read into one buffer, checked against ``vectors_sha256`` and viewed as the
        matrix. An unreadable file raises ``UnreadableFile``; a malformed manifest or
        vector, vectors that are not the ones the manifest records, or a disagreement
        between them raises ``CorruptArtifact`` or ``DimensionMismatch``."""
        manifest = read_manifest(directory)
        dim, count, ids = manifest["dim"], manifest["count"], manifest["segment_ids"]
        expected = manifest.get("vectors_sha256")
        if not isinstance(expected, str):
            raise CorruptArtifact(
                f"index manifest in {directory} records no vectors sha256: "
                "re-run `claimlens ingest`"
            )
        if len(ids) != count:
            raise DimensionMismatch(
                f"index manifest lists {len(ids)} segment ids, expected {count}"
            )
        with reading(os.path.join(directory, "vectors.bin"), "index vectors", "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != 8 * count * dim:
                raise DimensionMismatch(
                    f"vectors.bin holds {size} bytes, expected {8 * count * dim}: "
                    f"{count} rows of {dim} floats"
                )
            raw = np.empty(count * dim, dtype="<f8")
            fh.readinto(raw)  # a short read leaves bytes that the hash check refuses
        if hashlib.sha256(raw).hexdigest() != expected:
            raise CorruptArtifact(
                f"vectors.bin in {directory} is not the one its manifest records under "
                "vectors sha256: re-run `claimlens ingest`"
            )
        index = cls(dim, capacity=0)
        try:
            index._register(ids)
            index._matrix = _unit_rows(raw.reshape(count, dim).astype(np.float64, copy=False))
        except ValueError as exc:
            raise CorruptArtifact(f"index in {directory}: {exc}") from exc
        return index, manifest


def read_manifest(directory: str) -> dict[str, Any]:
    """The manifest :meth:`EmbeddingIndex.save` wrote in ``directory``, without its
    vectors; a missing or mistyped ``dim``, ``count`` or ``segment_ids`` raises
    ``CorruptArtifact``."""
    manifest_path = os.path.join(directory, "index_manifest.json")
    manifest = read_json(manifest_path, "index manifest")
    try:
        dim = manifest["dim"]
        count = manifest["count"]
        ids = manifest["segment_ids"]
    except (KeyError, TypeError) as exc:
        raise CorruptArtifact(
            f"index manifest {manifest_path} is malformed: missing or mistyped {exc}"
        ) from exc
    if not isinstance(dim, int) or not isinstance(count, int) or dim < 1 or count < 0:
        raise CorruptArtifact(
            f"index manifest {manifest_path} has dim {dim!r} and count {count!r}"
        )
    if not isinstance(ids, list) or not all(isinstance(sid, str) for sid in ids):
        raise CorruptArtifact(
            f"index manifest {manifest_path} segment_ids is not a list of strings"
        )
    return manifest


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Renormalize, in place, the rows whose L2 norm is off 1 by more than the
    tolerance (unit rows keep their bits); a non-finite norm is a ``ValueError``.
    ``einsum`` sums the squares with no matrix-sized temporary and no warning."""
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    if not np.isfinite(norms).all():
        raise ValueError(f"row {np.argmin(np.isfinite(norms))} has a non-finite norm")
    for row in np.flatnonzero(np.abs(norms - 1.0) > _NORM_TOL):
        matrix[row] = normalize(matrix[row])
    return matrix
