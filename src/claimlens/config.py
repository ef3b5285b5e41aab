"""Pipeline configuration: every tunable in one place, with a stable fingerprint.

The fingerprint hashes all semantic parameters (everything that can change a
result). The output directory and provider pointers (endpoints, model names,
transcript paths) are excluded: moving artifacts or swapping where a provider
lives does not invalidate them, and what a provider actually answers is pinned
by transcripts, not by config.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

from .artifacts import read_json
from .errors import UsageError
from .llm_gateway import TASKS

# The output directory and pointer fields, kept out of the fingerprint. Input
# locations (corpus, transcripts) are pointers too: their content shapes the
# artifacts directly, and a path string would tie fingerprints to a machine.
_NON_SEMANTIC_FIELDS = (
    "output_dir",
    "corpus_path",
    "embed_endpoint",
    "embed_model",
    "chat_endpoint",
    "chat_model",
    "mock_dir",
)

# The widest embedding a config may ask for, above any embedding model's width.
# A far wider one overflowed the hashed embedder's int64 row offsets, or asked
# for an index matrix too large to allocate.
MAX_EMBED_DIM = 2**16

MAX_RANK_MASK = 101

# Annotation -> types taken. A bool is refused; an int stays unconverted (same fingerprint).
_TAKES = {"int": (int,), "float": (int, float), "str": (str,)}


def _takes(annotation: str, value: Any) -> bool:
    if annotation == "dict[str, float]":
        return isinstance(value, dict) and all(_takes("float", v) for v in value.values())
    return isinstance(value, _TAKES[annotation]) and not isinstance(value, bool)


@dataclass
class PipelineConfig:
    claim: str = ""
    corpus_path: str = ""
    output_dir: str = "out"

    # hierarchy shape
    max_depth: int = 3
    k_aspects: int = 5
    k_subaspects: int = 5
    k_keywords: int = 10

    # discriminative ranking
    pool_size: int = 100
    k_segments: int = 10
    beta: float = 1.0
    gamma: float = 1.0
    epsilon: float = 1e-6

    # relevance filtering
    delta: float = 0.5
    window: int = 10
    min_chars: int = 500

    # segmentation
    rank_mask: int = 11
    min_density_gain: float = 0.05
    min_segment_sentences: int = 2
    max_segments_per_doc: int = 50

    # embeddings
    embed_dim: int = 256
    embed_endpoint: str = ""
    embed_model: str = ""

    # chat provider
    chat_endpoint: str = ""
    chat_model: str = ""
    mock_dir: str = ""
    max_retries: int = 3
    temperatures: dict[str, float] = field(default_factory=dict)

    # classification
    classify_threshold: float = 0.9

    # hashed embedder seed
    seed: int = 0

    def validate(self) -> None:
        temperatures = {f"temperatures[{task!r}]": t for task, t in self.temperatures.items()}
        for name, value in [*vars(self).items(), *temperatures.items()]:
            if isinstance(value, float) and not math.isfinite(value):  # NaN passes later checks
                raise UsageError(f"{name} must be a finite number, got {value}")
        for name in ("k_aspects", "k_subaspects", "k_keywords", "pool_size", "k_segments",
                     "window", "embed_dim", "rank_mask", "min_segment_sentences",
                     "max_segments_per_doc"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be >= 1, got {getattr(self, name)}")
        # The mask is centred on its cell, so an even mask would act as the next odd one.
        if self.rank_mask % 2 == 0:
            raise UsageError(f"rank_mask must be odd, got {self.rank_mask}")
        if self.rank_mask > MAX_RANK_MASK:
            raise UsageError(f"rank_mask must be <= {MAX_RANK_MASK}, got {self.rank_mask}")
        if self.embed_dim > MAX_EMBED_DIM:
            raise UsageError(f"embed_dim must be <= {MAX_EMBED_DIM}, got {self.embed_dim}")
        if not -(2**63) <= self.seed < 2**63:  # the hashed embedder keys on its 8 bytes
            raise UsageError(f"seed must fit a signed 64-bit integer, got {self.seed}")
        for name in ("max_depth", "max_retries"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 < self.delta < 1.0:
            raise UsageError(f"delta must be in (0,1), got {self.delta}")
        if not 0.0 <= self.classify_threshold <= 1.0:  # above 1 not even the best child passes
            raise UsageError(f"classify_threshold must be in [0,1], got {self.classify_threshold}")
        if self.beta <= 0 or self.gamma <= 0:
            raise UsageError("beta and gamma must be positive")
        if self.epsilon <= 0:
            raise UsageError("epsilon must be positive")
        unknown = sorted(set(self.temperatures) - set(TASKS))
        if unknown:
            raise UsageError(f"temperatures name no LLM task: {unknown}")
        for name, value in self.to_dict().items():
            try:
                str(value).encode("utf-8")  # a command-line byte 0xff arrives as U+DCFF
            except UnicodeEncodeError:
                raise UsageError(f"{name} is not valid UTF-8 text") from None

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PipelineConfig":
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for name, value in data.items():
            if not _takes(types[name], value):
                raise UsageError(f"config key {name!r} must be {types[name]}, got {value!r}")
        return cls(**data)

    def fingerprint(self) -> str:
        """Hash of all semantic parameters, stable across runs and platforms."""
        payload = {
            k: v for k, v in self.to_dict().items() if k not in _NON_SEMANTIC_FIELDS
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def load_config_file(path: str) -> dict[str, Any]:
    """Read a JSON config file into a plain dict (flags override it later)."""
    data = read_json(path, "config file")
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return data
