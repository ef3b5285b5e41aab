from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from claimlens.config import PipelineConfig
from claimlens.corpus import Document, Segment
from claimlens.embedding import Embedder, EmbeddingIndex, HashedBowEmbedder
from claimlens.llm_gateway import LlmGateway, OperationLog

DATA_DIR = Path(__file__).parent / "data"

TOPIC_A = [
    "magnet", "circuit", "voltage", "resistor", "capacitor", "inductor",
    "current", "dielectric", "impedance", "oscillator", "transistor", "diode",
]
TOPIC_B = [
    "basil", "sourdough", "oven", "yeast", "flour", "saucepan",
    "simmer", "broth", "garnish", "marinade", "skillet", "whisk",
]


def make_sentence(rng: random.Random, vocab: list[str], length: int = 8) -> str:
    words = [rng.choice(vocab) for _ in range(length)]
    return " ".join(words).capitalize() + "."


def make_two_topic_doc(
    doc_id: str, rng: random.Random, first: int = 5, second: int = 5
) -> Document:
    sentences = [make_sentence(rng, TOPIC_A) for _ in range(first)]
    sentences += [make_sentence(rng, TOPIC_B) for _ in range(second)]
    return Document(doc_id=doc_id, title=f"doc {doc_id}", text=" ".join(sentences))


class RuleChatProvider:
    """Test-only provider: a function of (task name, prompt) -> response str."""

    def __init__(self, fn):
        self.fn = fn
        self.calls: list[tuple[str, str]] = []

    def complete(self, task, prompt: str, base_hash: str) -> str:
        self.calls.append((task.name, prompt))
        return self.fn(task.name, prompt)


def rule_gateway(fn, **kwargs) -> LlmGateway:
    return LlmGateway(RuleChatProvider(fn), log=OperationLog(), **kwargs)


def jdump(value) -> str:
    return json.dumps(value)


@pytest.fixture
def embedder() -> Embedder:
    return Embedder(HashedBowEmbedder(dim=256, seed=0))


@pytest.fixture
def small_config(tmp_path) -> PipelineConfig:
    cfg = PipelineConfig(
        claim="Vaccine Alpha is better than Vaccine Beta",
        output_dir=str(tmp_path / "out"),
        max_depth=2,
        k_aspects=3,
        k_subaspects=3,
        pool_size=8,
        k_segments=4,
        min_chars=0,
    )
    cfg.validate()
    return cfg


def build_index(embedder: Embedder, segments: list[Segment]) -> EmbeddingIndex:
    vectors = embedder.embed_texts([s.text for s in segments])
    index = EmbeddingIndex(dim=vectors[0].shape[0], capacity=len(segments))
    index.add_batch([s.segment_id for s in segments], vectors)
    return index


def make_segments(texts: dict[str, str]) -> dict[str, Segment]:
    """segment_id -> text mapping into Segment objects (doc id before '#')."""
    out = {}
    for segment_id, text in texts.items():
        doc_id = segment_id.split("#")[0]
        out[segment_id] = Segment(
            segment_id=segment_id, doc_id=doc_id, start=0, end=0, text=text
        )
    return out
