"""Workload inputs: the bundled fixtures, or a seeded synthetic corpus whose
mock transcript is recorded once per seed from the rule-based reference LLM.

The synthetic corpora are built from the fixture generator's topic blocks
(``scripts/generate_fixtures.py``), and the transcript is recorded the way
that script records the bundled one: a reference run of the whole pipeline in
this process, with the rule-based LLM behind a recording provider. The timed
passes then replay that transcript through the shipped ``MockChatProvider``.
Document count, lengths and topic plan never depend on the seed, so neither
does the work per pass; see each generator for what the seed does change.
"""

from __future__ import annotations

import contextlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "tests" / "data"
GOLDEN_DIR = DATA_DIR / "golden"

# The outputs frozen under tests/data/golden/ that every fixture pass must
# reproduce byte for byte.
GOLDEN_FILES = (
    "hierarchy.json",
    "hierarchy_perspectives.json",
    "consensus.tsv",
    "metrics.json",
    "metrics.txt",
)

# long_papers: sentence counts of the papers, evenly spread over 150..300.
LONG_PAPER_SENTENCES = [150, 200, 250, 300]
# wide_corpus: three-topic studies, and short off-topic notes under min_chars.
WIDE_STUDIES = 30
WIDE_NOTES = 10000
NOTE_SENTENCES = 2

# Seed of the words that stay fixed across benchmark seeds.
FIXED_SEED = 2024

# Per-call provider latency, in milliseconds, of the workloads that add one.
LATENCY_MS = {"fixture_llm_wait": 20}

WORKLOADS = ("fixture_cpu", "fixture_llm_wait", "long_papers", "wide_corpus")


def _fixture_generator():
    """The fixture generator module; importing it puts src/ and the repo root
    on sys.path, as the script itself does."""
    scripts = str(ROOT / "scripts")
    if scripts not in sys.path:
        sys.path.insert(0, scripts)
    import generate_fixtures

    return generate_fixtures


@dataclass
class Prepared:
    """Everything a timed pass needs, and what its outputs must equal."""

    name: str
    data_dir: Path
    latency_ms: int
    # fixture workloads: golden file name -> bytes
    golden: dict[str, bytes] = field(default_factory=dict)
    # synthetic workloads: parsed outputs of the recorded reference run
    reference: dict[str, Any] = field(default_factory=dict)


def long_papers_corpus(seed: int) -> list[dict]:
    """Long papers of fixed topic blocks; the seed shuffles the block order.

    Block words are drawn from a fixed generator, so every seed gives each
    paper the same bag of words: the papers' embeddings, and with them the
    LLM calls downstream of ``ingest``, do not change with the seed, while
    the sentence order that ``ingest`` segments does.
    """
    gen = _fixture_generator()
    words = random.Random(FIXED_SEED)
    order = random.Random(seed)
    leaves = list(gen.LEAF_VOCAB)
    stances = ["support", "neutral", "oppose"]
    records = []
    counter = 0
    for p, n_sentences in enumerate(LONG_PAPER_SENTENCES):
        blocks: list[list[str]] = []
        made = 0
        while made < n_sentences:
            leaf = leaves[counter % len(leaves)]
            stance = stances[counter % len(stances)]
            counter += 1
            take = min(7, n_sentences - made)
            blocks.append(gen._block(
                words, gen.LEAF_VOCAB[leaf] + gen.SHARED, stance, f"{p}x{len(blocks)}", take
            ))
            made += take
        order.shuffle(blocks)
        records.append({
            "doc_id": f"p{p:02d}",
            "title": f"Long paper {p} on vaccine comparison",
            "text": " ".join(sentence for block in blocks for sentence in block),
        })
    return records


def wide_corpus_records(seed: int) -> list[dict]:
    """Fixed studies plus seeded notes. The studies are the only documents
    long enough for ``perspectives`` and fix the shape of the analysis, so
    they do not change with the seed and the LLM call count repeats exactly;
    the seed fills the notes, which are most of the ingest and index work."""
    gen = _fixture_generator()
    rng = random.Random(FIXED_SEED)
    leaves = list(gen.LEAF_VOCAB)
    stances = ["support", "neutral", "oppose"]
    records = []
    counter = 0
    for i in range(WIDE_STUDIES):
        sentences: list[str] = []
        for b in range(3):
            leaf = leaves[counter % len(leaves)]
            stance = stances[counter % len(stances)]
            counter += 1
            sentences += gen._block(
                rng, gen.LEAF_VOCAB[leaf] + gen.SHARED, stance, f"{i}x{b}", 7
            )
        records.append({
            "doc_id": f"s{i:03d}",
            "title": f"Study {i} on vaccine comparison",
            "text": " ".join(sentences),
        })
    rng = random.Random(seed)
    pools = [gen.GEOLOGY, gen.COOKING]
    for i in range(WIDE_NOTES):
        sentences = gen._block(rng, pools[i % 2], None, f"n{i}", NOTE_SENTENCES)
        records.append({
            "doc_id": f"n{i:05d}",
            "title": f"Field note {i}",
            "text": " ".join(sentences),
        })
    return records


def _write_corpus(records: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=True) + "\n")


def _as_json(payload: Any) -> Any:
    return json.loads(json.dumps(payload))


def record_reference(data_dir: Path, work_dir: Path) -> dict[str, Any]:
    """Run the whole pipeline in this process against the rule-based LLM,
    write the transcript it answered under ``data_dir/transcript``, and return
    the run's outputs for the replay checks."""
    gen = _fixture_generator()
    from claimlens import corpus as corpus_mod
    from claimlens.cli import Paths, _write_consensus_table, cmd_ingest
    from claimlens.embedding import Embedder, EmbeddingIndex, HashedBowEmbedder
    from claimlens.evaluation import evaluate_hierarchy, render_metric_table
    from claimlens.hierarchy import HierarchyBuilder
    from claimlens.llm_gateway import LlmGateway, OperationLog
    from claimlens.perspective import FilterParams, discover_perspectives
    from tests.fixture_config import make_fixture_config

    out = work_dir / "reference"
    config = make_fixture_config(data_dir, out)
    with contextlib.redirect_stdout(sys.stderr):
        if cmd_ingest(config) != 0:
            raise RuntimeError("reference ingest failed")
    paths = Paths(str(out))
    segments = {s.segment_id: s for s in corpus_mod.read_segments(str(paths.segments))}
    index, _ = EmbeddingIndex.load(str(paths.root))
    recorder = gen.RecordingProvider(gen.rule_llm)
    gateway = LlmGateway(recorder, log=OperationLog())
    embedder = Embedder(HashedBowEmbedder(dim=config.embed_dim, seed=config.seed))
    fingerprint = config.fingerprint()

    tree = HierarchyBuilder(gateway, embedder, index, segments, config).build()
    hierarchy = _as_json(tree.to_dict(fingerprint))
    tree = discover_perspectives(
        gateway, embedder, index, segments, tree,
        FilterParams(config.delta, config.window, config.min_chars),
        relative_threshold=config.classify_threshold,
    )
    report = evaluate_hierarchy(tree, gateway, segments)
    _write_consensus_table(tree, out / "consensus.tsv")

    transcript = data_dir / "transcript"
    transcript.mkdir(parents=True, exist_ok=True)
    for task_name, payload in sorted(recorder.script.items()):
        with open(transcript / f"{task_name}.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=True)
            fh.write("\n")
    return {
        "hierarchy.json": hierarchy,
        "hierarchy_perspectives.json": _as_json(tree.to_dict(fingerprint)),
        "consensus.tsv": (out / "consensus.tsv").read_bytes(),
        "metrics.json": _as_json({"config_fingerprint": fingerprint, **report.to_dict()}),
        "metrics.txt": render_metric_table(report).encode("utf-8"),
    }


def prepare(name: str, seed: int, work_dir: Path) -> Prepared:
    """Build the inputs of one workload under ``work_dir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    latency = LATENCY_MS.get(name, 0)
    if name.startswith("fixture_"):
        golden = {f: (GOLDEN_DIR / f).read_bytes() for f in GOLDEN_FILES}
        return Prepared(name, DATA_DIR, latency, golden=golden)
    data_dir = work_dir / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    records = long_papers_corpus(seed) if name == "long_papers" else wide_corpus_records(seed)
    _write_corpus(records, data_dir / "corpus.jsonl")
    reference = record_reference(data_dir, work_dir)
    return Prepared(name, data_dir, latency, reference=reference)
