"""Output checks run after every stage of every pass.

A stage invocation counts as failed when its process exits non-zero or when
any check below reports a problem. Each check returns a list of problems;
an empty list means the stage's outputs are right.

- ingest: the segments tile every document.
- build, perspectives, evaluate: the artifacts equal the goldens byte for byte
  (fixture workloads) or the recorded reference run (synthetic workloads).
- perspectives: stance buckets are disjoint and within the node's attached
  segments.
- build, perspectives: the ``llm_call`` records of the stage's own log agree,
  per task, with the provider calls counted from outside.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any

from workloads import Prepared

STANCES = ("support", "neutral", "oppose")

# Stage -> artifacts it must reproduce.
STAGE_ARTIFACTS = {
    "build": ("hierarchy.json",),
    "perspectives": ("hierarchy_perspectives.json", "consensus.tsv"),
    "evaluate": ("metrics.json", "metrics.txt"),
}

# Stage -> the JSONL log it writes; evaluate writes none today.
STAGE_LOGS = {"build": "operation_log.jsonl", "perspectives": "perspectives_log.jsonl"}


def read_jsonl(path: Path) -> list[dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_tiling(corpus_path: Path, segments_path: Path) -> list[str]:
    """Every document is covered by contiguous segments, in order, whose
    texts join back to the document's whitespace-normalized text."""
    docs = {r["doc_id"]: " ".join(r["text"].split()) for r in read_jsonl(corpus_path)}
    by_doc: dict[str, list[dict]] = defaultdict(list)
    for seg in read_jsonl(segments_path):
        by_doc[seg["doc_id"]].append(seg)
    problems = []
    for doc_id in sorted(set(by_doc) - set(docs)):
        problems.append(f"segments for unknown document {doc_id}")
    for doc_id, text in docs.items():
        segs = sorted(by_doc.get(doc_id, []), key=lambda s: s["start"])
        if not segs:
            problems.append(f"document {doc_id} has no segments")
            continue
        expected_start = 0
        for seg in segs:
            if seg["start"] != expected_start or seg["end"] < seg["start"]:
                problems.append(f"document {doc_id}: segment {seg['segment_id']} breaks the tiling")
                break
            expected_start = seg["end"] + 1
        if " ".join(s["text"] for s in segs) != text:
            problems.append(f"document {doc_id}: segment texts do not rebuild the document")
    return problems


def check_buckets(perspectives: dict[str, Any]) -> list[str]:
    problems = []
    for node in perspectives["nodes"]:
        attached = set(node["attached_segments"])
        seen: set[str] = set()
        for stance in STANCES:
            ids = set((node["perspectives"] or {}).get(stance, {}).get("segment_ids", []))
            if ids & seen:
                problems.append(f"node {node['node_id']}: stance buckets overlap")
            if not ids <= attached:
                problems.append(f"node {node['node_id']}: {stance} bucket holds unattached segments")
            seen |= ids
    return problems


def check_log_counts(log_path: Path, provider_calls: dict[str, int]) -> list[str]:
    """Provider attempts per task in the stage log against the outside count.

    Each ``llm_call`` record stands for ``retries + 1`` provider attempts.
    """
    logged: Counter = Counter()
    for record in read_jsonl(log_path):
        if record.get("kind") == "llm_call":
            logged[record["task"]] += record["retries"] + 1
    counted = Counter({k: v for k, v in provider_calls.items() if v})
    if logged != counted:
        return [f"{log_path.name} records {dict(logged)} provider calls, "
                f"counted {dict(counted)}"]
    return []


def check_artifact(prepared: Prepared, out: Path, name: str) -> list[str]:
    path = out / name
    if not path.exists():
        return [f"{name} missing"]
    if prepared.golden:
        if path.read_bytes() != prepared.golden[name]:
            return [f"{name} differs from the golden"]
        return []
    expected = prepared.reference[name]
    if isinstance(expected, bytes):
        same = path.read_bytes() == expected
    else:
        same = json.loads(path.read_text(encoding="utf-8")) == expected
    return [] if same else [f"{name} differs from the recorded reference run"]


def check_stage(stage: str, prepared: Prepared, out: Path, result: dict[str, Any]) -> list[str]:
    """Problems with the outputs of one finished stage."""
    try:
        if stage == "ingest":
            return check_tiling(prepared.data_dir / "corpus.jsonl", out / "segments.jsonl")
        problems = []
        for name in STAGE_ARTIFACTS[stage]:
            problems += check_artifact(prepared, out, name)
        if stage == "perspectives":
            problems += check_buckets(
                json.loads((out / "hierarchy_perspectives.json").read_text(encoding="utf-8"))
            )
        if stage in STAGE_LOGS:
            problems += check_log_counts(out / STAGE_LOGS[stage], result["provider_calls"])
        return problems
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{stage} outputs unreadable: {exc!r}"]
