"""Per-layer metrics from the spans of traced passes.

A span's self time is its duration minus the part of that interval its
child spans cover. Per-pass sums and counts are reported as their median
over the traced passes of a run; latency percentiles pool the spans of all
traced passes.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any

STAGES = ("ingest", "build", "perspectives", "evaluate")

TASKS = (
    "coarse_aspects",
    "keyword_extract",
    "keyword_filter",
    "subaspect_discovery",
    "relevance_judge",
    "stance_detect",
    "perspective_summarize",
    "eval_judge",
)

EVAL_METRICS = (
    "node_relevance",
    "path_granularity",
    "sibling_granularity",
    "uniqueness",
    "segment_quality",
)

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith(("_ms", "_ms_per_call")):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_chars"):
        return "chars"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> float:
    """The highest percentile that leaves at least ten samples beyond it."""
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def _covered(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the child intervals."""
    total = 0.0
    cursor = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, cursor), min(c_end, end)
        if c_end > c_start:
            total += c_end - c_start
            cursor = c_end
    return total


def annotate(spans: list[dict[str, Any]]) -> None:
    """Add ``dur`` and ``self`` to every span of one stage process, and the
    name of its nearest ``evaluation.*`` ancestor as ``eval``."""
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        s["self"] = s["dur"] - _covered(s["start"], s["end"], children.get(s["id"], []))
        parent = s["parent"]
        while parent is not None:
            name = by_id[parent]["name"]
            if name.startswith("evaluation."):
                s["eval"] = name
                break
            parent = by_id[parent]["parent"]


def pass_metrics(spans: list[dict[str, Any]], stage_results: dict[str, dict],
                 facts: dict[str, float]) -> dict[str, float]:
    """Sums and counts of one traced pass. ``spans`` are already annotated."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    work: dict[str, float] = defaultdict(float)
    for s in spans:
        name = s["name"]
        calls[name] += 1
        total[name] += s["dur"]
        self_s[name] += s["self"]
        for key in ("texts", "rows"):
            if key in s:
                work[f"{name}.{key}"] += s[key]
        if name == "llm_gateway.complete_json":
            if s.get("failed"):
                calls["complete_json.failed"] += 1
            if "eval" in s:
                calls[f"judge.{s['eval']}"] += 1

    m: dict[str, float] = {}
    seg = "corpus.segment_document"
    m[f"{seg}.calls"] = calls[seg]
    m[f"{seg}.s"] = total[seg]
    m[f"{seg}.self_s"] = self_s[seg]
    for name in ("choose_boundaries", "split_sentences", "extract_terms",
                 "load_corpus", "write_segments", "read_segments"):
        m[f"corpus.{name}.s"] = total[f"corpus.{name}"]
    m["corpus.extract_terms.calls"] = calls["corpus.extract_terms"]
    m["corpus.segments_per_doc"] = facts["segments"] / facts["documents"]

    m["embedding.embed_texts.calls"] = calls["embedding.embed_texts"]
    m["embedding.embed_texts.texts"] = work["embedding.embed_texts.texts"]
    m["embedding.embed_texts.s"] = total["embedding.embed_texts"]
    m["embedding.index_add_batch.rows"] = work["embedding.index_add_batch.rows"]
    m["embedding.index_add_batch.s"] = total["embedding.index_add_batch"]
    m["embedding.index_save.s"] = total["embedding.index_save"]
    m["embedding.index_load.s"] = total["embedding.index_load"]
    m["embedding.top_k.calls"] = calls["embedding.top_k"]
    m["embedding.top_k.s"] = total["embedding.top_k"]
    m["embedding.top_k.rows_scanned"] = work["embedding.top_k.rows"]
    m["embedding.index_get.calls"] = sum(
        r.get("index_get_calls", 0) for r in stage_results.values())

    m["ranking.rank_segments.calls"] = calls["ranking.rank_segments"]
    m["ranking.rank_segments.self_s"] = self_s["ranking.rank_segments"]

    for name in ("enrich_keywords", "rank_node_segments", "discover_subaspects"):
        m[f"hierarchy.{name}.self_s"] = self_s[f"hierarchy.{name}"]
    m["hierarchy.nodes"] = facts["nodes"]

    cj = "llm_gateway.complete_json"
    m[f"{cj}.calls"] = calls[cj]
    m[f"{cj}.s"] = total[cj]
    m["llm_gateway.provider_wait_s"] = total["llm_gateway.provider"]
    m["llm_gateway.in_flight_max"] = max(
        (r.get("in_flight_max", 0) for r in stage_results.values()), default=0)
    m["llm_gateway.self_s"] = self_s[cj]
    m["llm_gateway.self_ms_per_call"] = 1000.0 * self_s[cj] / calls[cj] if calls[cj] else 0.0
    results = stage_results.values()
    for task in TASKS:
        m[f"llm_gateway.calls.{task}"] = sum(r["provider_calls"].get(task, 0) for r in results)
    m["llm_gateway.retries"] = calls["llm_gateway.provider"] - calls[cj]
    m["llm_gateway.failed"] = calls["complete_json.failed"]
    m["llm_gateway.prompt_chars"] = sum(r["prompt_chars"] for r in results)
    m["llm_gateway.response_chars"] = sum(r["response_chars"] for r in results)
    m["llm_gateway.mock_load.s"] = total["llm_gateway.mock_load"]

    for name in ("claim_representation", "relevance_boundary", "classify_segments"):
        m[f"perspective.{name}.s"] = total[f"perspective.{name}"]
    m["perspective.judge_fresh"] = facts["judge_fresh"]
    m["perspective.judge_cache_hits"] = facts["judge_cache_hits"]
    judged = facts["judge_fresh"] + facts["judge_cache_hits"]
    m["perspective.judge_cache_hit_ratio"] = facts["judge_cache_hits"] / judged if judged else 0.0
    for name in ("detect_stance", "summarize_perspectives"):
        m[f"perspective.{name}.calls"] = calls[f"perspective.{name}"]
        m[f"perspective.{name}.s"] = total[f"perspective.{name}"]
    m["perspective.retained_segments"] = facts["retained_segments"]
    m["perspective.stance_dropped"] = facts["stance_dropped"]

    for name in EVAL_METRICS:
        m[f"evaluation.{name}.calls"] = calls[f"judge.evaluation.{name}"]
        m[f"evaluation.{name}.s"] = total[f"evaluation.{name}"]

    for stage in STAGES:
        m[f"cli.{stage}.self_s"] = self_s[f"cli.{stage}"]
    m["cli.artifact_bytes"] = facts["artifact_bytes"]
    return m


def run_metrics(passes: list[dict[str, float]],
                spans: list[dict[str, Any]]) -> dict[str, float]:
    """Median of each per-pass metric, plus percentiles over pooled spans."""
    out = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    durations: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        durations[s["name"]].append(s["dur"] * 1000.0)
    seg = durations["corpus.segment_document"]
    out["corpus.segment_document.p50_ms"] = percentile(seg, 50) if seg else 0.0
    out["corpus.segment_document.max_ms"] = max(seg, default=0.0)
    top = durations["embedding.top_k"]
    out["embedding.top_k.p50_ms"] = percentile(top, 50) if top else 0.0
    cj = durations["llm_gateway.complete_json"]
    out["llm_gateway.complete_json.p50_ms"] = percentile(cj, 50) if cj else 0.0
    out["llm_gateway.complete_json.tail_ms"] = (
        percentile(cj, tail_percentile(len(cj))) if cj else 0.0)
    out["llm_gateway.complete_json.tail_pct"] = tail_percentile(len(cj))
    out["llm_gateway.complete_json.n"] = len(cj)
    return out
