"""Self-test of the benchmark's output checks and failure accounting.

Run with ``python3 -m pytest perfbench -q`` from the root of a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src"), str(ROOT)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _jsonl(path: Path, records: list[dict]) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


@pytest.fixture
def fixture_bench(tmp_path):
    prepared = workloads.prepare("fixture_cpu", 0, tmp_path)
    return run.Bench(prepared, tmp_path, time.perf_counter() + 120)


def test_clean_fixture_pass_matches_the_goldens(fixture_bench):
    p = fixture_bench.run_pass(0, traced=False)
    assert p.problems == []
    assert (p.attempted, p.failed, p.complete) == (4, 0, True)
    calls = p.results["build"]["provider_calls"]
    assert sum(calls.values()) == 31
    assert sum(p.results["perspectives"]["provider_calls"].values()) == 174
    assert sum(p.results["evaluate"]["provider_calls"].values()) == 173


def test_corrupted_artifact_counts_as_a_failed_stage(fixture_bench):
    real_run_stage = fixture_bench.run_stage

    def run_stage_then_corrupt(stage, pass_id, traced):
        result = real_run_stage(stage, pass_id, traced)
        if stage == "perspectives":
            path = fixture_bench.out / "consensus.tsv"
            path.write_text(path.read_text().replace("\t", " ", 1))
        return result

    fixture_bench.run_stage = run_stage_then_corrupt
    p = fixture_bench.run_pass(0, traced=False)
    assert (p.attempted, p.failed, p.complete) == (3, 1, False)
    assert p.problems == ["consensus.tsv differs from the golden"]


def test_missing_transcript_fixture_fails_its_stage(tmp_path):
    data = tmp_path / "data"
    shutil.copytree(workloads.DATA_DIR, data, ignore=shutil.ignore_patterns("golden"))
    (data / "transcript" / "eval_judge.json").unlink()
    prepared = workloads.prepare("fixture_cpu", 0, tmp_path)
    prepared.data_dir = data
    p = run.Bench(prepared, tmp_path, time.perf_counter() + 120).run_pass(0, traced=False)
    assert (p.attempted, p.failed) == (4, 1)
    assert p.problems == ["evaluate failed (exit code 3)"]


def test_tiling_check_finds_a_gap(tmp_path):
    corpus = _jsonl(tmp_path / "corpus.jsonl",
                    [{"doc_id": "d", "title": "t", "text": "One. Two. Three."}])
    good = [{"segment_id": "d#0-0", "doc_id": "d", "start": 0, "end": 0, "text": "One."},
            {"segment_id": "d#1-2", "doc_id": "d", "start": 1, "end": 2, "text": "Two. Three."}]
    assert checks.check_tiling(corpus, _jsonl(tmp_path / "s.jsonl", good)) == []
    gap = [good[0], dict(good[1], start=2, segment_id="d#2-2", text="Three.")]
    assert checks.check_tiling(corpus, _jsonl(tmp_path / "s.jsonl", gap))


def test_bucket_check_finds_overlap_and_strays():
    node = {"node_id": "0.1", "attached_segments": ["a", "b"],
            "perspectives": {"support": {"segment_ids": ["a"]},
                             "neutral": {"segment_ids": ["a"]},
                             "oppose": {"segment_ids": ["c"]}}}
    problems = checks.check_buckets({"nodes": [node]})
    assert len(problems) == 2


def test_log_count_check_counts_retries(tmp_path):
    log = _jsonl(tmp_path / "log.jsonl", [
        {"kind": "llm_call", "task": "stance_detect", "retries": 1},
        {"kind": "rank", "node_id": "0.1"},
    ])
    assert checks.check_log_counts(log, {"stance_detect": 2}) == []
    assert checks.check_log_counts(log, {"stance_detect": 1})


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixture_cpu",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
