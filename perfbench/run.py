#!/usr/bin/env python3
"""Stage-by-stage benchmark of the claimlens pipeline.

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Set-up builds the workload's inputs
(for the synthetic workloads, a seeded corpus and the mock transcript its
reference run answered). Then, for ``--seconds``, this process runs full
analyses one after another, each pass being ``ingest -> build -> perspectives
-> evaluate`` with every stage in a fresh Python process that imports
``claimlens.cli`` and calls ``claimlens.cli.main(argv)`` with one shared
``--config`` file. After every stage its outputs are checked; a non-zero
exit or a failed check counts the stage invocation as failed.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (medians over the passes of the run). With ``--trace 1``
untraced and traced passes alternate, and the JSON object holds the
per-layer metrics of the traced passes and the tracing overhead. See
perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import checks
import layers
import workloads
from layers import STAGES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
STAGE_SCRIPT = BENCH_DIR / "stage.py"
# Per-stage wall clocks of a pass: printed, and per-layer metrics of the
# traced run, but not end-to-end metrics (see perfbench/README.md).
STAGE_TIMES = tuple(f"{stage}_s" for stage in STAGES)
# A run must end within 180 s; stage processes still running by then are killed.
RUN_DEADLINE_S = 170

# What the benchmark needs from the checkout besides its own directory.
REQUIRED = (
    "src/claimlens/cli.py",
    "scripts/generate_fixtures.py",
    "tests/fixture_config.py",
    "tests/data/corpus.jsonl",
    "tests/data/transcript",
    "tests/data/golden",
)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Pass:
    """One full analysis: stage results, checks, and whether it completed."""

    def __init__(self, pass_id: int, traced: bool):
        self.pass_id = pass_id
        self.traced = traced
        self.results: dict[str, dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.wall_s = 0.0
        # traced passes only: counts read from the artifacts, and the spans
        self.facts: dict[str, float] = {}
        self.spans: list[dict[str, Any]] = []

    @property
    def complete(self) -> bool:
        return self.failed == 0 and len(self.results) == len(STAGES)

    def end_to_end(self) -> dict[str, float]:
        r = self.results
        m = {"setup_s": sum(r[s]["import_s"] for s in STAGES)}
        for stage in STAGES:
            m[f"{stage}_s"] = r[stage]["main_s"]
        m["stages_s"] = sum(m[f"{s}_s"] for s in STAGES)
        m["pipeline_s"] = m["setup_s"] + m["stages_s"]
        m["llm_calls"] = sum(sum(r[s]["provider_calls"].values()) for s in STAGES)
        m["prompt_kchars"] = sum(r[s]["prompt_chars"] for s in STAGES) / 1000.0
        m["peak_rss_mb"] = max(r[s]["peak_rss_mb"] for s in STAGES)
        return m


class Bench:
    """Runs the passes of one prepared workload in a work directory."""

    def __init__(self, prepared: workloads.Prepared, work: Path, deadline: float):
        self.prepared = prepared
        self.work = work
        self.out = work / "out"
        self.config_path = work / "config.json"
        self.deadline = deadline
        from tests.fixture_config import make_fixture_config

        config = make_fixture_config(prepared.data_dir, self.out)
        self.config_path.write_text(json.dumps(config.to_dict(), indent=2), encoding="utf-8")

    def stage_argv(self, stage: str) -> list[str]:
        argv = [stage, "--config", str(self.config_path)]
        if stage == "evaluate":
            argv.append(str(self.out / "hierarchy_perspectives.json"))
        return argv

    def run_stage(self, stage: str, pass_id: int, traced: bool) -> dict[str, Any] | None:
        spec = {
            "argv": self.stage_argv(stage),
            "stage": stage,
            "pass_id": pass_id,
            "latency_ms": self.prepared.latency_ms,
            "trace": traced,
            "result": str(self.work / f"{stage}.result.json"),
            "spans": str(self.work / f"spans.{pass_id}.{stage}.jsonl"),
        }
        spec_path = self.work / f"{stage}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result_path = Path(spec["result"])
        result_path.unlink(missing_ok=True)
        with open(self.work / "stages.log", "a", encoding="utf-8") as log:
            log.write(f"--- pass {pass_id} {stage}\n")
            log.flush()
            try:
                proc = subprocess.run(
                    [sys.executable, str(STAGE_SCRIPT), str(SRC), str(spec_path)],
                    cwd=ROOT, stdout=log, stderr=log, timeout=max(1.0, self.deadline - time.perf_counter()),
                )
            except subprocess.TimeoutExpired:
                return None
        if proc.returncode != 0 or not result_path.exists():
            return None
        return json.loads(result_path.read_text(encoding="utf-8"))

    def warm_up(self) -> None:
        """Import ``claimlens.cli`` once in a fresh, untimed process. In a new
        checkout that compiles the bytecode, and it loads the interpreter's and
        the program's files into the page cache, so the first timed import is
        like the others."""
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import claimlens.cli",
             str(SRC)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=max(1.0, self.deadline - time.perf_counter()),
        )

    def run_pass(self, pass_id: int, traced: bool) -> Pass:
        p = Pass(pass_id, traced)
        shutil.rmtree(self.out, ignore_errors=True)
        started = time.perf_counter()
        for stage in STAGES:
            p.attempted += 1
            result = self.run_stage(stage, pass_id, traced)
            if result is None or result["rc"] != 0:
                code = "no result" if result is None else f"exit code {result['rc']}"
                problems = [f"{stage} failed ({code})"]
                log_tail = (self.work / "stages.log").read_text(encoding="utf-8").splitlines()[-10:]
                print("\n".join(log_tail), file=sys.stderr)
            else:
                problems = checks.check_stage(stage, self.prepared, self.out, result)
            if problems:
                p.failed += 1
                p.problems += problems
                break
            p.results[stage] = result
        p.wall_s = time.perf_counter() - started
        return p

    def pass_facts(self) -> dict[str, float]:
        """Counts read from one finished pass's artifacts and logs."""
        read = checks.read_jsonl
        facts = {
            "documents": len(read(self.prepared.data_dir / "corpus.jsonl")),
            "segments": len(read(self.out / "segments.jsonl")),
            "nodes": len(json.loads((self.out / "hierarchy.json").read_text())["nodes"]),
            "judge_fresh": 0, "judge_cache_hits": 0, "retained_segments": 0,
        }
        for record in read(self.out / "perspectives_log.jsonl"):
            if record["kind"] == "relevance_filter":
                facts["judge_fresh"] = record["fresh_calls"]
                facts["judge_cache_hits"] = record["cache_hits"]
                facts["retained_segments"] = record["boundary"]
        tree = json.loads((self.out / "hierarchy_perspectives.json").read_text())
        dropped = 0
        for node in tree["nodes"]:
            buckets = node["perspectives"] or {}
            kept = sum(len(b["segment_ids"]) for b in buckets.values())
            dropped += len(node["attached_segments"]) - kept
        facts["stance_dropped"] = dropped
        facts["artifact_bytes"] = sum(f.stat().st_size for f in self.out.iterdir() if f.is_file())
        return facts

    def pass_spans(self, pass_id: int) -> list[dict[str, Any]]:
        spans: list[dict[str, Any]] = []
        for stage in STAGES:
            path = self.work / f"spans.{pass_id}.{stage}.jsonl"
            stage_spans = checks.read_jsonl(path)
            path.unlink()
            layers.annotate(stage_spans)
            spans += stage_spans
        return spans


def median_metrics(passes: list[Pass]) -> dict[str, float]:
    per_pass = [p.end_to_end() for p in passes]
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report_end_to_end(passes: list[Pass], attempted: int, failed: int) -> dict[str, Any]:
    """The end-to-end metrics; the single stage times go to standard error
    only (they are per-layer metrics, ``cli.<stage>.s``, of the traced run)."""
    units = {"llm_calls": "count", "prompt_kchars": "kchars", "peak_rss_mb": "MB"}
    metrics: dict[str, Any] = {}
    if passes:
        per_pass = [p.end_to_end() for p in passes]
        for key, value in median_metrics(passes).items():
            if key not in STAGE_TIMES:
                metrics[key] = {"value": value, "unit": units.get(key, "s")}
            q1, _, q3 = quartiles([m[key] for m in per_pass])
            print(f"  {key:>16} median {value:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"n {len(per_pass)}", file=sys.stderr)
    metrics["stage_success_ratio"] = {
        "value": (attempted - failed) / attempted if attempted else 0.0, "unit": "ratio"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [rel for rel in REQUIRED if not (ROOT / rel).exists()]
    if missing:
        print(f"perfbench: not a claimlens source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def measure(args: argparse.Namespace, work: Path) -> int:
    run_started = time.perf_counter()
    prepared = workloads.prepare(args.workload, args.seed, work)
    bench = Bench(prepared, work, run_started + RUN_DEADLINE_S)
    print(f"perfbench: {args.workload} seed {args.seed}: set-up "
          f"{time.perf_counter() - run_started:.2f} s", file=sys.stderr)

    bench.warm_up()

    traced_mode = bool(args.trace)
    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        trace_this = traced_mode and len(passes) % 2 == 1
        p = bench.run_pass(len(passes), trace_this)
        passes.append(p)
        for problem in p.problems:
            print(f"perfbench: pass {p.pass_id}: {problem}", file=sys.stderr)
        if trace_this and p.complete:
            p.facts = bench.pass_facts()
            p.spans = bench.pass_spans(p.pass_id)
        elapsed = time.perf_counter() - started
        typical = statistics.median(q.wall_s for q in passes)
        enough = not traced_mode or any(q.traced for q in passes)
        # Start another pass if it would end nearer to the --seconds mark than
        # stopping now does, so that a run measures about --seconds on average.
        if time.perf_counter() > bench.deadline or (enough and elapsed + typical / 2 > args.seconds):
            break

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    untraced = [p for p in passes if p.complete and not p.traced]
    traced = [p for p in passes if p.complete and p.traced]
    print(f"perfbench: {len(passes)} passes, {attempted} stage invocations, "
          f"{failed} failed; median pass wall "
          f"{statistics.median(p.wall_s for p in passes):.3f} s", file=sys.stderr)
    if traced_mode:
        metrics = layer_report(traced, untraced, attempted, failed)
    else:
        metrics = report_end_to_end(untraced, attempted, failed)
    correct = failed == 0 and bool(untraced) and (bool(traced) or not traced_mode)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_report(traced: list[Pass], untraced: list[Pass], attempted: int,
                 failed: int) -> dict[str, Any]:
    values: dict[str, float] = {}
    if traced:
        per_pass = [layers.pass_metrics(p.spans, p.results, p.facts) for p in traced]
        values = layers.run_metrics(per_pass, [s for p in traced for s in p.spans])
    if traced and untraced:
        traced_pipeline = median_metrics(traced)["pipeline_s"]
        untraced_medians = median_metrics(untraced)
        untraced_pipeline = untraced_medians["pipeline_s"]
        values["trace.pipeline_s"] = traced_pipeline
        values["trace.untraced_pipeline_s"] = untraced_pipeline
        values["trace.overhead_s"] = traced_pipeline - untraced_pipeline
        for stage in STAGES:
            values[f"cli.{stage}.s"] = untraced_medians[f"{stage}_s"]
    values["failed_stage_ratio"] = failed / attempted if attempted else 0.0
    return {key: {"value": value, "unit": layers.unit(key)} for key, value in values.items()}


if __name__ == "__main__":
    sys.exit(main())
