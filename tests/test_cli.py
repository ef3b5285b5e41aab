import contextlib
import copy
import functools
import io
import json
import operator
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimlens import cli, errors, http_provider
from claimlens.cli import main
from claimlens.config import PipelineConfig
from claimlens.embedding import HashedBowEmbedder
from claimlens.hierarchy import AspectHierarchy
from claimlens.llm_gateway import MockChatProvider

from .conftest import DATA_DIR
from .fixture_config import make_fixture_config

GOLDEN = DATA_DIR / "golden"


def write_config_file(tmp_path, out_dir, name="config.json", **overrides) -> str:
    config = make_fixture_config(DATA_DIR, out_dir)
    data = config.to_dict()
    data.update(overrides)
    path = Path(tmp_path) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run_stage(args) -> int:
    return main(args)


def _count_provider_calls(monkeypatch) -> Counter:
    """Chat provider calls by task, and gateways built under ``"gateway"``."""
    calls: Counter = Counter()
    complete, make_gateway = MockChatProvider.complete, cli.make_gateway

    def counting(self, task, prompt, base_hash):
        calls[task.name] += 1
        return complete(self, task, prompt, base_hash)

    def building(config, log):
        gateway = make_gateway(config, log)
        calls["gateway"] += 1
        return gateway

    monkeypatch.setattr(MockChatProvider, "complete", counting)
    monkeypatch.setattr(cli, "make_gateway", building)
    return calls


# What each stage writes; a refused run leaves it unwritten.
STAGE_OUTPUT = {
    "build": "hierarchy.json",
    "perspectives": "hierarchy_perspectives.json",
    "evaluate": "metrics.json",
    "report": "report.md",
}


def _assert_refused(err: str, calls: Counter, output: Path) -> None:
    """The stage stopped before it built a gateway, wrote no ``output``, and said
    why without a traceback."""
    assert "Traceback" not in err
    assert not calls
    assert not output.exists()


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One full CLI run against the fixture corpus and transcript."""
    tmp = tmp_path_factory.mktemp("cli_run")
    out = tmp / "out"
    cfg = write_config_file(tmp, out)
    assert run_stage(["ingest", "--config", cfg]) == 0
    assert run_stage(["build", "--config", cfg]) == 0
    assert run_stage(["perspectives", "--config", cfg]) == 0
    assert run_stage(
        ["evaluate", "--config", cfg, str(out / "hierarchy_perspectives.json")]
    ) == 0
    assert run_stage(
        ["report", str(out / "hierarchy_perspectives.json"), "--format", "markdown",
         "--out-file", str(out / "report.md")]
    ) == 0
    assert run_stage(
        ["report", str(out / "hierarchy_perspectives.json"), "--format", "dot",
         "--out-file", str(out / "report.dot")]
    ) == 0
    return out


GOLDEN_FILES = [
    "hierarchy.json",
    "hierarchy_perspectives.json",
    "consensus.tsv",
    "metrics.json",
    "metrics.txt",
    "report.md",
    "report.dot",
]


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_pipeline_output_matches_golden(pipeline_run, name):
    assert (pipeline_run / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_operation_log_written(pipeline_run):
    records = [
        json.loads(line)
        for line in (pipeline_run / "operation_log.jsonl").read_text().splitlines()
    ]
    assert any(r["kind"] == "llm_call" for r in records)
    assert any(r["kind"] == "enrich" for r in records)


def test_ingest_rerun_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = write_config_file(tmp_path, out_a, name="config_a.json")
    cfg_b = write_config_file(tmp_path, out_b, name="config_b.json")
    assert run_stage(["ingest", "--config", cfg_a]) == 0
    assert run_stage(["ingest", "--config", cfg_b]) == 0
    assert (out_a / "vectors.bin").read_bytes() == (out_b / "vectors.bin").read_bytes()
    assert (out_a / "segments.jsonl").read_bytes() == (out_b / "segments.jsonl").read_bytes()


def test_ingest_holds_one_index_of_exactly_its_segments(tmp_path, capsys):
    # 2,100 single-sentence notes, one segment each: just past 2,048 rows, where an
    # index that doubles its matrix would hold 2,048 and 4,096 rows at once.
    n, dim = 2100, 256
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"doc_id": f"n{i:05d}", "title": f"Field note {i}",
                    "text": f"Field note {i} logs basalt {i % 13} and shale {i % 31}."}) + "\n"
        for i in range(n)
    ))
    config = PipelineConfig(corpus_path=str(corpus), output_dir=str(tmp_path / "out"),
                            embed_dim=dim)
    tracemalloc.start()
    try:
        assert cli.cmd_ingest(config) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"into {n} segments" in capsys.readouterr().out
    store = (tmp_path / "out" / "segments.jsonl").stat().st_size
    assert peak < 1.5 * n * dim * 8 + store


def test_ingest_into_its_own_corpus_file_is_a_usage_error(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    shutil.copy(DATA_DIR / "corpus.jsonl", corpus)
    before = corpus.read_bytes()
    assert run_stage(["ingest", "--corpus", str(corpus), "--out", str(corpus)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {corpus / 'segments.jsonl'}: ")
    assert "Traceback" not in err
    assert corpus.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl"]


def test_build_without_ingest_points_at_ingest(tmp_path, capsys, monkeypatch):
    calls = _count_provider_calls(monkeypatch)
    cfg = write_config_file(tmp_path, tmp_path / "empty_out")
    assert run_stage(["build", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "ingest" in err
    _assert_refused(err, calls, tmp_path / "empty_out" / "hierarchy.json")


def test_corrupt_corpus_line_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"doc_id": "p1", "title": "t", "text": "One. Two."}\n{oops\n')
    cfg = write_config_file(tmp_path, tmp_path / "out", corpus_path=str(bad))
    assert run_stage(["ingest", "--config", cfg]) == 1
    assert "line 2" in capsys.readouterr().err


def test_unknown_report_format(tmp_path, capsys):
    assert run_stage(
        ["report", str(GOLDEN / "hierarchy.json"), "--format", "xyz"]
    ) == 1
    assert "xyz" in capsys.readouterr().err


def test_report_markdown_indents_by_depth(capsys):
    assert run_stage(["report", str(GOLDEN / "hierarchy.json")]) == 0
    out = capsys.readouterr().out
    tree = AspectHierarchy.from_dict(json.loads((GOLDEN / "hierarchy.json").read_text()))
    for node_id in tree.sorted_ids():
        node = tree.node(node_id)
        assert f"\n{'  ' * node.depth}- **{node.label}**" in "\n" + out


def test_report_renders_a_1500_level_chain(tmp_path, capsys):
    tree = AspectHierarchy("a claim", 1500)
    node = tree.node(tree.root)
    for depth in range(1, 1501):
        node = tree.add_child(node.node_id, f"level {depth}", "deeper", [])
    node.attached_segments = ["d01#0"]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(tree.to_dict("fp")))
    assert run_stage(["report", str(path)]) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    # The root rolls up the one segment at the bottom.
    assert "\n- **a claim** [segments: 0; subtree: 1]\n" in out
    assert f"\n{'  ' * 1500}- **level 1500** [segments: 1]\n" in out


def test_report_dot_shape(capsys):
    assert run_stage(["report", str(GOLDEN / "hierarchy.json"), "--format", "dot"]) == 0
    out = capsys.readouterr().out
    tree = AspectHierarchy.from_dict(json.loads((GOLDEN / "hierarchy.json").read_text()))
    assert out.startswith("digraph")
    for node_id in tree.nodes:
        assert f'"{node_id}"' in out
    assert out.count("->") == len(tree.nodes) - 1


def test_missing_provider_is_usage_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    cfg = write_config_file(tmp_path, out, mock_dir="")
    assert run_stage(["ingest", "--config", cfg]) == 0
    calls = _count_provider_calls(monkeypatch)
    assert run_stage(["build", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "provider" in err
    _assert_refused(err, calls, out / "hierarchy.json")


def test_fingerprint_mismatch_rejected(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    cfg = write_config_file(tmp_path, out)
    assert run_stage(["ingest", "--config", cfg]) == 0
    calls = _count_provider_calls(monkeypatch)
    assert run_stage(["build", "--config", cfg, "--seed", "7"]) == 3
    err = capsys.readouterr().err
    assert "fingerprint" in err
    _assert_refused(err, calls, out / "hierarchy.json")


def test_build_requires_claim(tmp_path, capsys, monkeypatch):
    calls = _count_provider_calls(monkeypatch)
    cfg = write_config_file(tmp_path, tmp_path / "out", claim="")
    assert run_stage(["build", "--config", cfg]) == 1
    _assert_refused(capsys.readouterr().err, calls, tmp_path / "out" / "hierarchy.json")


def test_evaluate_fails_fast_on_bad_path(tmp_path, capsys, monkeypatch):
    calls = _count_provider_calls(monkeypatch)
    cfg = write_config_file(tmp_path, tmp_path / "out")
    assert run_stage(
        ["evaluate", "--config", cfg, str(tmp_path / "missing.json")]
    ) == 1
    err = capsys.readouterr().err
    assert "not found" in err
    _assert_refused(err, calls, tmp_path / "out" / "metrics.json")


def test_pairwise_golden_vs_golden_is_tie(tmp_path, capsys):
    transcript = tmp_path / "transcript"
    shutil.copytree(DATA_DIR / "transcript", transcript)
    (transcript / "pairwise_judge.json").write_text(
        json.dumps({"default": json.dumps({"winner": "tie", "rationale": "same"})})
    )
    out = tmp_path / "out"
    cfg = write_config_file(tmp_path, out, mock_dir=str(transcript))
    golden = str(GOLDEN / "hierarchy_perspectives.json")
    assert run_stage(["evaluate", "--config", cfg, golden, golden]) == 0
    assert "explicit_tie" in capsys.readouterr().out
    verdict = json.loads((out / "pairwise.json").read_text())
    assert verdict["verdict"] == "explicit_tie"


def test_max_depth_one_builds_root_plus_coarse(tmp_path):
    out = tmp_path / "out"
    cfg = write_config_file(tmp_path, out, max_depth=1)
    assert run_stage(["ingest", "--config", cfg]) == 0
    assert run_stage(["build", "--config", cfg]) == 0
    data = json.loads((out / "hierarchy.json").read_text())
    assert [n["node_id"] for n in data["nodes"]] == ["0", "0.1", "0.2", "0.3"]
    assert data["partial"] is False


def test_flags_override_config_file(tmp_path):
    out = tmp_path / "out"
    cfg = write_config_file(tmp_path, out, max_depth=1)
    assert run_stage(["ingest", "--config", cfg, "--max-depth", "0"]) == 0
    assert run_stage(["build", "--config", cfg, "--max-depth", "0"]) == 0
    data = json.loads((out / "hierarchy.json").read_text())
    assert [n["node_id"] for n in data["nodes"]] == ["0"]


def test_empty_retained_set_warns_but_succeeds(tmp_path, capsys):
    transcript = tmp_path / "transcript"
    shutil.copytree(DATA_DIR / "transcript", transcript)
    (transcript / "relevance_judge.json").write_text(
        json.dumps({"default": json.dumps({"answer": "No"})})
    )
    out = tmp_path / "out"
    cfg = write_config_file(tmp_path, out, mock_dir=str(transcript))
    assert run_stage(["ingest", "--config", cfg]) == 0
    assert run_stage(["build", "--config", cfg]) == 0
    assert run_stage(["perspectives", "--config", cfg]) == 0
    assert "warning: no segments survived relevance filtering" in capsys.readouterr().err
    data = json.loads((out / "hierarchy_perspectives.json").read_text())
    for node in data["nodes"]:
        assert node["attached_segments"] == []
        for stance in ("support", "neutral", "oppose"):
            assert node["perspectives"][stance]["segment_ids"] == []


def test_root_only_tree_warns_that_it_has_no_aspects(tmp_path, capsys):
    # Nothing is judged without aspects, so the filter is not what left the tree empty.
    out = tmp_path / "out"
    cfg = write_config_file(tmp_path, out, max_depth=0)
    for stage in ("ingest", "build", "perspectives"):
        assert run_stage([stage, "--config", cfg]) == 0
    err = capsys.readouterr().err
    assert "warning: the tree has no aspects, so no segment was judged" in err
    assert "relevance filtering" not in err
    assert (out / "perspectives_log.jsonl").read_text() == ""
    data = json.loads((out / "hierarchy_perspectives.json").read_text())
    assert [(n["node_id"], n["attached_segments"]) for n in data["nodes"]] == [("0", [])]


def test_relevance_judgment_economy_visible_in_stage_log(pipeline_run):
    records = [
        json.loads(line)
        for line in (pipeline_run / "perspectives_log.jsonl").read_text().splitlines()
    ]
    filters = [r for r in records if r["kind"] == "relevance_filter"]
    assert len(filters) == 1
    record = filters[0]
    import math as _math

    bound = (2 * 10 + 1) * _math.ceil(_math.log2(record["candidates"]))
    assert record["fresh_calls"] <= bound
    # Windows stop being judged once their verdict is settled, and judge first
    # the ranks later probes reuse: judging them whole asked 46 fresh calls and
    # hit the cache 52 times for this boundary; judging the settled windows in
    # rank order asked 34 and hit 17.
    assert (record["candidates"], record["boundary"]) == (71, 71)
    assert (record["fresh_calls"], record["cache_hits"]) == (25, 26)
    judge_calls = [
        r for r in records if r["kind"] == "llm_call" and r["task"] == "relevance_judge"
    ]
    assert len(judge_calls) == record["fresh_calls"]


def test_missing_stance_fixture_names_segment_and_node(tmp_path, capsys):
    transcript = tmp_path / "transcript"
    shutil.copytree(DATA_DIR / "transcript", transcript)
    (transcript / "stance_detect.json").write_text(json.dumps({"responses": {}}))
    out = tmp_path / "out"
    cfg = write_config_file(tmp_path, out, mock_dir=str(transcript))
    assert run_stage(["ingest", "--config", cfg]) == 0
    assert run_stage(["build", "--config", cfg]) == 0
    assert run_stage(["perspectives", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "segment=" in err and "node=" in err


def test_partial_tree_persisted_on_failure(tmp_path, capsys):
    # Remove the subaspect fixtures so expansion fails mid-build.
    transcript = tmp_path / "transcript"
    shutil.copytree(DATA_DIR / "transcript", transcript)
    (transcript / "subaspect_discovery.json").unlink()
    out = tmp_path / "out"
    cfg = write_config_file(tmp_path, out, mock_dir=str(transcript))
    assert run_stage(["ingest", "--config", cfg]) == 0
    assert run_stage(["build", "--config", cfg]) == 3
    data = json.loads((out / "hierarchy.json").read_text())
    assert data["partial"] is True
    assert len(data["nodes"]) >= 4  # root and the coarse aspects survived
    assert run_stage(["report", str(out / "hierarchy.json")]) == 0  # and it loads


@pytest.mark.parametrize(
    "flag",
    # The segmenter's three knobs and every other count that must be >= 1.
    ["--rank-mask", "--min-segment-sentences", "--max-segments-per-doc", "--k-aspects",
     "--k-subaspects", "--k-keywords", "--pool-size", "--k-segments", "--window",
     "--embed-dim"],
)
@pytest.mark.parametrize("value", ["0", "-3"])
def test_segmenter_knobs_below_one_rejected(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    cfg = write_config_file(tmp_path, out)
    assert run_stage(["ingest", "--config", cfg, flag, value]) == 1
    assert f"{flag[2:].replace('-', '_')} must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["4", "10"])
def test_even_rank_mask_rejected(tmp_path, capsys, value):
    # The mask is centred on its cell, so an even mask would silently act as
    # the next odd one under another config fingerprint.
    out = tmp_path / "out"
    cfg = write_config_file(tmp_path, out)
    assert run_stage(["ingest", "--config", cfg, "--rank-mask", value]) == 1
    assert "rank_mask must be odd" in capsys.readouterr().err
    assert not out.exists()


def test_widest_rank_mask_is_accepted(tmp_path):
    cfg = write_config_file(tmp_path, tmp_path / "out", rank_mask=101)
    assert run_stage(["ingest", "--config", cfg]) == 0


def _loaded_by_cli_import(modules) -> str:
    """Which of ``modules`` a fresh ``import claimlens.cli`` loads, as printed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = f"import sys, claimlens.cli; print([m in sys.modules for m in {modules!r}])"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_does_not_load_requests():
    assert _loaded_by_cli_import(("requests", "jsonschema")) == "[False, False]"


def test_cli_import_does_not_load_argparse():
    assert _loaded_by_cli_import(("argparse", "gettext")) == "[False, False]"


def test_every_flag_sets_a_config_field():
    fields = set(PipelineConfig().to_dict())
    assert {dest for _, dest, _, _ in cli._FLAG_FIELDS} <= fields
    assert len({flag for flag, _, _, _ in cli._FLAG_FIELDS}) == len(cli._FLAG_FIELDS)


GOLDEN_TREE = str(GOLDEN / "hierarchy.json")

BAD_COMMAND_LINES = {
    "unknown_flag": (["build", "--nope", "3"], "unknown flag --nope for `claimlens build`"),
    "abbreviated_flag": (["build", "--max-d", "3"], "unknown flag --max-d for `claimlens build`"),
    "flag_of_another_command": (
        ["report", GOLDEN_TREE, "--claim", "x"], "unknown flag --claim for `claimlens report`"
    ),
    "last_flag_without_value": (["build", "--claim"], "flag --claim needs a value"),
    "flag_then_flag": (["build", "--claim", "--max-depth", "1"], "flag --claim needs a value"),
    "int_flag_abc": (["build", "--max-depth", "abc"], "flag --max-depth takes int, got 'abc'"),
    "int_flag_float": (["build", "--max-depth=2.5"], "flag --max-depth takes int, got '2.5'"),
    "float_flag_x": (["ingest", "--beta", "x"], "flag --beta takes float, got 'x'"),
    "unknown_command": (["nope"], "unknown command 'nope'"),
    "flag_before_command": (["--claim", "x"], "unknown command '--claim'"),
    "no_command": ([], "no command given"),
    "ingest_file": (
        ["ingest", "corpus.jsonl"], "`claimlens ingest` takes no files, got ['corpus.jsonl']"
    ),
    "build_file": (["build", GOLDEN_TREE], "`claimlens build` takes no files"),
    "perspectives_file_after_dashes": (
        ["perspectives", "--", "-h"], "`claimlens perspectives` takes no files, got ['-h']"
    ),
    "report_no_file": (["report"], "`claimlens report` takes HIERARCHY, got []"),
    "report_two_files": (
        ["report", GOLDEN_TREE, GOLDEN_TREE], "`claimlens report` takes HIERARCHY"
    ),
    "evaluate_no_file": (["evaluate"], "`claimlens evaluate` takes HIERARCHY [HIERARCHY], got []"),
    "evaluate_three_files": (
        ["evaluate", "a", "b", "c"], "`claimlens evaluate` takes HIERARCHY [HIERARCHY]"
    ),
}


@pytest.mark.parametrize(
    "argv, message", list(BAD_COMMAND_LINES.values()), ids=list(BAD_COMMAND_LINES)
)
def test_malformed_command_line_exits_1(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and out == ""
    assert list(tmp_path.iterdir()) == []


def _config_of_build(monkeypatch, argv) -> PipelineConfig:
    """The config that ``main(["build", *argv])`` hands to ``cmd_build``."""
    seen = []
    monkeypatch.setattr(cli, "cmd_build", lambda config: seen.append(config) or 0)
    assert main(["build", *argv]) == 0
    [config] = seen
    return config


def test_flag_equals_value_reads_as_flag_then_value(monkeypatch):
    spaced = ["--claim", "a = b", "--seed", "-3", "--beta", "2", "--out", "o"]
    joined = ["--claim=a = b", "--seed=-3", "--beta=2", "--out=o"]
    config = _config_of_build(monkeypatch, spaced)
    assert config == _config_of_build(monkeypatch, joined)
    assert (config.claim, config.seed, config.beta, config.output_dir) == ("a = b", -3, 2.0, "o")
    assert type(config.beta) is float


def test_repeated_flag_keeps_its_last_value(monkeypatch):
    config = _config_of_build(
        monkeypatch, ["--max-depth", "5", "--seed=-3", "--max-depth=1", "--seed", "-4"]
    )
    assert (config.max_depth, config.seed) == (1, -4)


def test_value_that_begins_with_dashes_needs_the_equals_form(monkeypatch):
    assert _config_of_build(monkeypatch, ["--claim=--x", "--out", "-"]).claim == "--x"


def test_help_lists_every_command_and_exits_0(capsys):
    for argv in (["--help"], ["-h"]):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: claimlens <command>") and err == ""
        for command in ("ingest", "build", "perspectives", "evaluate", "report"):
            assert f"\n  {command} " in out


@pytest.mark.parametrize("command", ["ingest", "build", "perspectives", "evaluate", "report"])
def test_command_help_lists_every_flag_and_exits_0(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert main([command, "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: claimlens {command} ") and err == ""
    flags = cli._REPORT_FLAGS if command == "report" else cli._PIPELINE_FLAGS
    for flag, _, _, help_text in flags:
        assert f"\n  {flag} " in out and help_text in out
    assert list(tmp_path.iterdir()) == []


def test_evaluate_log_records_every_judge_call(pipeline_run, tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    for name in ("segments.jsonl", "index_manifest.json"):
        shutil.copy(pipeline_run / name, out / name)
    cfg = write_config_file(tmp_path, out)
    provider_calls = _count_provider_calls(monkeypatch)
    hierarchy = str(pipeline_run / "hierarchy_perspectives.json")
    assert run_stage(["evaluate", "--config", cfg, hierarchy]) == 0
    logged: Counter = Counter()
    for line in (out / "evaluate_log.jsonl").read_text().splitlines():
        record = json.loads(line)
        if record["kind"] == "llm_call":
            assert record["status"] == "ok"
            logged[record["task"]] += record["retries"] + 1
    assert logged == Counter({"eval_judge": 173})
    assert provider_calls == logged + Counter({"gateway": 1})
    assert (pipeline_run / "evaluate_log.jsonl").read_bytes() == (
        out / "evaluate_log.jsonl"
    ).read_bytes()


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    """Artifacts of one fixture ingest, copied by each test that corrupts them."""
    tmp = tmp_path_factory.mktemp("ingested")
    out = tmp / "out"
    assert run_stage(["ingest", "--config", write_config_file(tmp, out)]) == 0
    return out


def _edit_manifest(edit):
    def corrupt(out):
        path = out / "index_manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))

    return corrupt


def _truncate_manifest(out):
    path = out / "index_manifest.json"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _set_first_id(value):
    return _edit_manifest(lambda m: m["segment_ids"].__setitem__(0, value))


def _repeat_first_id(manifest):
    manifest["segment_ids"][1] = manifest["segment_ids"][0]


def _unstamp(manifest):
    for key in ("embedder", "store_sha256"):
        manifest.pop(key, None)


def _swap_vector_rows(out):
    """Rows 0 and 1 of ``vectors.bin`` swapped: same size, unit rows, other bytes."""
    path = out / "vectors.bin"
    dim = json.loads((out / "index_manifest.json").read_text())["dim"]
    data = path.read_bytes()
    row = 8 * dim
    path.write_bytes(data[row : 2 * row] + data[:row] + data[2 * row :])


def _reverse_texts(out):
    path = out / "segments.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps({**r, "text": r["text"][::-1]}) + "\n" for r in records))


@pytest.mark.parametrize(
    "corrupt, code, message",
    [
        (_edit_manifest(_repeat_first_id), 3, "indexed twice"),
        (_edit_manifest(lambda m: m.pop("dim")), 3, "'dim'"),
        (_edit_manifest(lambda m: m.pop("count")), 3, "'count'"),
        (_edit_manifest(lambda m: m.pop("segment_ids")), 3, "'segment_ids'"),
        (_set_first_id(None), 3, "segment_ids is not a list of strings"),
        (_edit_manifest(lambda m: m.update(dim="256")), 3, "dim '256'"),
        (lambda out: (out / "vectors.bin").unlink(), 1, "vectors.bin"),
        (_truncate_manifest, 1, "not valid JSON"),
        (_edit_manifest(lambda m: m.pop("config_fingerprint")), 3, "fingerprint (none)"),
        (_set_first_id(["x"]), 3, "segment_ids is not a list of strings"),
        (_edit_manifest(lambda m: m["segment_ids"].reverse()), 3,
         "in store order: re-run `claimlens ingest`"),
        (_edit_manifest(lambda m: m["segment_ids"].pop()), 3, "lists 91 segment ids, expected 92"),
        (_reverse_texts, 3, "store sha256"),
        (_edit_manifest(_unstamp), 3,
         "embedder (none), current is hashed; re-run `claimlens ingest`"),
        (_swap_vector_rows, 3, "vectors sha256: re-run `claimlens ingest`"),
        (_edit_manifest(lambda m: m.pop("vectors_sha256")), 3,
         "records no vectors sha256: re-run `claimlens ingest`"),
    ],
    ids=[
        "duplicate_id",
        "no_dim",
        "no_count",
        "no_segment_ids",
        "null_segment_id",
        "string_dim",
        "no_vectors_bin",
        "truncated_manifest",
        "no_fingerprint",
        "list_segment_id",
        "reversed_segment_ids",
        "one_id_too_few",
        "reversed_texts_same_ids",
        "unstamped_index",
        "swapped_vector_rows",
        "no_vectors_sha256",
    ],
)
def test_corrupt_index_is_a_typed_error(
    ingested, tmp_path, capsys, monkeypatch, corrupt, code, message
):
    out = tmp_path / "out"
    shutil.copytree(ingested, out)
    corrupt(out)
    cfg = write_config_file(tmp_path, out)
    calls = _count_provider_calls(monkeypatch)
    assert run_stage(["build", "--config", cfg]) == code
    err = capsys.readouterr().err
    assert message in err
    _assert_refused(err, calls, out / "hierarchy.json")


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_swap_vector_rows, "vectors sha256: re-run `claimlens ingest`"),
        (_edit_manifest(lambda m: m.pop("vectors_sha256")),
         "records no vectors sha256: re-run `claimlens ingest`"),
    ],
    ids=["swapped_vector_rows", "no_vectors_sha256"],
)
def test_perspectives_refuses_vectors_its_index_does_not_vouch_for(
    ingested, tmp_path, capsys, monkeypatch, corrupt, message
):
    out = tmp_path / "out"
    shutil.copytree(ingested, out)
    shutil.copy(GOLDEN / "hierarchy.json", out / "hierarchy.json")
    corrupt(out)
    calls = _count_provider_calls(monkeypatch)
    assert run_stage(["perspectives", "--config", write_config_file(tmp_path, out)]) == 3
    err = capsys.readouterr().err
    assert message in err
    _assert_refused(err, calls, out / "hierarchy_perspectives.json")


def test_segment_store_of_another_segmentation_is_refused(
    ingested, tmp_path, capsys, monkeypatch
):
    other = tmp_path / "other"
    cfg = write_config_file(tmp_path, other, name="other.json")
    assert run_stage(["ingest", "--config", cfg, "--rank-mask", "5"]) == 0
    assert len((other / "segments.jsonl").read_text().splitlines()) == 56
    assert len((ingested / "segments.jsonl").read_text().splitlines()) == 92
    out = tmp_path / "out"
    shutil.copytree(ingested, out)
    shutil.copy(other / "segments.jsonl", out / "segments.jsonl")
    capsys.readouterr()
    calls = _count_provider_calls(monkeypatch)
    assert run_stage(["build", "--config", write_config_file(tmp_path, out)]) == 3
    err = capsys.readouterr().err
    assert "does not list the ids of segment store" in err and "re-run `claimlens ingest`" in err
    _assert_refused(err, calls, out / "hierarchy.json")


@pytest.mark.parametrize("command", ["build", "perspectives"])
def test_http_embedder_over_a_hashed_ingest_is_refused(
    ingested, tmp_path, capsys, monkeypatch, command
):
    posts = []

    def post(self, payload):
        posts.append(payload)
        raise errors.ProviderUnavailable("no embeddings endpoint in this test")

    monkeypatch.setattr(http_provider.HttpJsonProvider, "_post", post)
    out = tmp_path / "out"
    shutil.copytree(ingested, out)
    if command == "perspectives":
        shutil.copy(GOLDEN / "hierarchy.json", out / "hierarchy.json")
    calls = _count_provider_calls(monkeypatch)
    cfg = write_config_file(tmp_path, out)
    argv = [command, "--config", cfg, "--embed-endpoint", "http://127.0.0.1:9/x"]
    assert run_stage(argv) == 3
    err = capsys.readouterr().err
    assert "embedder hashed, current is http:; re-run `claimlens ingest`" in err
    _assert_refused(err, calls, out / STAGE_OUTPUT[command])
    assert not posts


def test_perspectives_refuses_the_partial_tree_of_a_failed_build(
    ingested, tmp_path, capsys, monkeypatch
):
    out, transcript = tmp_path / "out", tmp_path / "transcript"
    shutil.copytree(ingested, out)
    shutil.copytree(DATA_DIR / "transcript", transcript)
    path = transcript / "coarse_aspects.json"
    data = json.loads(path.read_text())
    data["responses"] = {key: json.dumps({"aspects": "none"}) for key in data["responses"]}
    path.write_text(json.dumps(data))
    cfg = write_config_file(tmp_path, out, mock_dir=str(transcript))
    assert run_stage(["build", "--config", cfg]) == 3
    assert json.loads((out / "hierarchy.json").read_text())["partial"] is True
    capsys.readouterr()
    calls = _count_provider_calls(monkeypatch)
    assert run_stage(["perspectives", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "is partial" in err and "re-run `claimlens build`" in err
    _assert_refused(err, calls, out / "hierarchy_perspectives.json")


def test_evaluate_without_the_segment_store_points_at_ingest(tmp_path, capsys, monkeypatch):
    calls = _count_provider_calls(monkeypatch)
    cfg = write_config_file(tmp_path, tmp_path / "out")
    hierarchy = str(GOLDEN / "hierarchy_perspectives.json")
    assert run_stage(["evaluate", "--config", cfg, hierarchy]) == 1
    err = capsys.readouterr().err
    assert "run `claimlens ingest`" in err
    _assert_refused(err, calls, tmp_path / "out" / "metrics.json")


def test_evaluate_refuses_an_attached_id_missing_from_the_store(
    ingested, tmp_path, capsys, monkeypatch
):
    out = tmp_path / "out"
    shutil.copytree(ingested, out)
    data = json.loads((GOLDEN / "hierarchy_perspectives.json").read_text())
    _node(data, "0.1")["attached_segments"].append("d99#0-0")
    path = tmp_path / "hierarchy.json"
    path.write_text(json.dumps(data))
    calls = _count_provider_calls(monkeypatch)
    assert run_stage(["evaluate", "--config", write_config_file(tmp_path, out), str(path)]) == 3
    err = capsys.readouterr().err
    assert "missing from segment store" in err and "'d99#0-0'" in err
    _assert_refused(err, calls, out / "metrics.json")


@pytest.mark.parametrize(
    "corrupt, code, message",
    [
        (_reverse_texts, 3, "store sha256"),
        (lambda out: (out / "index_manifest.json").unlink(), 1, "run `claimlens ingest`"),
        (_edit_manifest(lambda m: m.update(config_fingerprint="0" * 16)), 3,
         "config fingerprint 0000000000000000, current is 595d79fc9cfc7154; "
         "re-run `claimlens ingest`"),
        (lambda out: (out / "index_manifest.json").write_text("[]"), 3, "is malformed"),
    ],
    ids=["reversed_texts_same_ids", "no_manifest", "other_config", "manifest_not_an_object"],
)
def test_evaluate_refuses_a_store_it_cannot_vouch_for(
    ingested, tmp_path, capsys, monkeypatch, corrupt, code, message
):
    out = tmp_path / "out"
    shutil.copytree(ingested, out)
    corrupt(out)
    calls = _count_provider_calls(monkeypatch)
    hierarchy = str(GOLDEN / "hierarchy_perspectives.json")
    assert run_stage(["evaluate", "--config", write_config_file(tmp_path, out), hierarchy]) == code
    err = capsys.readouterr().err
    assert message in err
    _assert_refused(err, calls, out / "metrics.json")


def test_hierarchy_without_fingerprint_is_refused(ingested, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    shutil.copytree(ingested, out)
    data = json.loads((GOLDEN / "hierarchy.json").read_text())
    del data["config_fingerprint"]
    (out / "hierarchy.json").write_text(json.dumps(data))
    calls = _count_provider_calls(monkeypatch)
    assert run_stage(["perspectives", "--config", write_config_file(tmp_path, out)]) == 3
    err = capsys.readouterr().err
    assert "hierarchy was produced under config fingerprint (none)" in err
    _assert_refused(err, calls, out / "hierarchy_perspectives.json")


def test_concurrency_cap_is_an_unknown_config_key(tmp_path, capsys):
    cfg = write_config_file(tmp_path, tmp_path / "out", concurrency_cap=4)
    assert run_stage(["ingest", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "unknown config keys" in err and "concurrency_cap" in err
    assert "Traceback" not in err


BAD_CONFIG_VALUES = [
    ("k_aspects", "5", "config key 'k_aspects' must be int, got '5'"),
    ("k_aspects", True, "config key 'k_aspects' must be int, got True"),
    ("embed_dim", 2.5, "config key 'embed_dim' must be int, got 2.5"),
    ("beta", "1.0", "config key 'beta' must be float"),
    ("beta", False, "config key 'beta' must be float"),
    ("claim", 5, "config key 'claim' must be str"),
    ("temperatures", [0.3], "config key 'temperatures' must be dict[str, float]"),
    ("temperatures", {"coarse_aspects": "hot"}, "config key 'temperatures'"),
    ("temperatures", {"coarse_aspects": True}, "config key 'temperatures'"),
    ("temperatures", {"coarse_aspect": 0.9}, "temperatures name no LLM task: ['coarse_aspect']"),
    ("max_retries", -1, "max_retries must be >= 0, got -1"),
    ("epsilon", float("nan"), "epsilon must be a finite number, got nan"),
    ("temperatures", {"eval_judge": float("inf")},
     "temperatures['eval_judge'] must be a finite number, got inf"),
    # Both once ended in a traceback inside the hashed embedder: an OverflowError
    # in its row offsets and a struct.error packing its hash key.
    ("embed_dim", 10**20, f"embed_dim must be <= 65536, got {10**20}"),
    ("embed_dim", 2**16 + 1, "embed_dim must be <= 65536, got 65537"),
    ("seed", 2**63, f"seed must fit a signed 64-bit integer, got {2**63}"),
    ("seed", -(2**63) - 1, f"seed must fit a signed 64-bit integer, got {-(2**63) - 1}"),
    # The rank transform's cost grows with the square of the mask's width:
    # about 12 s per 300-sentence document at 599.
    ("rank_mask", 103, "rank_mask must be <= 101, got 103"),
    ("rank_mask", 599, "rank_mask must be <= 101, got 599"),
    # Above 1 not even the best child passes, so every perspective came out empty.
    ("classify_threshold", 1.5, "classify_threshold must be in [0,1], got 1.5"),
    ("classify_threshold", -0.5, "classify_threshold must be in [0,1], got -0.5"),
]


@pytest.mark.parametrize(
    "key, value, message", BAD_CONFIG_VALUES, ids=[f"{k}={v!r}" for k, v, _ in BAD_CONFIG_VALUES]
)
def test_mistyped_config_value_is_a_usage_error(tmp_path, capsys, key, value, message):
    cfg = write_config_file(tmp_path, tmp_path / "out", **{key: value})
    assert run_stage(["ingest", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threshold", [0.0, 1.0])  # every child explored; only the best
def test_classify_threshold_bounds_are_accepted(tmp_path, threshold):
    cfg = write_config_file(tmp_path, tmp_path / "out", classify_threshold=threshold)
    assert run_stage(["ingest", "--config", cfg]) == 0


def test_widest_embed_dim_and_extreme_seeds_are_accepted():
    # Checked by validate alone: an index of 65536-wide rows is not built here.
    for seed in (-(2**63), 2**63 - 1):
        PipelineConfig(embed_dim=2**16, seed=seed).validate()
        assert HashedBowEmbedder(dim=8, seed=seed).embed(["one two"]).shape == (1, 8)


def test_float_field_keeps_an_int_unconverted():
    config = PipelineConfig.from_dict({"beta": 2, "temperatures": {"eval_judge": 0}})
    assert type(config.beta) is int and type(config.temperatures["eval_judge"]) is int


def _rewrite_segment_line(edit):
    def corrupt(out):
        path = out / "segments.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = edit(lines[2])
        path.write_text("\n".join(lines) + "\n")

    return corrupt


def _edit_record(edit):
    def rewrite(line):
        record = json.loads(line)
        edit(record)
        return json.dumps(record)

    return _rewrite_segment_line(rewrite)


# The id-order check and the store hash run before any record is decoded, so a
# corrupt record is refused by one of them; tests/test_corpus.py checks the
# records themselves.
_STORE_HASH = "store sha256"
_STORE_ORDER = "does not list the ids of segment store"


@pytest.mark.parametrize(
    "corrupt, code, message",
    [
        (_rewrite_segment_line(lambda line: line[:40]), 3, _STORE_HASH),
        (_edit_record(lambda r: r.pop("text")), 3, _STORE_HASH),
        (_edit_record(lambda r: r.update(start="0")), 3, _STORE_HASH),
        (_edit_record(lambda r: r.update(start=False)), 3, _STORE_HASH),
        (_edit_record(lambda r: r.update(end=True)), 3, _STORE_HASH),
        (_rewrite_segment_line(lambda line: "[1, 2]"), 3, _STORE_ORDER),
    ],
    ids=["truncated_line", "no_text", "string_start", "bool_start", "bool_end", "not_an_object"],
)
def test_corrupt_segment_store_is_a_typed_error(
    ingested, tmp_path, capsys, monkeypatch, corrupt, code, message
):
    out = tmp_path / "out"
    shutil.copytree(ingested, out)
    corrupt(out)
    cfg = write_config_file(tmp_path, out)
    calls = _count_provider_calls(monkeypatch)
    assert run_stage(["build", "--config", cfg]) == code
    err = capsys.readouterr().err
    assert message in err
    _assert_refused(err, calls, out / "hierarchy.json")


def _node(data, node_id):
    return next(n for n in data["nodes"] if n["node_id"] == node_id)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: _node(d, "0.1").pop("label"), "'label'"),
        (lambda d: _node(d, "0.1")["children"].append("0.1.9"), "'0.1.9'"),
        (lambda d: _node(d, "0.1")["children"].append("0"), "lists child '0'"),
        (lambda d: _node(d, "0.1").update(depth=2), "depth 2"),
        (lambda d: _node(d, "0.1").update(depth=1.0), "node 0.1: depth must be an integer"),
        (lambda d: _node(d, "0.1").update(depth=True), "node 0.1: depth must be an integer"),
        (lambda d: d.update(max_depth=1), "max_depth 1"),
        (lambda d: d["nodes"].remove(_node(d, "0")), "KeyError('0')"),
        (lambda d: _node(d, "0.2").update(parent="0.1"), "bad link 0 -> 0.2"),
        (lambda d: _node(d, "0").update(parent="zzz"), "root 0 names a parent"),
        (lambda d: d.pop("nodes"), "'nodes'"),
        (lambda d: _node(d, "0.1").update(perspectives=[]), "node 0.1: perspectives"),
        (
            lambda d: _node(d, "0.2").update(perspectives={"support": {"segment_ids": "s1"}}),
            "node 0.2: support segment_ids",
        ),
        (lambda d: d["nodes"].append(1), "not subscriptable"),
        (lambda d: d.update(nodes="ab"), "string indices"),
        (lambda d: _node(d, "0.1").update(label=7), "node 0.1: label must be a string"),
        (lambda d: _node(d, "0.1").update(keywords=[1, 2]), "node 0.1: keywords must list"),
        (lambda d: d.update(claim=5), "claim must be a string"),
        (lambda d: d.update(claim=""), "claim is empty"),
        (
            lambda d: _node(d, "0.1").update(attached_segments=[["x"]]),
            "node 0.1: attached_segments must list",
        ),
    ],
    ids=[
        "no_label",
        "dangling_child",
        "cycle",
        "bad_depth",
        "depth_float",
        "depth_bool",
        "deeper_than_max",
        "no_root",
        "wrong_parent",
        "root_with_parent",
        "no_nodes",
        "perspectives_list",
        "segment_ids_string",
        "node_not_object",
        "nodes_string",
        "label_number",
        "keywords_numbers",
        "claim_number",
        "claim_empty",
        "attached_segments_nested",
    ],
)
@pytest.mark.parametrize("command", ["report", "evaluate", "perspectives"])
def test_corrupt_hierarchy_is_a_typed_error(tmp_path, capsys, monkeypatch, edit, message, command):
    calls = _count_provider_calls(monkeypatch)
    data = json.loads((GOLDEN / "hierarchy.json").read_text())
    edit(data)
    out = tmp_path / "out"
    out.mkdir()
    path = out / "hierarchy.json"  # where `perspectives` reads it
    path.write_text(json.dumps(data))
    cfg = write_config_file(tmp_path, out)
    argv = {
        "report": ["report", str(path), "--out-file", str(out / "report.md")],
        "evaluate": ["evaluate", "--config", cfg, str(path)],
        "perspectives": ["perspectives", "--config", cfg],
    }[command]
    assert run_stage(argv) == 3
    err = capsys.readouterr().err
    assert f"hierarchy file {path}" in err and message in err
    _assert_refused(err, calls, out / STAGE_OUTPUT[command])


@pytest.mark.parametrize("command", ["report", "evaluate"])
def test_hierarchy_with_lone_surrogate_exits_1(tmp_path, capsys, monkeypatch, command):
    calls = _count_provider_calls(monkeypatch)
    data = json.loads((GOLDEN / "hierarchy_perspectives.json").read_text())
    _node(data, "0.1")["label"] = "efficacy \ud800"
    path = tmp_path / "hierarchy.json"
    path.write_text(json.dumps(data))
    if command == "report":
        argv = ["report", str(path), "--out-file", str(tmp_path / "out" / "report.md")]
    else:
        argv = ["evaluate", "--config", write_config_file(tmp_path, tmp_path / "out"), str(path)]
    assert run_stage(argv) == 1
    err = capsys.readouterr().err
    assert f"hierarchy file {path} is not valid JSON: it escapes a lone surrogate" in err
    _assert_refused(err, calls, tmp_path / "out" / STAGE_OUTPUT[command])


@pytest.mark.parametrize("target", ["corpus", "config"])
def test_non_utf8_input_is_a_usage_error(tmp_path, capsys, target):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes((DATA_DIR / "corpus.jsonl").read_bytes())
    cfg = Path(write_config_file(tmp_path, tmp_path / "out", corpus_path=str(corpus)))
    path = corpus if target == "corpus" else cfg
    path.write_bytes(path.read_bytes().replace(b"Vaccine", b"Vacc\xe9ine", 1))
    assert run_stage(["ingest", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"{path} is not valid UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [
        "{oops",
        "[1, 2]",
        '{"responses": [1]}',
        '{"default": []}',
        '{"responses": {"h": []}}',
        '{"default": {"aspects": []}}',
        '{"responses": {"h": null}}',
    ],
    ids=[
        "not_json",
        "not_an_object",
        "responses_not_an_object",
        "empty_default_list",
        "empty_response_list",
        "object_default",
        "null_response",
    ],
)
def test_malformed_mock_transcript_is_a_usage_error(
    ingested, tmp_path, capsys, monkeypatch, content
):
    out, transcript = tmp_path / "out", tmp_path / "transcript"
    shutil.copytree(ingested, out)
    transcript.mkdir()
    (transcript / "coarse_aspects.json").write_text(content)
    cfg = write_config_file(tmp_path, out, mock_dir=str(transcript))
    calls = _count_provider_calls(monkeypatch)
    assert run_stage(["build", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"mock transcript {transcript / 'coarse_aspects.json'}" in err
    _assert_refused(err, calls, out / "hierarchy.json")


DOC = {"doc_id": "p1", "title": "t", "text": "One sentence. Two sentences."}


@pytest.mark.parametrize(
    "records, message",
    [
        ([{**DOC, "title": "  "}], "line 1 (doc_id='p1') is missing field 'title'"),
        ([DOC, {**DOC, "doc_id": "p2"}, {**DOC, "text": "Other text."}],
         "corpus.jsonl: doc_id 'p1' at line 3 repeats the doc_id of line 1"),
        ([DOC, {**DOC, "doc_id": "p2", "text": "Alpha \ud800 beta."}],
         "line 2 is not valid JSON: it escapes a lone surrogate"),
        ([], "holds no documents"),
    ],
    ids=["blank_field", "repeated_doc_id", "lone_surrogate", "empty_corpus"],
)
def test_bad_corpus_record_exits_1(tmp_path, capsys, records, message):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    cfg = write_config_file(tmp_path, tmp_path / "out", corpus_path=str(corpus))
    assert run_stage(["ingest", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out" / "segments.jsonl").exists()


def test_claim_that_is_not_utf8_exits_1(ingested, tmp_path, capsys, monkeypatch):
    # A command-line byte 0xff reaches Python as the lone surrogate U+DCFF.
    out = tmp_path / "out"
    shutil.copytree(ingested, out)
    cfg = write_config_file(tmp_path, out)
    calls = _count_provider_calls(monkeypatch)
    assert run_stage(["build", "--config", cfg, "--claim", "Vaccine \udcff"]) == 1
    err = capsys.readouterr().err
    assert err == "error: claim is not valid UTF-8 text\n"
    _assert_refused(err, calls, out / "hierarchy.json")


def test_refused_judge_endpoint_exits_2(ingested, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(http_provider, "time", SimpleNamespace(sleep=lambda seconds: None))
    out = tmp_path / "out"
    out.mkdir()
    for name in ("segments.jsonl", "index_manifest.json"):  # the attached texts, vouched for
        shutil.copy(ingested / name, out / name)
    with socket.create_server(("127.0.0.1", 0)) as probe:
        port = probe.getsockname()[1]  # closed on exit, so connections are refused
    argv = ["evaluate", "--chat-endpoint", f"http://127.0.0.1:{port}/chat",
            "--out", str(out), str(GOLDEN / "hierarchy_perspectives.json")]
    assert run_stage(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("provider error: chat endpoint failed after 3 attempts: ")
    assert err.endswith(" (relevance node=0.1)\n")  # the first judgment names its node


def test_build_provider_failure_names_its_aspect(ingested, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    shutil.copytree(ingested, out)
    complete = MockChatProvider.complete

    def refusing(self, task, prompt, base_hash):
        if task.name == "keyword_extract":
            raise errors.ProviderUnavailable("chat endpoint refused")
        return complete(self, task, prompt, base_hash)

    monkeypatch.setattr(MockChatProvider, "complete", refusing)
    assert run_stage(["build", "--config", write_config_file(tmp_path, out)]) == 2
    err = capsys.readouterr().err
    assert err.endswith("provider error: chat endpoint refused (aspect='efficacy')\n")


# Truncate at, overwrite from, or delete a run starting at an offset taken
# modulo the file's length.
MUTATIONS = st.tuples(
    st.sampled_from(["truncate", "overwrite", "delete"]),
    st.integers(min_value=0, max_value=2**32),
    st.binary(min_size=1, max_size=8),
)


def _mutate(data: bytes, mutation) -> bytes:
    kind, at, run = mutation
    at %= len(data)
    if kind == "truncate":
        return data[:at]
    tail = data[at + len(run):]
    return data[:at] + (run if kind == "overwrite" else b"") + tail


@pytest.mark.parametrize(
    "name, command",
    [
        ("segments.jsonl", "build"),
        ("index_manifest.json", "build"),
        ("vectors.bin", "build"),
        ("hierarchy.json", "perspectives"),
        ("index_manifest.json", "evaluate"),
    ],
)
@settings(max_examples=30, deadline=None)
@given(mutation=MUTATIONS)
@example(mutation=("overwrite", 30, b"\xe9"))
@example(mutation=("overwrite", 0, b"\xff\xfe"))
def test_mutated_artifact_exits_with_a_code(ingested, name, command, mutation):
    """A byte-mutated artifact ends in exit 0, 1 or 3, never an uncaught
    exception. A ``segments.jsonl`` or ``vectors.bin`` whose bytes changed exits
    1 or 3: the index records the SHA-256 of both. A JSON file may still exit 0
    after a change that leaves what the stage uses intact, such as whitespace."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(ingested, out)
        if name == "hierarchy.json":
            shutil.copy(GOLDEN / name, out / name)
        path = out / name
        before = path.read_bytes()
        path.write_bytes(_mutate(before, mutation))
        changed = path.read_bytes() != before
        argv = [command, "--config", write_config_file(tmp, out)]
        if command == "evaluate":
            argv.append(str(GOLDEN / "hierarchy_perspectives.json"))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    if changed and name in ("segments.jsonl", "vectors.bin"):
        assert code in (1, 3)
    else:
        assert code in (0, 1, 3)


# JSON-level edits of the frozen tree: replace the value at any path with one
# from a small pool, delete a key, or duplicate a list item.
_TREE = json.loads((GOLDEN / "hierarchy_perspectives.json").read_text())
_POOL = [None, 0, -1, 2.5, 1e308, True, "", "0", [], {}, 10**20]


def _json_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, child in items:
        yield from _json_paths(child, (*path, key))


_PATHS = list(_json_paths(_TREE))
_KEYS = [path for path in _PATHS if path and isinstance(path[-1], str)]
_ITEMS = [path for path in _PATHS if path and isinstance(path[-1], int)]
JSON_EDITS = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from(_PATHS), st.sampled_from(_POOL)),
    st.tuples(st.just("delete"), st.sampled_from(_KEYS), st.none()),
    st.tuples(st.just("duplicate"), st.sampled_from(_ITEMS), st.none()),
)


def _edit_json(tree, edit):
    kind, path, value = edit
    if not path:
        return copy.deepcopy(value)
    tree = copy.deepcopy(tree)
    *head, last = path
    holder = functools.reduce(operator.getitem, head, tree)
    if kind == "replace":
        holder[last] = copy.deepcopy(value)
    elif kind == "delete":
        del holder[last]
    else:
        holder.insert(last, copy.deepcopy(holder[last]))
    return tree


class Hang(Exception):
    pass


@contextlib.contextmanager
def _alarm(seconds):
    """Turn a run that outlasts ``seconds`` into a ``Hang``."""

    def expire(signum, frame):
        raise Hang(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=100, deadline=None)
@given(edit=JSON_EDITS)
@example(edit=("replace", ("nodes", 0, "parent"), "0"))  # a root that names itself hung evaluate
def test_json_edited_perspectives_tree_exits_with_a_code(ingested, edit):
    """``evaluate`` and ``report`` on a structurally edited
    ``hierarchy_perspectives.json`` exit 0, 1, 2 or 3, never with an uncaught
    exception or a hang."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(ingested, out)
        path = out / "hierarchy_perspectives.json"
        path.write_text(json.dumps(_edit_json(_TREE, edit)))
        argvs = [
            ["evaluate", "--config", write_config_file(tmp, out), str(path)],
            ["report", str(path), "--out-file", str(out / "report.md")],
            ["report", str(path), "--format", "dot", "--out-file", str(out / "report.dot")],
        ]
        for argv in argvs:
            with _alarm(10), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3), argv
