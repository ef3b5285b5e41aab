"""Command-line orchestration of the staged pipeline.

Stages persist their artifacts (ingest -> build -> perspectives -> evaluate)
so the expensive steps can be resumed and mixed runs are detectable: each stage
loads and checks every artifact it reads in one gate, before any provider is
built, and reads each file once. The hierarchy records the config fingerprint;
the index records it too, with the embedder, the SHA-256 of the segment store
it was built from and the SHA-256 of its own vectors.

The command line is read by one small parser driven by the flag tables below
(``_FLAG_FIELDS`` for the pipeline commands, ``_REPORT_FLAGS`` for ``report``):
``claimlens <command> [--flag VALUE | --flag=VALUE]... [FILE...]``, flags
spelled in full, each value converted to the table's type, the last repeat of a
flag winning. The same tables give the ``--help`` text, and any malformed
command line is a ``UsageError``. It loads neither argparse nor gettext, which
every stage process would pay for at start-up.

Exit codes: 0 success, 1 usage or input error, 2 provider failure,
3 schema or contract violation.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Mapping, Sequence

from . import corpus as corpus_mod
from . import errors
from .artifacts import read_json, write_json, write_jsonl, write_text
from .config import PipelineConfig, load_config_file
from .corpus import Segment
from .embedding import (
    Embedder,
    EmbeddingIndex,
    HashedBowEmbedder,
    HttpEmbeddingProvider,
    read_manifest,
)
from .evaluation import evaluate_hierarchy, pairwise_compare, render_metric_table
from .hierarchy import STANCES, AspectHierarchy, HierarchyBuilder
from .llm_gateway import HttpChatProvider, LlmGateway, MockChatProvider, OperationLog
from .perspective import FilterParams, consensus_counts, discover_perspectives


# ---------------------------------------------------------------------------
# Config assembly: defaults <- config file <- flags
# ---------------------------------------------------------------------------

_FLAG_FIELDS = [
    ("--claim", "claim", str, "root claim to deconstruct"),
    ("--corpus", "corpus_path", str, "corpus JSONL file"),
    ("--out", "output_dir", str, "artifact directory"),
    ("--max-depth", "max_depth", int, "maximum hierarchy depth"),
    ("--k-aspects", "k_aspects", int, "max coarse aspects"),
    ("--k-subaspects", "k_subaspects", int, "max subaspects per node"),
    ("--k-keywords", "k_keywords", int, "keywords per enriched node"),
    ("--pool-size", "pool_size", int, "retrieval pool size"),
    ("--k-segments", "k_segments", int, "discriminative segments kept per node"),
    ("--beta", "beta", float, "target score scaling"),
    ("--gamma", "gamma", float, "distractor score scaling"),
    ("--epsilon", "epsilon", float, "distractor denominator floor"),
    ("--delta", "delta", float, "relevance window fraction threshold"),
    ("--window", "window", int, "relevance window half-width"),
    ("--min-chars", "min_chars", int, "segment length floor for filtering"),
    ("--rank-mask", "rank_mask", int, "segmenter rank mask size"),
    ("--min-density-gain", "min_density_gain", float, "segmenter stop threshold"),
    ("--min-segment-sentences", "min_segment_sentences", int, "segment floor"),
    ("--max-segments-per-doc", "max_segments_per_doc", int, "segment cap"),
    ("--embed-dim", "embed_dim", int, "local embedder dimension"),
    ("--embed-endpoint", "embed_endpoint", str, "remote embeddings endpoint"),
    ("--embed-model", "embed_model", str, "remote embeddings model"),
    ("--chat-endpoint", "chat_endpoint", str, "chat completions endpoint"),
    ("--chat-model", "chat_model", str, "chat model name"),
    ("--mock-dir", "mock_dir", str, "scripted transcript directory"),
    ("--max-retries", "max_retries", int, "retries on invalid LLM JSON"),
    ("--classify-threshold", "classify_threshold", float, "descent threshold"),
    ("--seed", "seed", int, "random seed"),
]


def resolve_config(flags: Mapping[str, object]) -> PipelineConfig:
    """The config of a pipeline command: the defaults, then the ``--config`` file,
    then ``flags`` (parsed values keyed by their ``_FLAG_FIELDS`` destination)."""
    merged = PipelineConfig().to_dict()
    if flags.get("config"):
        merged.update(load_config_file(flags["config"]))
    merged.update((name, value) for name, value in flags.items() if name != "config")
    config = PipelineConfig.from_dict(merged)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Providers and artifact paths
# ---------------------------------------------------------------------------


def make_embedder(config: PipelineConfig) -> Embedder:
    if config.embed_endpoint:
        return Embedder(HttpEmbeddingProvider(config.embed_endpoint, config.embed_model))
    return Embedder(HashedBowEmbedder(dim=config.embed_dim, seed=config.seed))


def make_gateway(config: PipelineConfig, log: OperationLog) -> LlmGateway:
    if config.mock_dir:
        provider = MockChatProvider.from_dir(config.mock_dir)
    elif config.chat_endpoint:
        provider = HttpChatProvider(config.chat_endpoint, config.chat_model)
    else:
        raise errors.UsageError(
            "no LLM provider configured: set --mock-dir or --chat-endpoint"
        )
    return LlmGateway(
        provider,
        log=log,
        temperatures=config.temperatures,
        max_retries=config.max_retries,
    )


class Paths:
    def __init__(self, output_dir: str):
        self.root = Path(output_dir)
        self.segments = self.root / "segments.jsonl"
        self.index_manifest = self.root / "index_manifest.json"
        self.hierarchy = self.root / "hierarchy.json"
        self.operation_log = self.root / "operation_log.jsonl"
        self.perspectives = self.root / "hierarchy_perspectives.json"
        self.perspectives_log = self.root / "perspectives_log.jsonl"
        self.consensus = self.root / "consensus.tsv"
        self.metrics_json = self.root / "metrics.json"
        self.metrics_table = self.root / "metrics.txt"
        self.evaluate_log = self.root / "evaluate_log.jsonl"
        self.pairwise = self.root / "pairwise.json"


def _check_stamp(found: dict, expected: dict[str, str], what: str, stage: str) -> None:
    """Refuse an artifact whose recorded stamp differs from ``expected`` in any key."""
    for key, value in expected.items():
        if found.get(key) != value:
            raise errors.FingerprintMismatch(
                f"{what} was produced under {key.replace('_', ' ')} "
                f"{found.get(key) or '(none)'}, current is {value or '(none)'}; "
                f"re-run `claimlens {stage}`"
            )


def _index_stamp(config: PipelineConfig, store_sha256: str) -> dict[str, str]:
    """What an index that serves ``config`` over the store of ``store_sha256`` records:
    the fingerprint, the part of the embedder it leaves out (not the endpoint), and
    the store's SHA-256."""
    return {
        "config_fingerprint": config.fingerprint(),
        "embedder": f"http:{config.embed_model}" if config.embed_endpoint else "hashed",
        "store_sha256": store_sha256,
    }


def _found(path: str | Path, what: str, stage: str) -> str:
    if not Path(path).exists():
        raise errors.UsageError(f"{what} {path} not found: run `claimlens {stage}` first")
    return str(path)


def _stage_inputs(
    stage: str, hierarchy_paths: Sequence[str | Path], config: PipelineConfig | None = None
) -> tuple[list[AspectHierarchy], Mapping[str, Segment], EmbeddingIndex | None]:
    """Every artifact ``stage`` reads, loaded and checked before any provider is built:
    the hierarchy files, which ``perspectives`` wants whole and built under ``config``;
    for ``build`` and ``perspectives``, the index, whose vectors must be the ones its
    manifest records, and the segment store, which must hold the index's ids in index
    order and carry the stamp ``ingest`` would write now; and for ``evaluate`` of one
    tree, the store whenever the tree attaches segments, which must hold those ids and
    be the store that the index manifest (its JSON only) records under the tree's own
    config fingerprint. The store is read once and its records decoded only when a
    stage looks them up; ``perspectives`` leaves out the lines too short to hold a text
    of ``min_chars`` characters, which it would filter out anyway."""
    trees = []
    for path in hierarchy_paths:
        data = read_json(_found(path, "hierarchy file", "build"), "hierarchy file")
        try:
            trees.append(AspectHierarchy.from_dict(data))
        except errors.CorruptArtifact as exc:
            raise errors.CorruptArtifact(f"hierarchy file {path}: {exc}") from exc
        if stage == "perspectives":
            if data.get("partial"):
                raise errors.CorruptArtifact(
                    f"hierarchy {path} is partial, left by a failed build: "
                    "re-run `claimlens build`"
                )
            _check_stamp(data, {"config_fingerprint": config.fingerprint()}, "hierarchy", "build")
    indexed = stage in ("build", "perspectives")
    attached = set()
    if stage == "evaluate" and len(trees) == 1:
        attached = {sid for node in trees[0].nodes.values() for sid in node.attached_segments}
    if not (indexed or attached):
        return trees, {}, None
    paths = Paths(config.output_dir)
    store_path = _found(paths.segments, "segment store", "ingest")
    _found(paths.index_manifest, "embedding index", "ingest")
    if indexed:
        index, manifest = EmbeddingIndex.load(str(paths.root))
    else:
        index, manifest = None, read_manifest(str(paths.root))
    min_bytes = config.min_chars if stage == "perspectives" else 0
    store = corpus_mod.SegmentStore(store_path, manifest["segment_ids"], min_bytes)
    missing = sorted(attached.difference(store))
    if missing:
        raise errors.CorruptArtifact(
            f"hierarchy file {hierarchy_paths[0]} attaches {len(missing)} segments "
            f"missing from segment store {store_path}, first {missing[0]!r}"
        )
    if indexed:
        stamp = _index_stamp(config, store.sha256)
    else:
        # The one tree's fingerprint, not evaluate's: evaluate may run under other flags.
        stamp = {"config_fingerprint": data.get("config_fingerprint"),
                 "store_sha256": store.sha256}
    _check_stamp(manifest, stamp, "embedding index", "ingest")
    return trees, store, index


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(config: PipelineConfig) -> int:
    if not config.corpus_path:
        raise errors.UsageError("ingest requires --corpus")
    paths = Paths(config.output_dir)
    documents = corpus_mod.load_corpus(config.corpus_path)
    n_documents = len(documents)
    segments = [seg for segs in corpus_mod.segment_corpus(documents, config) for seg in segs]
    del documents  # the segments hold all ingest needs; free the corpus before the index
    store_sha256 = corpus_mod.write_segments(segments, str(paths.segments))

    embedder = make_embedder(config)
    index = None
    batch = 64
    for i in range(0, len(segments), batch):
        chunk = segments[i : i + batch]
        vectors = embedder.embed_texts([s.text for s in chunk])
        if index is None:  # the first batch gives the dim; every document has a segment
            index = EmbeddingIndex(vectors.shape[1], capacity=len(segments))
        index.add_batch([s.segment_id for s in chunk], vectors)
    index.save(str(paths.root), _index_stamp(config, store_sha256))
    print(
        f"ingested {n_documents} documents into {len(segments)} segments; "
        f"index dim {index.dim} at {paths.root}"
    )
    return 0


def cmd_build(config: PipelineConfig) -> int:
    if not config.claim:
        raise errors.UsageError("build requires --claim")
    paths = Paths(config.output_dir)
    _, segments, index = _stage_inputs("build", [], config)
    log = OperationLog()
    gateway = make_gateway(config, log)
    embedder = make_embedder(config)
    builder = HierarchyBuilder(gateway, embedder, index, segments, config)
    try:
        tree = builder.build()
    except errors.ClaimLensError:
        if builder.tree is not None:
            write_json(paths.hierarchy, builder.tree.to_dict(config.fingerprint(), partial=True))
            write_jsonl(paths.operation_log, log.records)
            print(f"partial hierarchy persisted to {paths.hierarchy}", file=sys.stderr)
        raise
    write_json(paths.hierarchy, tree.to_dict(config.fingerprint()))
    write_jsonl(paths.operation_log, log.records)
    print(f"hierarchy with {len(tree.nodes)} nodes at {paths.hierarchy}")
    return 0


def cmd_perspectives(config: PipelineConfig) -> int:
    paths = Paths(config.output_dir)
    [tree], segments, index = _stage_inputs("perspectives", [paths.hierarchy], config)
    log = OperationLog()
    gateway = make_gateway(config, log)
    embedder = make_embedder(config)
    params = FilterParams(config.delta, config.window, config.min_chars)
    tree = discover_perspectives(
        gateway, embedder, index, segments, tree, params,
        relative_threshold=config.classify_threshold,
    )
    write_json(paths.perspectives, tree.to_dict(config.fingerprint()))
    _write_consensus_table(tree, paths.consensus)
    write_jsonl(paths.perspectives_log, log.records)
    if not tree.node(tree.root).children:
        print("warning: the tree has no aspects, so no segment was judged", file=sys.stderr)
    elif not any(tree.node(n).attached_segments for n in tree.nodes):
        print("warning: no segments survived relevance filtering", file=sys.stderr)
    print(f"perspectives at {paths.perspectives}; consensus table at {paths.consensus}")
    return 0


def _write_consensus_table(tree: AspectHierarchy, path: Path) -> None:
    lines = ["node_id\tstance\tsegments\tpapers"]
    for node_id in tree.sorted_ids():
        node = tree.node(node_id)
        if node.perspectives is None:
            continue
        counts = consensus_counts(node.perspectives)
        for stance in STANCES:
            lines.append(
                f"{node_id}\t{stance}\t{counts.segments[stance]}\t{counts.papers[stance]}"
            )
    write_text(path, "\n".join(lines) + "\n")


def cmd_evaluate(config: PipelineConfig, hierarchy_paths: list[str]) -> int:
    paths = Paths(config.output_dir)
    trees, segments, _ = _stage_inputs("evaluate", hierarchy_paths, config)
    log = OperationLog()
    gateway = make_gateway(config, log)

    if len(trees) == 1:
        report = evaluate_hierarchy(trees[0], gateway, segments)
        payload = {"config_fingerprint": config.fingerprint(), **report.to_dict()}
        write_json(paths.metrics_json, payload)
        table = render_metric_table(report)
        write_text(paths.metrics_table, table)
        write_jsonl(paths.evaluate_log, log.records)
        print(table, end="")
        return 0

    verdict = pairwise_compare(trees[0], trees[1], gateway)
    payload = {"config_fingerprint": config.fingerprint(), "a": hierarchy_paths[0],
               "b": hierarchy_paths[1], "verdict": verdict}
    write_json(paths.pairwise, payload)
    write_jsonl(paths.evaluate_log, log.records)
    print(verdict)
    return 0


def cmd_report(hierarchy_path: str, fmt: str, out: str | None = None) -> int:
    [tree], _, _ = _stage_inputs("report", [hierarchy_path])
    if fmt == "markdown":
        rendered = render_markdown(tree)
    elif fmt == "dot":
        rendered = render_dot(tree)
    else:
        raise errors.UnknownFormat(f"unknown report format {fmt!r}")
    if out:
        write_text(out, rendered)
        print(f"report written to {out}")
    else:
        print(rendered, end="")
    return 0


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_markdown(tree: AspectHierarchy) -> str:
    """Indented tree, one bullet per node at its depth, with segment and
    stance counts (own counts, subtree rollup in parentheses)."""
    node_ids = tree.sorted_ids()
    subtree: dict[str, int] = {}
    for node_id in reversed(node_ids):  # children sort after their parent
        node = tree.node(node_id)
        subtree[node_id] = len(node.attached_segments) + sum(subtree[c] for c in node.children)
    lines = [f"# {tree.claim}", ""]
    for node_id in node_ids:
        node = tree.node(node_id)
        parts = [f"segments: {len(node.attached_segments)}"]
        if node.children:
            parts.append(f"subtree: {subtree[node_id]}")
        if node.perspectives is not None:
            papers = consensus_counts(node.perspectives).papers
            parts.append(f"papers s/n/o: {'/'.join(str(papers[s]) for s in STANCES)}")
        indent = "  " * node.depth
        lines.append(f"{indent}- **{node.label}** [{'; '.join(parts)}]")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(tree: AspectHierarchy) -> str:
    lines = ["digraph aspects {", "  rankdir=LR;", "  node [shape=box];"]
    for node_id in tree.sorted_ids():
        node = tree.node(node_id)
        label = _dot_escape(f"{node.label}\\n({len(node.attached_segments)} segments)")
        lines.append(f'  "{node_id}" [label="{label}"];')
    for node_id in tree.sorted_ids():
        for child in tree.node(node_id).children:
            lines.append(f'  "{node_id}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


_PIPELINE_FLAGS = [("--config", "config", str, "JSON config file; flags override it"),
                   *_FLAG_FIELDS]
_REPORT_FLAGS = [
    ("--format", "fmt", str, "markdown (default) or dot"),
    ("--out-file", "out_file", str, "write the report here instead of to stdout"),
]

# command -> (help, its flags, the files it takes as usage text, fewest files, most files)
_COMMANDS = {
    "ingest": ("segment the corpus and build the index", _PIPELINE_FLAGS, "", 0, 0),
    "build": ("construct the aspect hierarchy", _PIPELINE_FLAGS, "", 0, 0),
    "perspectives": ("attach perspectives and consensus", _PIPELINE_FLAGS, "", 0, 0),
    "evaluate": (
        "metric report, or pairwise with 2 files", _PIPELINE_FLAGS, " HIERARCHY [HIERARCHY]", 1, 2
    ),
    "report": ("render a hierarchy", _REPORT_FLAGS, " HIERARCHY", 1, 1),
}


def usage(command: str | None = None) -> str:
    """The help text: every command, or one command and each of its flags."""
    if command is None:
        lines = [
            "usage: claimlens <command> [--flag VALUE | --flag=VALUE]... [FILE...]",
            "",
            "Deconstruct a claim into a corpus-grounded aspect hierarchy "
            "with stance-partitioned perspectives.",
            "",
            "commands:",
            *(f"  {name:<14}{spec[0]}" for name, spec in _COMMANDS.items()),
            "",
            "`claimlens <command> --help` lists the flags of a command.",
        ]
    else:
        help_text, flags, files = _COMMANDS[command][:3]
        lines = [
            f"usage: claimlens {command} [--flag VALUE | --flag=VALUE]...{files}",
            "",
            f"{help_text}; flags are spelled in full, and the last of a repeated flag wins.",
            "",
            "flags:",
            *(f"  {f'{flag} {typ.__name__.upper()}':<32}{text}"
              for flag, _, typ, text in flags),
        ]
    return "\n".join(lines) + "\n"


def parse_args(argv: Sequence[str]) -> tuple[str, dict[str, object], list[str]] | None:
    """Split ``argv`` into its command, its flag values keyed by destination and
    converted to the table's type (the last repeat wins), and its file arguments.

    A flag takes the next argument as its value unless that argument begins with
    ``--`` (``--flag=VALUE`` takes any value); ``--`` makes every later argument a
    file. Prints the help and returns None on ``-h``/``--help``; raises
    ``UsageError`` on any other malformed command line."""
    if not argv:
        raise errors.UsageError("no command given; run `claimlens --help` for the commands")
    command = argv[0]
    if command in ("-h", "--help"):
        print(usage(), end="")
        return None
    if command not in _COMMANDS:
        raise errors.UsageError(
            f"unknown command {command!r}; the commands are {', '.join(_COMMANDS)}"
        )
    _, flags, _, fewest, most = _COMMANDS[command]
    table = {flag: (dest, typ) for flag, dest, typ, _ in flags}
    values: dict[str, object] = {}
    files: list[str] = []
    args = iter(argv[1:])
    for arg in args:
        if arg == "--":
            files.extend(args)
        elif arg in ("-h", "--help"):
            print(usage(command), end="")
            return None
        elif arg.startswith("-") and arg != "-":
            flag, has_value, value = arg.partition("=")
            if flag not in table:
                raise errors.UsageError(f"unknown flag {flag} for `claimlens {command}`")
            if not has_value:
                value = next(args, None)
                if value is None or value.startswith("--"):
                    raise errors.UsageError(f"flag {flag} needs a value")
            dest, typ = table[flag]
            try:
                values[dest] = typ(value)
            except ValueError:
                raise errors.UsageError(
                    f"flag {flag} takes {typ.__name__}, got {value!r}"
                ) from None
        else:
            files.append(arg)
    if not fewest <= len(files) <= most:
        wanted = _COMMANDS[command][2].strip() or "no files"
        raise errors.UsageError(f"`claimlens {command}` takes {wanted}, got {files}")
    return command, values, files


def run(argv: list[str] | None = None) -> int:
    parsed = parse_args(sys.argv[1:] if argv is None else argv)
    if parsed is None:  # the help was printed
        return 0
    command, flags, files = parsed
    if command == "report":
        return cmd_report(files[0], flags.get("fmt", "markdown"), flags.get("out_file"))
    config = resolve_config(flags)
    if command == "ingest":
        return cmd_ingest(config)
    if command == "build":
        return cmd_build(config)
    if command == "perspectives":
        return cmd_perspectives(config)
    return cmd_evaluate(config, files)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except errors.UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except errors.ProviderUnavailable as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return 2
    except errors.ClaimLensError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
