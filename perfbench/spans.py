"""In-memory span recording around the claimlens layers, from outside `src/`.

A traced stage process calls :func:`install` after importing
``claimlens.cli`` and before calling ``claimlens.cli.main``. Every public
function or method listed in :data:`TRACED` is replaced, where its caller
looks it up, by a wrapper that records one span per call: name, start, end,
span id, parent span id (the innermost span open on the same thread) and a
few attributes. Spans stay in memory until :meth:`Recorder.write` at stage
exit.

Every stage process, traced or not, installs :func:`install_provider_hooks`:
a count of provider calls and characters, plus the optional fixed latency.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import Counter
from typing import Any, Callable

# (span name, module, owner attribute or None for a module function, attribute)
# Functions are patched on the module the caller reads them from; methods on
# their class.
TRACED: list[tuple[str, str, str | None, str]] = [
    ("corpus.load_corpus", "claimlens.corpus", None, "load_corpus"),
    ("corpus.write_segments", "claimlens.corpus", None, "write_segments"),
    ("corpus.read_segments", "claimlens.corpus", None, "read_segments"),
    ("corpus.segment_document", "claimlens.corpus", None, "segment_document"),
    ("corpus.split_sentences", "claimlens.corpus", None, "split_sentences"),
    ("corpus.extract_terms", "claimlens.corpus", None, "extract_terms"),
    ("corpus.choose_boundaries", "claimlens.corpus", None, "choose_boundaries"),
    ("embedding.embed_texts", "claimlens.embedding", "Embedder", "embed_texts"),
    ("embedding.index_add_batch", "claimlens.embedding", "EmbeddingIndex", "add_batch"),
    ("embedding.index_save", "claimlens.embedding", "EmbeddingIndex", "save"),
    ("embedding.index_load", "claimlens.embedding", "EmbeddingIndex", "load"),
    ("embedding.top_k", "claimlens.embedding", "EmbeddingIndex", "top_k"),
    ("ranking.rank_segments", "claimlens.hierarchy", None, "rank_segments"),
    ("hierarchy.enrich_keywords", "claimlens.hierarchy", "HierarchyBuilder", "enrich_keywords"),
    ("hierarchy.rank_node_segments", "claimlens.hierarchy", "HierarchyBuilder", "rank_node_segments"),
    ("hierarchy.discover_subaspects", "claimlens.hierarchy", "HierarchyBuilder", "discover_subaspects"),
    ("llm_gateway.complete_json", "claimlens.llm_gateway", "LlmGateway", "complete_json"),
    ("llm_gateway.provider", "claimlens.llm_gateway", "MockChatProvider", "complete"),
    ("llm_gateway.mock_load", "claimlens.llm_gateway", "MockChatProvider", "from_dir"),
    ("perspective.claim_representation", "claimlens.perspective", None, "claim_representation"),
    ("perspective.relevance_boundary", "claimlens.perspective", None, "relevance_boundary"),
    ("perspective.classify_segments", "claimlens.perspective", None, "classify_segments"),
    ("perspective.detect_stance", "claimlens.perspective", None, "detect_stance"),
    ("perspective.summarize_perspectives", "claimlens.perspective", None, "summarize_perspectives"),
    ("evaluation.node_relevance", "claimlens.evaluation", None, "node_relevance"),
    ("evaluation.path_granularity", "claimlens.evaluation", None, "path_granularity"),
    ("evaluation.sibling_granularity", "claimlens.evaluation", None, "sibling_granularity"),
    ("evaluation.uniqueness", "claimlens.evaluation", None, "uniqueness"),
    ("evaluation.segment_quality", "claimlens.evaluation", None, "segment_quality"),
]


def _attrs(name: str, args: tuple) -> dict[str, Any] | None:
    """Work counts recorded on a span, read from the call's own arguments."""
    if name == "embedding.embed_texts":
        return {"texts": len(args[1])}
    if name == "embedding.index_add_batch":
        return {"rows": len(args[1])}
    if name == "embedding.top_k":
        return {"rows": len(args[0])}
    return None


class Recorder:
    """Spans of one stage process, kept in memory until the stage exits."""

    def __init__(self, pass_id: int, stage: str):
        self.pass_id = pass_id
        self.stage = stage
        self.spans: list[dict[str, Any]] = []
        self.index_get_calls = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._in_flight = 0
        self.in_flight_max = 0

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1] if stack else None
        stack.append(span_id)
        record: dict[str, Any] = {"id": span_id, "parent": parent, "name": name,
                                  "pass": self.pass_id, "stage": self.stage}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            record["failed"] = True
            raise
        else:
            extra = _attrs(name, args)
            if extra:
                record.update(extra)
            return result
        finally:
            record["start"] = start
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def track_in_flight(self, delta: int) -> None:
        with self._lock:
            self._in_flight += delta
            self.in_flight_max = max(self.in_flight_max, self._in_flight)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _patch(module: Any, owner: str | None, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace one function or method by ``make(original)``, keeping classmethods."""
    if owner is None:
        setattr(module, attr, make(getattr(module, attr)))
        return
    cls = getattr(module, owner)
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install(recorder: Recorder) -> None:
    """Wrap every layer in :data:`TRACED`, plus a call counter on index reads."""
    for name, module_name, owner, attr in TRACED:
        module = importlib.import_module(module_name)

        def make(fn: Callable, name: str = name) -> Callable:
            if name == "llm_gateway.provider":
                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    recorder.track_in_flight(1)
                    try:
                        return recorder.span(name, fn, *args, **kwargs)
                    finally:
                        recorder.track_in_flight(-1)
            else:
                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    return recorder.span(name, fn, *args, **kwargs)
            wrapper.__wrapped__ = fn
            return wrapper

        _patch(module, owner, attr, make)

    # Index reads are too frequent and too short for a span each: count them.
    def count_get(fn: Callable) -> Callable:
        def get(*args: Any, **kwargs: Any) -> Any:
            recorder.index_get_calls += 1
            return fn(*args, **kwargs)
        return get

    _patch(importlib.import_module("claimlens.embedding"), "EmbeddingIndex", "get", count_get)


class ProviderTally:
    """Provider calls per task and characters sent, counted on every run."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.prompt_chars = 0
        self.response_chars = 0


def install_provider_hooks(tally: ProviderTally, latency_s: float) -> None:
    """Count every ``MockChatProvider.complete`` call and, when ``latency_s``
    is positive, sleep that long before delegating: a fixed LLM wait that
    leaves prompt-hash lookup, parsing, validation and retries in place."""
    def make(fn: Callable) -> Callable:
        def complete(self: Any, task: Any, prompt: str, base_hash: str) -> str:
            tally.calls[task.name] += 1
            tally.prompt_chars += len(prompt)
            if latency_s > 0:
                time.sleep(latency_s)
            value = fn(self, task, prompt, base_hash)
            tally.response_chars += len(value)
            return value
        return complete

    _patch(importlib.import_module("claimlens.llm_gateway"), "MockChatProvider", "complete", make)
