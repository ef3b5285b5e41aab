"""Single choke point for LLM calls.

Everything that talks to a language model goes through :class:`LlmGateway`:
per-task sampling parameters, JSON parsing with schema validation and bounded
retries (the validation error is fed back into the retry prompt), and an
operation log recording task name, prompt hash, and retry count for every
outbound request. Each stage module owns its prompt templates and the
response schemas of their replies, and hands the gateway a
:class:`PromptInstance`. Response schemas use eight JSON Schema keywords,
which this module checks itself: each schema is checked before its prompt is
sent, and a reply that breaks it is reported with the message the reference
Draft 2020-12 validator picks as its best match. Every reply is a JSON object
with one required key (:func:`reply_schema`), and every list of texts in a
prompt is numbered the same way (:func:`numbered_listing`).

Two providers ship with the package: a chat-completions-style HTTP provider
and a scripted mock keyed by (task, prompt hash) with task-level default
fallbacks, so a full pipeline run can be replayed byte-identically offline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Protocol

from .artifacts import parse_json, read_json
from .errors import ProviderUnavailable, SchemaViolation, UnknownTask, UnreadableFile
from .http_provider import HttpJsonProvider

# ---------------------------------------------------------------------------
# Task registry: creative discovery samples hot, everything else cold
# ---------------------------------------------------------------------------

TOP_P = 0.99  # nucleus sampling bound, the same for every task


@dataclass(frozen=True)
class LlmTask:
    name: str
    temperature: float


TASKS: dict[str, LlmTask] = {
    task.name: task
    for task in (
        LlmTask("coarse_aspects", 0.3),
        LlmTask("keyword_extract", 0.3),
        LlmTask("keyword_filter", 0.3),
        LlmTask("subaspect_discovery", 0.7),
        LlmTask("relevance_judge", 0.3),
        LlmTask("stance_detect", 0.3),
        LlmTask("perspective_summarize", 0.3),
        LlmTask("eval_judge", 0.3),
        LlmTask("pairwise_judge", 0.3),
    )
}


@dataclass(frozen=True)
class PromptInstance:
    task: str
    rendered_text: str
    expected_schema: dict[str, Any]
    context: str  # human-readable locus for error messages

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise UnknownTask(f"no such task: {self.task!r}")
        if not self.rendered_text.strip():
            raise ValueError("rendered prompt is empty")


def prompt_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def reply_schema(key: str, value: dict[str, Any], **optional: dict[str, Any]) -> dict[str, Any]:
    """The schema of a reply: a JSON object that must hold ``key``, matching
    ``value``, and may hold the ``optional`` keys, each matching its schema."""
    return {"type": "object", "required": [key], "properties": {key: value, **optional}}


def numbered_listing(texts: Iterable[str]) -> str:
    """One ``[i] text`` line per text, counted from 1, for a prompt."""
    return "\n".join(f"[{i}] {text}" for i, text in enumerate(texts, 1))


# ---------------------------------------------------------------------------
# Operation log
# ---------------------------------------------------------------------------


class OperationLog:
    """Append-only structured log shared by the gateway and the orchestrator."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def record(self, kind: str, **fields: Any) -> None:
        self.records.append({"kind": kind, **fields})


# ---------------------------------------------------------------------------
# Providers
# ---------------------------------------------------------------------------


class ChatProvider(Protocol):
    def complete(self, task: LlmTask, prompt: str, base_hash: str) -> str: ...


class HttpChatProvider(HttpJsonProvider):
    """Chat-completions endpoint: POST {model, messages, temperature, top_p}."""

    kind = "chat"
    api_key_env = "CLAIMLENS_CHAT_API_KEY"
    reply_key = "content"
    reply_type = str
    timeout = 60.0

    def complete(self, task: LlmTask, prompt: str, base_hash: str) -> str:
        return self._post(
            {
                "model": self.model,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": task.temperature,
                "top_p": TOP_P,
            }
        )


class MockChatProvider:
    """Scripted provider for deterministic runs.

    The script maps each task name to reply strings keyed by the hash of the
    originally rendered prompt, with an optional task-level ``default`` string.
    """

    def __init__(self, script: dict[str, dict[str, Any]]):
        self.script = script

    @classmethod
    def from_dir(cls, directory: str | Path) -> "MockChatProvider":
        """Load one ``<task>.json`` fixture file per task from a transcript dir."""
        directory = Path(directory)
        if not directory.is_dir():
            raise UnreadableFile(f"mock transcript directory {directory} not found")
        script: dict[str, dict[str, Any]] = {}
        for path in sorted(directory.glob("*.json")):
            entry = script[path.stem] = read_json(path, "mock transcript")
            if not isinstance(entry, dict) or not isinstance(entry.get("responses", {}), dict):
                raise UnreadableFile(f"mock transcript {path} must map 'responses' to an object")
            replies = [entry.get("default", ""), *entry.get("responses", {}).values()]
            if not all(isinstance(reply, str) for reply in replies):
                raise UnreadableFile(f"mock transcript {path} holds a non-string response")
        return cls(script)

    def complete(self, task: LlmTask, prompt: str, base_hash: str) -> str:
        entry = self.script.get(task.name, {})
        value = entry.get("responses", {}).get(base_hash, entry.get("default"))
        if value is None:
            raise SchemaViolation(
                f"mock transcript has no fixture for task {task.name!r} "
                f"prompt hash {base_hash}"
            )
        return value


# ---------------------------------------------------------------------------
# Gateway
# ---------------------------------------------------------------------------

_RETRY_SUFFIX = (
    "\n\nYour previous output was invalid: {error}\n"
    "Return only corrected JSON that satisfies the requested format."
)


class LlmGateway:
    """Schema-validated JSON completion with bounded retry-on-error."""

    def __init__(
        self,
        provider: ChatProvider,
        log: OperationLog,
        temperatures: dict[str, float] | None = None,
        max_retries: int = 3,
    ):
        self.provider = provider
        self.log = log
        self.temperatures = dict(temperatures or {})
        self.max_retries = max_retries

    def _effective_task(self, name: str) -> LlmTask:
        task = TASKS[name]
        if name in self.temperatures:
            task = replace(task, temperature=self.temperatures[name])
        return task

    def complete_json(self, instance: PromptInstance) -> Any:
        task = self._effective_task(instance.task)
        check_schema(instance.expected_schema)
        base_hash = prompt_hash(instance.rendered_text)
        error_text: str | None = None
        for attempt in range(self.max_retries + 1):
            prompt = instance.rendered_text
            if error_text is not None:
                prompt += _RETRY_SUFFIX.format(error=error_text)
            try:
                raw = self.provider.complete(task, prompt, base_hash)
            except (SchemaViolation, ProviderUnavailable) as exc:
                # A missing fixture in a strict transcript, or a provider that could
                # not answer: the same error class, annotated with the locus.
                if isinstance(exc, SchemaViolation):
                    self._log_call(task, base_hash, attempt, "missing_fixture")
                raise type(exc)(f"{exc} ({instance.context})") from exc
            try:
                value = _parse_json(raw)
            except (ValueError, RecursionError) as exc:
                error_text = f"not valid JSON: {exc}"
                continue
            error = schema_error(instance.expected_schema, value)
            if error is not None:
                error_text = f"schema violation: {error}"
                continue
            self._log_call(task, base_hash, attempt, "ok")
            return value
        self._log_call(task, base_hash, self.max_retries, "schema_violation")
        raise SchemaViolation(
            f"task {task.name!r} returned invalid output after "
            f"{self.max_retries} retries: {error_text} ({instance.context})"
        )

    def _log_call(self, task: LlmTask, base_hash: str, retries: int, status: str) -> None:
        self.log.record(
            "llm_call",
            task=task.name,
            prompt_hash=base_hash,
            retries=retries,
            status=status,
        )


def _parse_json(raw: str) -> Any:
    """Parse a model response, tolerating markdown code fences."""
    text = raw.strip()
    if text.startswith("```"):
        lines = text.splitlines()
        if lines[0].startswith("```"):
            lines = lines[1:]
        if lines and lines[-1].strip().startswith("```"):
            lines = lines[:-1]
        text = "\n".join(lines).strip()
    return parse_json(text)


# ---------------------------------------------------------------------------
# Response schema check
# ---------------------------------------------------------------------------

_TYPES = {"object": dict, "array": list, "string": str}


def check_schema(schema: Any) -> None:
    """Raise ``ValueError`` naming the keyword if ``schema`` uses one outside
    the eight that :func:`schema_error` knows, or gives one a bad value."""
    if not isinstance(schema, dict):
        raise ValueError(f"a schema must be an object, not {schema!r}")
    for key, rule in schema.items():
        if key == "type":
            ok = isinstance(rule, str) and rule in _TYPES
        elif key == "enum":
            ok = isinstance(rule, list)
        elif key == "required":
            ok = isinstance(rule, list) and all(isinstance(name, str) for name in rule)
        elif key == "properties":
            ok = isinstance(rule, dict)
            for subschema in rule.values() if ok else ():
                check_schema(subschema)
        elif key == "items":
            ok = True
            check_schema(rule)
        elif key in ("minItems", "maxItems", "minLength"):
            ok = isinstance(rule, int) and not isinstance(rule, bool) and rule >= 0
        else:
            raise ValueError(f"unsupported schema keyword {key!r}")
        if not ok:
            raise ValueError(f"bad value for schema keyword {key!r}: {rule!r}")


def _errors(schema: dict[str, Any], value: Any, path: tuple) -> Iterator[tuple[tuple, str]]:
    """Yield ``(path, message)`` for each way ``value`` breaks ``schema``, in
    the schema's key order, with the reference validator's message texts."""
    for key, rule in schema.items():
        if key == "type" and not isinstance(value, _TYPES[rule]):
            yield path, f"{value!r} is not of type {rule!r}"
        elif key == "enum" and not any(
            # As in JSON Schema, True and False are not the numbers 1 and 0.
            value == option and isinstance(value, bool) == isinstance(option, bool)
            for option in rule
        ):
            yield path, f"{value!r} is not one of {rule!r}"
        elif key == "required" and isinstance(value, dict):
            for name in rule:
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "properties" and isinstance(value, dict):
            for name, subschema in rule.items():
                if name in value:
                    yield from _errors(subschema, value[name], path + (name,))
        elif key == "items" and isinstance(value, list):
            for index, item in enumerate(value):
                yield from _errors(rule, item, path + (index,))
        elif (key == "minItems" and isinstance(value, list)
              or key == "minLength" and isinstance(value, str)) and len(value) < rule:
            yield path, f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}"
        elif key == "maxItems" and isinstance(value, list) and len(value) > rule:
            yield path, f"{value!r} {'is expected to be empty' if rule == 0 else 'is too long'}"


def schema_error(schema: dict[str, Any], value: Any) -> str | None:
    """The message of the error in ``value`` that the reference validator's
    ``best_match`` reports, or ``None`` if ``value`` satisfies ``schema``.
    Without combinators, its relevance key reduces to the greatest
    ``(-len(path), path)``, the first error reported winning a tie."""
    best = max(_errors(schema, value, ()), key=lambda e: (-len(e[0]), e[0]), default=None)
    return None if best is None else best[1]
