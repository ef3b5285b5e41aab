"""Exception hierarchy shared across the pipeline; the CLI's exit code follows it.

One class per exit code, plus the two that a caller catches: ``SchemaViolation``
(``LlmGateway.complete_json`` appends the locus to a provider's) and
``CorruptArtifact`` (the stage input gate and the tree loader add the file or
node it came from)."""

from __future__ import annotations


class ClaimLensError(Exception):
    """Base class for all pipeline errors; exit 3 unless a subclass says otherwise."""


class UsageError(ClaimLensError):
    """Bad invocation or input (exit 1): missing files, invalid flags, malformed corpus."""


class ProviderUnavailable(ClaimLensError):
    """An embedding or chat provider could not answer or timed out (exit 2)."""


class SchemaViolation(ClaimLensError):
    """An LLM reply that does not parse or does not match its task's schema."""


class CorruptArtifact(ClaimLensError):
    """A stage artifact that is readable but malformed or self-contradictory."""
