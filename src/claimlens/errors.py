"""Exception hierarchy shared across the pipeline; the CLI's exit code follows it."""

from __future__ import annotations


class ClaimLensError(Exception):
    """Base class for all pipeline errors; exit 3 unless a subclass says otherwise."""


class UsageError(ClaimLensError):
    """Bad invocation or input (exit 1): missing files, invalid flags, malformed corpus."""


# --- corpus ---

class UnreadableFile(UsageError):
    pass


class MissingField(UsageError):
    pass


class DuplicateDocId(UsageError):
    pass


class EmptyDocument(UsageError):
    pass


# --- embedding ---

class ProviderUnavailable(ClaimLensError):
    """An embedding or chat provider could not answer (exit 2)."""


class Timeout(ProviderUnavailable):
    pass


class DimensionMismatch(ClaimLensError):
    pass


class ZeroVector(ClaimLensError):
    pass


class EmptyIndex(ClaimLensError):
    pass


# --- llm gateway ---

class UnknownTask(ClaimLensError):
    pass


class SchemaViolation(ClaimLensError):
    pass


# --- hierarchy ---

class EmptyAspectList(ClaimLensError):
    pass


class TooFewSubaspects(ClaimLensError):
    pass


# --- ranking ---

class EmptyKeywordSet(ClaimLensError):
    pass


# --- perspective ---

class NoCoarseAspects(ClaimLensError):
    pass


# --- cli / reporting ---

class UnknownFormat(UsageError):
    pass


class FingerprintMismatch(ClaimLensError):
    """Artifacts produced under a different effective configuration."""


class CorruptArtifact(ClaimLensError):
    """A stage artifact that is readable but malformed or self-contradictory."""
