"""Exception hierarchy shared across the pipeline."""

from __future__ import annotations


class ClaimLensError(Exception):
    """Base class for all pipeline errors."""


class UsageError(ClaimLensError):
    """Bad invocation: missing files, invalid flag combinations."""


# --- corpus ---

class UnreadableFile(UsageError):
    pass


class MissingField(ClaimLensError):
    pass


class DuplicateDocId(ClaimLensError):
    pass


class EmptyDocument(ClaimLensError):
    pass


# --- embedding ---

class ProviderUnavailable(ClaimLensError):
    pass


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


class EmptyPool(ClaimLensError):
    pass


# --- ranking ---

class EmptyList(ClaimLensError):
    pass


class EmptyKeywordSet(ClaimLensError):
    pass


# --- perspective ---

class NoCoarseAspects(ClaimLensError):
    pass


# --- evaluation ---

class JudgeFailure(ClaimLensError):
    pass


# --- cli / reporting ---

class UnknownFormat(UsageError):
    pass


class FingerprintMismatch(ClaimLensError):
    """Artifacts produced under a different effective configuration."""


class CorruptArtifact(ClaimLensError):
    """A stage artifact that is readable but malformed or self-contradictory."""
