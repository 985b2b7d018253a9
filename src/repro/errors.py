"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """A structural problem with a multi-cost graph (missing node, bad edge...)."""


class FacilityError(ReproError):
    """A problem with a facility definition or facility set."""


class LocationError(ReproError):
    """An invalid network location (unknown edge, offset out of range...)."""


class StorageError(ReproError):
    """A problem in the simulated disk storage layer."""


class IndexKeyError(StorageError):
    """A key is absent from a B+-tree index (a miss, not a corrupt tree)."""


class PackFormatError(StorageError):
    """A dataset pack file is structurally invalid (bad magic, wrong
    endianness, truncation, undecodable slot or catalog)."""


class PackVersionError(PackFormatError):
    """A dataset pack was written by an incompatible format version."""


class PackChecksumError(PackFormatError):
    """A dataset pack's content does not match its recorded SHA-256."""


class QueryError(ReproError):
    """An invalid preference-query specification (bad k, bad weights...)."""


class PolicyError(QueryError):
    """An invalid or conflicting :class:`repro.api.ExecutionPolicy`.

    Subclasses :class:`QueryError` so call sites written before the policy
    layer existed (which catch ``QueryError`` around service construction)
    keep catching the same failures.
    """


class ServeError(ReproError):
    """A serving-tier problem (bad serve configuration, transport misuse).

    Request-level failures (malformed payloads, unknown subscriptions) are
    reported to clients as structured error envelopes, never raised across
    the transport; this class covers server-side misconfiguration."""


class JournalError(ServeError):
    """A batch-job journal is structurally corrupt (bad framing or checksum
    anywhere before the final record — a torn *tail* is tolerated and
    truncated, earlier corruption is not)."""


class JournalMismatchError(JournalError):
    """A journal was recorded against a different dataset (catalog/workload
    fingerprint mismatch); replaying it would serve stale results."""


class RetryBudgetExceededError(ServeError):
    """A client-side retry policy ran out of attempts or wall-clock budget
    before the request succeeded; carries the last response's status."""

    def __init__(self, message: str, *, status: int | None = None, attempts: int = 0):
        super().__init__(message)
        self.status = status
        self.attempts = attempts


class DataGenerationError(ReproError):
    """Invalid parameters passed to one of the synthetic data generators."""
