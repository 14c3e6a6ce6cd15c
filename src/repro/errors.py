"""Exception hierarchy for the INDaaS reproduction.

Every error raised by :mod:`repro` derives from :class:`IndaasError` so that
callers can catch library failures with a single ``except`` clause while still
letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class IndaasError(Exception):
    """Base class for all errors raised by the repro library."""


class FaultGraphError(IndaasError):
    """Structural problem in a fault graph (cycle, unknown node, bad gate)."""


class SpecificationError(IndaasError):
    """An audit specification is malformed or references unknown entities."""


class DependencyDataError(IndaasError):
    """Dependency records are malformed or cannot be parsed."""


class AcquisitionError(IndaasError):
    """A dependency acquisition module failed to collect data."""


class TopologyError(IndaasError):
    """A topology is malformed or a requested element does not exist."""


class RoutingError(TopologyError):
    """No route exists between the requested endpoints."""


class PlacementError(IndaasError):
    """The VM scheduler could not satisfy a placement request."""


class CryptoError(IndaasError):
    """A cryptographic primitive was misused or failed."""


class ProtocolError(IndaasError):
    """A multi-party protocol (P-SOP, KS) was violated."""


class AnalysisError(IndaasError):
    """An auditing analysis cannot be carried out on the given input."""


class AuditCancelled(IndaasError):
    """An in-flight audit was cancelled by its submitter.

    Raised from inside the engine's sampling loop when the enclosing
    :func:`~repro.engine.facade.cancel_scope` is signalled, so a
    long-running audit job stops at the next block boundary instead of
    running to completion for nobody.
    """


class ServiceError(IndaasError):
    """A request to (or within) the audit service failed.

    Carries enough structure for the HTTP layer to render a canonical
    error body and for clients to react programmatically:

    Attributes:
        status: HTTP status code of the failure.
        code: Stable machine-readable error identifier (kebab-case).
        retry_after: Seconds after which retrying may succeed, when the
            failure is load-related (429/503), else ``None``.
        retryable: Whether a retry of the same request may succeed
            (transient transport/load failures: connection resets,
            truncated streams, 429/503).  The retrying client keys its
            backoff loop off this flag.
    """

    def __init__(
        self,
        message: str,
        status: int = 500,
        code: str = "internal",
        retry_after: "float | None" = None,
        retryable: bool = False,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.retry_after = retry_after
        self.retryable = retryable


class Backpressure(ServiceError):
    """The service's admission control rejected a job submission (429)."""

    def __init__(
        self, message: str, retry_after: float = 1.0, code: str = "overloaded"
    ) -> None:
        super().__init__(
            message,
            status=429,
            code=code,
            retry_after=retry_after,
            retryable=True,
        )
