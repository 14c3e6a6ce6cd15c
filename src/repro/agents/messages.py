"""Wire messages of the INDaaS workflow (Figure 1, Steps 1–6).

These dataclasses give the client ↔ agent ↔ data-source interactions an
explicit, serialisable shape, so the in-process deployment mirrors how a
real INDaaS would exchange specifications, dependency data and reports
over SSH channels (§6.1.1).
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.errors import SpecificationError

__all__ = [
    "AuditRequest",
    "DependencyDataRequest",
    "DependencyDataResponse",
    "AuditResponse",
]


def _sequence(what: str, value) -> tuple:
    """``value`` as a tuple, if it is a list or tuple (not a string)."""
    if not isinstance(value, (list, tuple)):
        raise SpecificationError(
            f"{what} must be a list, got {type(value).__name__} {value!r}"
        )
    return tuple(value)


def _names(what: str, value) -> tuple[str, ...]:
    """``value`` as a tuple of non-empty strings."""
    names = _sequence(what, value)
    if not all(isinstance(name, str) and name for name in names):
        raise SpecificationError(
            f"{what} must list non-empty names, got {value!r}"
        )
    return names


@dataclass(frozen=True)
class AuditRequest:
    """Step 1: the client's audit specification to the agent.

    Deliberately not :class:`repro.api.AuditRequest`: data sources,
    dependency types, metric and mode are Figure-1 notions the canonical
    one-deployment request has no field for.  The agent turns one of
    these into one canonical request per deployment.  Lists of names are
    stored as tuples; a string in their place is rejected.

    Attributes:
        client: Requesting identity.
        data_sources: Names of the data sources to involve.
        deployments: Candidate deployments — tuples of server names
            (SIA) or of data-source names, all of one arity (PIA).
        redundancy: Required live servers (n of n-of-m).
        dependency_types: Record categories to consider.  PIA compares
            only ``network`` and ``software`` components (§4.2.3):
            ``hardware`` is dropped from a mixed list, and a list that
            leaves neither is rejected.
        metric: ``"size"`` or ``"probability"`` ranking.
        mode: ``"sia"`` or ``"pia"``.
        programs: Software components of interest (§3); a program no
            source reports for a deployment's server is rejected.
    """

    client: str
    data_sources: tuple[str, ...]
    deployments: tuple[tuple[str, ...], ...]
    redundancy: int = 1
    dependency_types: tuple[str, ...] = ("network", "hardware", "software")
    metric: str = "size"
    mode: str = "sia"
    programs: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not self.client:
            raise SpecificationError("client name must be non-empty")
        # A bare string would pass for the sequence of its characters.
        set_field = functools.partial(object.__setattr__, self)
        set_field("data_sources", _names("data_sources", self.data_sources))
        set_field(
            "deployments",
            tuple(
                _names("each deployment", deployment)
                for deployment in _sequence("deployments", self.deployments)
            ),
        )
        set_field(
            "dependency_types",
            _names("dependency_types", self.dependency_types),
        )
        if self.programs is not None:
            set_field("programs", _names("programs", self.programs))
        if (
            isinstance(self.redundancy, bool)
            or not isinstance(self.redundancy, int)
            or self.redundancy < 1
        ):
            raise SpecificationError(
                f"redundancy must be a positive integer, "
                f"got {self.redundancy!r}"
            )
        if not self.data_sources:
            raise SpecificationError("request names no data sources")
        if not self.deployments:
            raise SpecificationError("request names no deployments")
        if self.mode not in ("sia", "pia"):
            raise SpecificationError(f"unknown mode {self.mode!r}")
        if self.metric not in ("size", "probability"):
            raise SpecificationError(f"unknown metric {self.metric!r}")
        allowed = {"network", "hardware", "software"}
        bad = [t for t in self.dependency_types if t not in allowed]
        if bad:
            raise SpecificationError(f"unknown dependency types: {bad}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), default=list)


@dataclass(frozen=True)
class DependencyDataRequest:
    """Step 2: agent asks a data source for dependency data."""

    source: str
    dependency_types: tuple[str, ...]
    servers: Optional[tuple[str, ...]] = None
    programs: Optional[tuple[str, ...]] = None


@dataclass(frozen=True)
class DependencyDataResponse:
    """Step 5 (SIA): a data source returns its records, serialised in the
    Table-1 line format."""

    source: str
    payload: str
    record_count: int


@dataclass(frozen=True)
class AuditResponse:
    """Step 6: the agent's report back to the client."""

    client: str
    report_json: str
    mode: str
    notes: tuple[str, ...] = field(default=())

    def report_dict(self) -> dict:
        return json.loads(self.report_json)
