"""Wire messages of the INDaaS workflow (Figure 1, Steps 1–6).

These dataclasses give the client ↔ agent ↔ data-source interactions an
explicit, serialisable shape, so the in-process deployment mirrors how a
real INDaaS would exchange specifications, dependency data and reports
over SSH channels (§6.1.1).
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class AuditRequest:
    """Step 1: the client's audit specification to the agent.

    Deliberately not :class:`repro.api.AuditRequest`: data sources,
    dependency types, metric and mode are Figure-1 notions the canonical
    one-deployment request has no field for.  The agent turns one of
    these into one canonical request per deployment.

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

    @property
    def payload_bytes(self) -> int:
        return len(self.payload.encode("utf-8"))


@dataclass(frozen=True)
class AuditResponse:
    """Step 6: the agent's report back to the client."""

    client: str
    report_json: str
    mode: str
    notes: tuple[str, ...] = field(default=())

    def report_dict(self) -> dict:
        return json.loads(self.report_json)
