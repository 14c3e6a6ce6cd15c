"""Data sources: the provider-side role of the INDaaS workflow (§2).

A :class:`DataSource` owns a set of dependency acquisition modules and a
local DepDB.  On a Step-2 request it runs its DAMs (Step 3) and returns
records in the uniform line format (Step 5).  For PIA it instead exposes
a component-set to its local P-SOP proxy, never shipping raw records
anywhere.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.acquisition.base import DependencyAcquisitionModule, acquire_into
from repro.agents.messages import DependencyDataRequest, DependencyDataResponse
from repro.cloud.provider import CloudProvider
from repro.depdb.database import DepDB
from repro.depdb import xmlformat
from repro.errors import AcquisitionError

__all__ = ["DataSource"]


class DataSource:
    """One dependency data source (a provider, region or cluster)."""

    def __init__(
        self,
        name: str,
        modules: Iterable[DependencyAcquisitionModule] = (),
        depdb: Optional[DepDB] = None,
    ) -> None:
        if not name:
            raise AcquisitionError("data source name must be non-empty")
        self.name = name
        self.modules = list(modules)
        # Acquisition streams straight into the given store — pass a
        # SQLite-backed DepDB to make this source's records durable.
        self.depdb = depdb if depdb is not None else DepDB()
        self._collected = False

    def add_module(self, module: DependencyAcquisitionModule) -> None:
        self.modules.append(module)

    def collect(self, force: bool = False) -> dict[str, int]:
        """Step 3: run every acquisition module into the local DepDB."""
        if self._collected and not force:
            return {}
        if not self.modules:
            raise AcquisitionError(
                f"data source {self.name!r} has no acquisition modules"
            )
        counts = acquire_into(self.depdb, self.modules)
        self._collected = True
        return counts

    def handle(self, request: DependencyDataRequest) -> DependencyDataResponse:
        """Step 5 (SIA): serve the requested record categories."""
        if request.source != self.name:
            raise AcquisitionError(
                f"request for {request.source!r} reached {self.name!r}"
            )
        self.collect()
        wanted = set(request.dependency_types)
        records = []
        hosts = (
            set(request.servers) if request.servers is not None else None
        )
        for record in self.depdb.records():
            kind = type(record).__name__.replace("Dependency", "").lower()
            if kind not in wanted:
                continue
            host = getattr(record, "src", None) or getattr(record, "hw", "")
            if hosts is not None and host not in hosts:
                continue
            if (
                kind == "software"
                and request.programs is not None
                and record.pgm not in request.programs
            ):
                continue
            records.append(record)
        payload = xmlformat.dumps(records)
        return DependencyDataResponse(
            source=self.name, payload=payload, record_count=len(records)
        )

    def as_provider(
        self, include_kinds: tuple[str, ...] = ("network", "software")
    ) -> CloudProvider:
        """PIA view: this source as a provider with a component-set
        (raw records never leave the source)."""
        self.collect()
        return CloudProvider(
            name=self.name, depdb=self.depdb, include_kinds=include_kinds
        )

    def component_set(
        self,
        include_kinds: tuple[str, ...] = ("network", "software"),
        hosts: Optional[list[str]] = None,
    ) -> frozenset[str]:
        return self.as_provider(include_kinds).component_set(hosts)
