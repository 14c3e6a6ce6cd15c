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
    """One dependency data source (a provider, region or cluster).

    Args:
        name: The source's identity in requests.
        modules: DAMs run once, into ``depdb``, on first use.
        depdb: The local store.  Given records and no modules, the
            source serves them as given; pass a SQLite-backed DepDB to
            make acquired records durable.
    """

    def __init__(
        self,
        name: str,
        modules: Iterable[DependencyAcquisitionModule] = (),
        depdb: Optional[DepDB] = None,
    ) -> None:
        if not name:
            raise AcquisitionError("data source name must be non-empty")
        self.name = name
        self.modules = tuple(modules)
        if not self.modules and depdb is None:
            raise AcquisitionError(
                f"data source {name!r} has neither acquisition modules "
                f"nor records"
            )
        self._depdb = depdb if depdb is not None else DepDB()
        self._pending = bool(self.modules)

    @property
    def depdb(self) -> DepDB:
        """The local DepDB, after Step 3 has run the modules into it."""
        if self._pending:
            acquire_into(self._depdb, self.modules)
            self._pending = False
        return self._depdb

    def handle(self, request: DependencyDataRequest) -> DependencyDataResponse:
        """Step 5 (SIA): serve the requested record categories."""
        if request.source != self.name:
            raise AcquisitionError(
                f"request for {request.source!r} reached {self.name!r}"
            )
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

    def component_set(
        self, include_kinds: tuple[str, ...] = ("network", "software")
    ) -> frozenset[str]:
        """PIA view: the components behind this source (raw records
        never leave it)."""
        return CloudProvider(
            name=self.name, depdb=self.depdb, include_kinds=include_kinds
        ).component_set()
