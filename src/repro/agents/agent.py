"""The auditing agent: mediates clients and data sources (§2, Figure 1).

In SIA mode the agent pulls full dependency data from every data source,
merges it into one DepDB, builds one canonical
:class:`repro.api.AuditRequest` per candidate deployment and hands each
to the executor it was given — :func:`repro.api.run_request` in-process,
``ServiceClient.audit`` against ``indaas serve`` — then merges the
answers into the ranked report.  It owns no audit pipeline of its own.

In PIA mode the agent never sees raw dependency data: it only supervises
the P-SOP rounds between the sources' proxies and assembles the ranking
from the similarity values they jointly computed (§4.2.5); that step is
local by construction and never reaches the executor.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro import api
from repro.agents.datasource import DataSource
from repro.agents.messages import (
    AuditRequest,
    AuditResponse,
    DependencyDataRequest,
)
from repro.depdb.database import DepDB
from repro.errors import SpecificationError
from repro.privacy.pia import PIAAuditor

__all__ = ["AuditingAgent"]

#: Risk groups summed into a deployment's independence score (§4.1.4).
TOP_N = 5

#: The record kinds PIA compares as component-sets (§4.2.3).
_PIA_KINDS = ("network", "software")


class AuditingAgent:
    """The mediator role of Figure 1.

    Args:
        sources: The data sources this agent can reach, by name.
        audit: The executor, ``api.AuditRequest -> api.AuditReport``;
            ``client.audit`` of a ``ServiceClient`` audits remotely,
            :func:`functools.partial` adds a ``timeout`` or an ``engine``.
        probability: Uniform component failure probability of every SIA
            request; ``metric="probability"`` needs one.
        seed: Seed of every SIA request and of the PIA parties.
        pia_group_bits: Commutative group size for PIA (paper: 1024).
    """

    def __init__(
        self,
        sources: Mapping[str, DataSource],
        audit: Callable[[api.AuditRequest], api.AuditReport] = api.run_request,
        probability: Optional[float] = None,
        seed: Optional[int] = 0,
        pia_group_bits: int = 1024,
    ) -> None:
        if not sources:
            raise SpecificationError("agent needs at least one data source")
        self.sources = dict(sources)
        self.audit = audit
        self.probability = probability
        self.seed = seed
        self.pia_group_bits = pia_group_bits

    def handle(self, request: AuditRequest) -> AuditResponse:
        """Serve one client audit request (Steps 2–6)."""
        missing = [s for s in request.data_sources if s not in self.sources]
        if missing:
            raise SpecificationError(f"unknown data sources: {missing}")
        if request.mode == "sia":
            return self._handle_sia(request)
        return self._handle_pia(request)

    # ------------------------------------------------------------------ #
    # SIA path
    # ------------------------------------------------------------------ #

    def _merged_depdb(self, request: AuditRequest) -> DepDB:
        """Steps 2–5: query each source and merge the returned records."""
        merged = DepDB()
        for source_name in request.data_sources:
            response = self.sources[source_name].handle(
                DependencyDataRequest(
                    source=source_name,
                    dependency_types=request.dependency_types,
                    programs=request.programs,
                )
            )
            merged.merge(DepDB.loads(response.payload))
        if request.programs is None:
            return merged
        # api.AuditRequest has no programs field, so no executor can
        # reject a program no source reported; the agent does.
        for server in dict.fromkeys(s for d in request.deployments for s in d):
            found = {
                r.pgm for r in merged.software_on(server, request.programs)
            }
            missing = [p for p in request.programs if p not in found]
            if missing:
                raise SpecificationError(
                    f"no software records for {missing} on server {server!r}"
                )
        return merged

    def _handle_sia(self, request: AuditRequest) -> AuditResponse:
        depdb_text = self._merged_depdb(request).dumps()
        reports = [
            self.audit(
                api.AuditRequest(
                    servers=tuple(servers),
                    depdb=depdb_text,
                    required=min(request.redundancy, len(servers)),
                    ranking=request.metric,
                    top_n=TOP_N,
                    seed=self.seed,
                    probability=self.probability,
                    tenant=request.client,
                    metadata={"client": request.client},
                )
            )
            for servers in request.deployments
        ]
        merged = api.merge_reports(
            reports,
            title=f"SIA audit for {request.client}",
            client=request.client,
        )
        return AuditResponse(
            client=request.client,
            report_json=merged.to_json(indent=2),
            mode="sia",
            notes=(
                f"{len(reports)} deployments audited; most independent: "
                f"{merged.best()['deployment']}",
            ),
        )

    # ------------------------------------------------------------------ #
    # PIA path
    # ------------------------------------------------------------------ #

    def _handle_pia(self, request: AuditRequest) -> AuditResponse:
        involved = list(dict.fromkeys(p for d in request.deployments for p in d))
        outside = sorted(set(involved) - set(request.data_sources))
        if outside:
            raise SpecificationError(
                f"PIA deployments name providers outside data_sources: "
                f"{outside}"
            )
        kinds = tuple(k for k in request.dependency_types if k in _PIA_KINDS)
        if not kinds:
            raise SpecificationError(
                f"PIA compares only {list(_PIA_KINDS)} records; "
                f"got dependency_types={list(request.dependency_types)}"
            )
        sizes = sorted({len(d) for d in request.deployments})
        if len(sizes) != 1:
            raise SpecificationError(
                "PIA audits one redundancy arity at a time; "
                f"got deployments of sizes {sizes}"
            )
        auditor = PIAAuditor(
            {
                name: self.sources[name].component_set(include_kinds=kinds)
                for name in involved
            },
            protocol="psop",
            group_bits=self.pia_group_bits,
            seed=self.seed,
        )
        report = auditor.audit(
            ways=sizes[0],
            deployments=request.deployments,
            title=f"PIA audit for {request.client}",
        )
        return AuditResponse(
            client=request.client,
            report_json=report.to_json(),
            mode="pia",
            notes=(
                f"{len(report.entries)} deployments ranked privately; "
                f"best: {report.best().name}",
            ),
        )
