"""Auditing reports (§4.1.4, Step 6 of the §2 workflow).

The auditing agent's final product: for every candidate redundancy
deployment, the RG-ranking list, an independence score, any *unexpected*
risk groups, and (when weights exist) an estimated failure probability.
Deployments are ranked so the client can pick the most independent one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.core.ranking import RankedRiskGroup, RankingMethod
from repro.errors import AnalysisError
from repro.schema import envelope

__all__ = ["DeploymentAudit", "AuditReport", "deployment_order"]


def deployment_order(
    method: RankingMethod,
    score: float,
    failure_probability: Optional[float],
    deployment: str,
) -> tuple:
    """The §4.1.4 sort key of one deployment, most independent first.

    Size-based scores rank descending (bigger RGs = more independent);
    probability-based scores rank ascending (smaller total importance =
    more independent).  Failure probability, ``None`` counting as 1.0,
    breaks ties; the deployment name makes the order fully deterministic.
    """
    return (
        -score if method.higher_score_is_more_independent else score,
        1.0 if failure_probability is None else failure_probability,
        deployment,
    )


@dataclass
class DeploymentAudit:
    """Audit outcome for one candidate redundancy deployment.

    Attributes:
        deployment: Human-readable deployment identifier, e.g.
            ``"Rack5 & Rack29"``.
        sources: The redundant data sources making up the deployment.
        redundancy: Intended replication level (used to flag unexpected
            RGs: any minimal RG smaller than this is a hidden common
            dependency).
        ranking: The deployment's RG-ranking list.
        score: Independence score per §4.1.4.
        ranking_method: Which pluggable algorithm produced the ranking.
        failure_probability: Estimated ``Pr(T)``, when available.
    """

    deployment: str
    sources: tuple[str, ...]
    redundancy: int
    ranking: list[RankedRiskGroup]
    score: float
    ranking_method: RankingMethod
    failure_probability: Optional[float] = None
    graph_stats: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def unexpected_risk_groups(self) -> list[RankedRiskGroup]:
        """Minimal RGs smaller than the intended redundancy level."""
        return [e for e in self.ranking if e.size < self.redundancy]

    @property
    def has_unexpected_risk_groups(self) -> bool:
        return bool(self.unexpected_risk_groups)

    def top_risk_groups(self, n: int = 5) -> list[RankedRiskGroup]:
        return list(self.ranking[:n])

    def to_dict(self) -> dict:
        return {
            "deployment": self.deployment,
            "sources": list(self.sources),
            "redundancy": self.redundancy,
            "score": self.score,
            "ranking_method": self.ranking_method.value,
            "failure_probability": self.failure_probability,
            "unexpected_risk_groups": [
                sorted(e.events) for e in self.unexpected_risk_groups
            ],
            "ranking": [
                {
                    "rank": e.rank,
                    "events": sorted(e.events),
                    "probability": e.probability,
                    "importance": e.importance,
                }
                for e in self.ranking
            ],
            "graph_stats": dict(self.graph_stats),
            "notes": list(self.notes),
        }


@dataclass
class AuditReport:
    """The report the auditing agent returns to the client (Step 6, §2)."""

    title: str
    audits: list[DeploymentAudit]
    ranking_method: RankingMethod
    client: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.audits:
            raise AnalysisError("a report needs at least one deployment audit")
        methods = {a.ranking_method for a in self.audits}
        if methods != {self.ranking_method}:
            raise AnalysisError(
                "all audits in a report must use the report's ranking method"
            )

    def ranked_deployments(self) -> list[DeploymentAudit]:
        """Deployments ordered most-independent first
        (:func:`deployment_order`)."""
        return sorted(
            self.audits,
            key=lambda audit: deployment_order(
                self.ranking_method,
                audit.score,
                audit.failure_probability,
                audit.deployment,
            ),
        )

    def best(self) -> DeploymentAudit:
        """The most independent deployment."""
        return self.ranked_deployments()[0]

    def deployments_without_unexpected_rgs(self) -> list[DeploymentAudit]:
        return [a for a in self.audits if not a.has_unexpected_risk_groups]

    def to_dict(self) -> dict:
        return envelope(
            "audit_report",
            {
                "title": self.title,
                "client": self.client,
                "ranking_method": self.ranking_method.value,
                "metadata": dict(self.metadata),
                "deployments": [
                    a.to_dict() for a in self.ranked_deployments()
                ],
            },
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render_text(self, top_rgs: int = 5) -> str:
        """Human-readable report, one block per deployment."""
        lines = [f"INDaaS auditing report: {self.title}"]
        if self.client:
            lines.append(f"client: {self.client}")
        lines.append(f"ranking method: {self.ranking_method.value}")
        lines.append("")
        for position, audit in enumerate(self.ranked_deployments(), start=1):
            header = f"{position}. {audit.deployment}  (score={audit.score:.4g}"
            if audit.failure_probability is not None:
                header += f", Pr[failure]={audit.failure_probability:.4g}"
            header += ")"
            lines.append(header)
            unexpected = audit.unexpected_risk_groups
            if unexpected:
                lines.append(
                    f"   !! {len(unexpected)} unexpected risk group(s) "
                    f"(smaller than {audit.redundancy}-way redundancy)"
                )
            for entry in audit.top_risk_groups(top_rgs):
                lines.append(f"   {entry.describe()}")
            for note in audit.notes:
                lines.append(f"   note: {note}")
            lines.append("")
        return "\n".join(lines)

    def summary(self) -> str:
        best = self.best()
        total = len(self.audits)
        safe = len(self.deployments_without_unexpected_rgs())
        return (
            f"{self.title}: {total} deployments audited, {safe} without "
            f"unexpected RGs; most independent: {best.deployment}"
        )
