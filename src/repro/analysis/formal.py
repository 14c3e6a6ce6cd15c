"""Formal exhaustive deployment analysis (§6.2.1).

The network case study backs its sampling-based audit with a "formal
analysis": enumerate *every* candidate deployment, compute its exact
minimal RGs, flag unexpected ones, and — under an assumed device failure
probability — find the deployment with the lowest failure probability.
This module packages that workflow over any DepDB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from repro.core.builder import Weigher
from repro.core.minimal_rg import (
    DEFAULT_MAX_GROUPS,
    _bdd_minimal_risk_groups,
    unexpected_risk_groups,
)
from repro.depdb.database import DepDB
from repro.engine.audit import SIAAuditor
from repro.errors import AnalysisError

__all__ = ["DeploymentAnalysis", "FormalAnalysisResult", "formal_analysis"]


@dataclass(frozen=True)
class DeploymentAnalysis:
    """Exact analysis of one candidate deployment."""

    members: tuple[str, ...]
    minimal_rgs: tuple[frozenset[str], ...]
    unexpected: tuple[frozenset[str], ...]
    failure_probability: Optional[float]

    @property
    def name(self) -> str:
        return " & ".join(self.members)

    @property
    def is_safe(self) -> bool:
        """No unexpected (smaller-than-redundancy) risk group."""
        return not self.unexpected


@dataclass
class FormalAnalysisResult:
    """Outcome of exhaustively analysing all n-way deployments."""

    ways: int
    deployments: list[DeploymentAnalysis] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.deployments)

    @property
    def safe(self) -> list[DeploymentAnalysis]:
        return [d for d in self.deployments if d.is_safe]

    @property
    def safe_fraction(self) -> float:
        """The paper's "random selection avoids correlated failures with
        probability X" number (27/190 = 14%)."""
        if not self.deployments:
            raise AnalysisError("no deployments analysed")
        return len(self.safe) / self.total

    def lowest_failure_probability(self) -> DeploymentAnalysis:
        """Most reliable deployment under the assumed probabilities."""
        candidates = [
            d for d in self.deployments if d.failure_probability is not None
        ]
        if not candidates:
            raise AnalysisError(
                "no failure probabilities available; pass a weigher"
            )
        return min(
            candidates, key=lambda d: (d.failure_probability, d.members)
        )

    def summary(self) -> str:
        lines = [
            f"{self.total} candidate {self.ways}-way deployments; "
            f"{len(self.safe)} without unexpected RGs "
            f"({self.safe_fraction:.0%} chance for a random pick)"
        ]
        try:
            best = self.lowest_failure_probability()
            lines.append(
                f"lowest failure probability: {best.name} "
                f"(Pr = {best.failure_probability:.4g})"
            )
        except AnalysisError:
            pass
        return "\n".join(lines)


def formal_analysis(
    depdb: DepDB,
    candidates: Sequence[str],
    ways: int = 2,
    weigher: Optional[Weigher] = None,
    destinations: Optional[Sequence[str]] = None,
    include_host_events: bool = True,
    max_order: Optional[int] = None,
) -> FormalAnalysisResult:
    """Exact minimal-RG analysis of every ``ways``-subset of candidates.

    Args:
        depdb: Dependency records covering all candidate servers.
        candidates: The candidate servers (e.g. one per rack).
        ways: Redundancy arity (2 = all pairs, as in §6.2.1).
        weigher: Optional probabilities; enables the lowest-failure-
            probability comparison, by each graph's exact Pr(T).
        max_order: Optional cut-set truncation for very large graphs; it
            truncates the families, not Pr(T).
    """
    if ways < 1 or ways > len(candidates):
        raise AnalysisError(f"ways={ways} outside 1..{len(candidates)}")
    auditor = SIAAuditor(depdb, weigher=weigher)
    from repro.core.spec import AuditSpec  # local import avoids a cycle

    result = FormalAnalysisResult(ways=ways)
    for combo in combinations(candidates, ways):
        spec = AuditSpec(
            deployment=" & ".join(combo),
            servers=combo,
            destinations=None if destinations is None else tuple(destinations),
            include_host_events=include_host_events,
            max_order=max_order,
        )
        graph = auditor.build_graph(spec)
        groups, diagram = _bdd_minimal_risk_groups(
            graph, graph.top, max_order, DEFAULT_MAX_GROUPS
        )
        unexpected = unexpected_risk_groups(groups, expected_size=ways)
        probability = None
        if weigher is not None:
            # The untruncated graph's Pr(T), under ``max_order`` too.
            probability = diagram.probability(graph.probabilities())
        result.deployments.append(
            DeploymentAnalysis(
                members=combo,
                minimal_rgs=tuple(groups),
                unexpected=tuple(unexpected),
                failure_probability=probability,
            )
        )
    return result
